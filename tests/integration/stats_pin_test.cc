/**
 * @file
 * Pins the signature-sensitive counters of a few small BulkSC runs.
 *
 * Directory lookups and their aliased share, aliased updates,
 * false-positive squashes and arbiter denials all depend on exactly
 * which bits the signature hash sets, and exec_time on all of them. A
 * host-side rewrite of the hash, the directory buckets or the overflow
 * check must leave these values unchanged. A model fix that moves them
 * must update the pins and record the change.
 *
 * Each run is `bulksc_sim --procs 4 --instrs 20000 ARGS` with every
 * other option at its default (model BSCdypvt).
 *
 * Also pins the set of statistics keys (the numeric `--json` keys)
 * each `--check` selection produces.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "system/sim_options.hh"
#include "system/system.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"

namespace bulksc {
namespace {

struct Pin
{
    std::vector<const char *> args;
    double execTime;
    double dirLookups;
    double dirAliasLookups;
    double dirAliasUpdates;
    double falsePositiveSquashes;
    double arbDenials;
};

Results
runCli(std::vector<const char *> args)
{
    args.insert(args.end(), {"--procs", "4", "--instrs", "20000"});
    SimOptions opts;
    std::string err;
    EXPECT_TRUE(OptionRegistry::instance().parse(
        static_cast<int>(args.size()), args.data(), opts,
        OptionGroup::Sim, err))
        << err;
    EXPECT_TRUE(opts.cfg.validate(err)) << err;
    // As bulksc_sim applies --check.
    AppProfile app = profileByName(opts.app);
    app.trackAllValues = opts.checks.replay;
    System sys(opts.cfg, generateTraces(app, opts.cfg.numProcs,
                                        opts.instrs, opts.seedSalt));
    if (opts.checks.any()) {
        sys.enableAnalysis(opts.checks.axiomatic, opts.checks.race,
                           opts.checks.replay);
    }
    return sys.run();
}

TEST(StatsPin, SignatureSensitiveCountersAreUnchanged)
{
    const std::vector<Pin> pins = {
        {{"--app", "ocean"}, 12569, 443, 118, 2, 1, 2},
        {{"--app", "radix"}, 12031, 1262, 586, 13, 2, 3},
        {{"--app", "ocean", "--sig-banks", "8"}, 12569, 443, 118, 3, 1, 2},
        {{"--app", "radix", "--sig-bits", "1024", "--sig-banks", "2"},
         12090, 2190, 1486, 61, 4, 7},
        {{"--app", "ocean", "--dir-cache", "128"},
         32225, 1653, 52, 7, 8, 84},
    };
    for (const Pin &pin : pins) {
        std::string name;
        for (const char *a : pin.args)
            name += std::string(a) + " ";
        SCOPED_TRACE(name);
        Results r = runCli(pin.args);
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(r.stats.get("exec_time"), pin.execTime);
        EXPECT_EQ(r.stats.get("mem.dir_lookups"), pin.dirLookups);
        EXPECT_EQ(r.stats.get("mem.dir_alias_lookups"),
                  pin.dirAliasLookups);
        EXPECT_EQ(r.stats.get("mem.dir_alias_updates"),
                  pin.dirAliasUpdates);
        EXPECT_EQ(r.stats.get("bulk.squash.false_positive"),
                  pin.falsePositiveSquashes);
        EXPECT_EQ(r.stats.get("arb.denials"), pin.arbDenials);
    }
}

using KeySet = std::set<std::string>;

KeySet
statKeys(std::vector<const char *> args)
{
    args.insert(args.begin(), {"--app", "ocean"});
    Results r = runCli(args);
    KeySet keys;
    for (const auto &[k, v] : r.stats.entries())
        keys.insert(k);
    return keys;
}

KeySet
operator+(KeySet a, const KeySet &b)
{
    a.insert(b.begin(), b.end());
    return a;
}

TEST(StatsPin, JsonKeySetPerCheckSelection)
{
    const KeySet base = {
    "arb.avg_pending_w", "arb.commit_occupancy.max",
    "arb.commit_occupancy.mean", "arb.commit_occupancy.min",
    "arb.commit_occupancy.p50", "arb.commit_occupancy.p90",
    "arb.commit_occupancy.p99", "arb.commit_occupancy.samples",
    "arb.denials", "arb.empty_w_pct", "arb.fault_injected_grants",
    "arb.grants", "arb.non_empty_pct", "arb.pre_arbitrations",
    "arb.requests", "arb.rsig_required_pct", "bulk.aborted_grants",
    "bulk.arb_latency.max", "bulk.arb_latency.mean",
    "bulk.arb_latency.min", "bulk.arb_latency.p50",
    "bulk.arb_latency.p90", "bulk.arb_latency.p99",
    "bulk.arb_latency.samples", "bulk.avg_priv_write_set",
    "bulk.avg_read_set", "bulk.avg_write_set", "bulk.base_writebacks",
    "bulk.commits", "bulk.denied_commits", "bulk.empty_w_pct",
    "bulk.inval_nodes_total", "bulk.nodes_per_wsig",
    "bulk.pre_arbitrations", "bulk.priv_buffer_overflows",
    "bulk.priv_buffer_supplies", "bulk.spec_read_displacements",
    "bulk.spec_write_displacements", "bulk.squash.false_positive",
    "bulk.squash.true_conflict", "bulk.squash.unattributed",
    "bulk.squash_chunk_size.max", "bulk.squash_chunk_size.mean",
    "bulk.squash_chunk_size.min", "bulk.squash_chunk_size.p50",
    "bulk.squash_chunk_size.p90", "bulk.squash_chunk_size.p99",
    "bulk.squash_chunk_size.samples", "bulk.squash_restart.max",
    "bulk.squash_restart.mean", "bulk.squash_restart.min",
    "bulk.squash_restart.p50", "bulk.squash_restart.p90",
    "bulk.squash_restart.p99", "bulk.squash_restart.samples",
    "cpu.retired_instrs", "cpu.spin_instrs", "cpu.squashed_instr_pct",
    "cpu.squashes", "cpu.wasted_instrs", "exec_time",
    "mem.bounced_reads", "mem.dir_alias_lookups",
    "mem.dir_alias_updates", "mem.dir_commit_service.max",
    "mem.dir_commit_service.mean", "mem.dir_commit_service.min",
    "mem.dir_commit_service.p50", "mem.dir_commit_service.p90",
    "mem.dir_commit_service.p99", "mem.dir_commit_service.samples",
    "mem.dir_displacements", "mem.dir_lookups", "mem.dir_updates",
    "mem.extra_invals", "mem.fill_bypasses", "mem.invalidations",
    "mem.l1_hits", "mem.l1_misses", "mem.writebacks", "model_is_bulk",
    "net.bits.Inv", "net.bits.Other", "net.bits.RdSig", "net.bits.RdWr",
    "net.bits.WrSig", "net.bits.total", "net.messages",
    "net.queueing_cycles", "net.share.Inv", "net.share.Other",
    "net.share.RdSig", "net.share.RdWr", "net.share.WrSig",
    "watchdog.checks", "watchdog.rescues", "watchdog.verdict",
    };
    const KeySet replay = {"analysis.chunks", "sc_verifier.chunks",
                           "sc_verifier.errors", "sc_verifier.reads",
                           "sc_verifier.verified"};
    const KeySet axiomatic_race = {
        "analysis.checked_accesses", "analysis.chunks",
        "analysis.edges_co",         "analysis.edges_fr",
        "analysis.edges_po",         "analysis.edges_rf",
        "analysis.graph_edges",      "analysis.graph_nodes",
        "analysis.races",            "analysis.racy_addrs",
        "analysis.sc_cycles",        "analysis.sc_ok",
        "analysis.sync_ops",         "analysis.unmatched_reads",
    };
    EXPECT_EQ(base.size(), 97u);
    EXPECT_EQ(statKeys({}), base);
    EXPECT_EQ(statKeys({"--check", "replay"}), base + replay);
    EXPECT_EQ(statKeys({"--check", "axiomatic,race"}),
              base + axiomatic_race);
    EXPECT_EQ(statKeys({"--check", "axiomatic,race,replay"}),
              base + axiomatic_race + replay);
}

} // namespace
} // namespace bulksc
