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
 * other option at its default (model BSCdypvt). The RC and SC++ rows,
 * and SC++ with a small SHiQ, pin the instruction window's
 * bookkeeping.
 *
 * The sync-engine rows pin the timing of locks and barriers in every
 * model, fault-free and under the EXPERIMENTS.md fault mix.
 *
 * Also pins the set of statistics keys (the numeric `--json` keys)
 * each `--check` selection produces.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cpu/scpp_processor.hh"
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
runCli(std::vector<const char *> args, const char *instrs = "20000")
{
    args.insert(args.end(), {"--procs", "4", "--instrs", instrs});
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
        // Multi-module runs: the commit visits its directory modules
        // in ascending order, whatever order the written lines'
        // container iterates in.
        {{"--app", "radix", "--dirs", "4", "--arbiters", "4"},
         12059, 1284, 603, 14, 2, 28},
        {{"--app", "sjbb2k", "--dirs", "4", "--arbiters", "4"},
         12919, 663, 163, 1, 8, 3},
        {{"--app", "ocean", "--model", "BSCexact"},
         12569, 325, 0, 0, 0, 0},
        {{"--app", "ocean", "--model", "BSCbase"},
         12590, 1790, 525, 34, 4, 4},
        {{"--app", "ocean", "--model", "BSCstpvt"},
         12585, 1444, 189, 15, 2, 1},
        // Without the exact mirror nothing is attributed to aliasing.
        {{"--app", "ocean", "--no-exact-stats"}, 12569, 443, 0, 0, 0, 2},
        // Non-bulk models: no signatures, so only the timing is
        // pinned; it rests on the instruction window's bookkeeping.
        {{"--app", "ocean", "--model", "RC"}, 12537, 0, 0, 0, 0, 0},
        {{"--app", "radix", "--model", "RC"}, 11981, 0, 0, 0, 0, 0},
        {{"--app", "ocean", "--model", "SC++"}, 12537, 0, 0, 0, 0, 0},
        {{"--app", "radix", "--model", "SC++"}, 11981, 0, 0, 0, 0, 0},
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

TEST(StatsPin, ScppShiqStallsAreUnchanged)
{
    // The default 2048-entry SHiQ never fills on these runs; an
    // 8-entry one stalls often, so SC++'s occupancy count (completed
    // ops still in the window) decides the timing.
    struct ShiqPin
    {
        const char *app;
        Tick execTime;
        std::uint64_t stalls;
    };
    for (const ShiqPin &pin : {ShiqPin{"ocean", 13499, 1515},
                               ShiqPin{"radix", 14501, 1835}}) {
        SCOPED_TRACE(pin.app);
        MachineConfig cfg;
        cfg.model = Model::SCpp;
        cfg.numProcs = 4;
        cfg.shiqEntries = 8;
        System sys(cfg, generateTraces(profileByName(pin.app), 4, 20000));
        Results r = sys.run();
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(r.execTime, pin.execTime);
        std::uint64_t stalls = 0;
        for (unsigned p = 0; p < cfg.numProcs; ++p) {
            stalls +=
                dynamic_cast<ScppProcessor &>(sys.processor(p)).shiqStalls();
        }
        EXPECT_EQ(stalls, pin.stalls);
    }
}

/** exec_time and the counters a sync op moves: spin loops charge
 *  cpu.spin_instrs (which cpu.retired_instrs includes), and every poll
 *  that misses, every lock hand-off and every barrier release is
 *  network traffic. */
struct SyncPin
{
    const char *app;
    const char *model;
    double execTime;
    double spinInstrs;
    double retiredInstrs;
    double netMessages;
};

void
expectSyncPin(const Results &r, double exec_time, double spin,
              double retired, double messages)
{
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.stats.get("exec_time"), exec_time);
    EXPECT_EQ(r.stats.get("cpu.spin_instrs"), spin);
    EXPECT_EQ(r.stats.get("cpu.retired_instrs"), retired);
    EXPECT_EQ(r.stats.get("net.messages"), messages);
}

TEST(StatsPin, SyncEngineCountersAreUnchanged)
{
    // At 20k instructions sjbb2k runs its (uncontended) locks and
    // ocean stops short of its first barrier; at 50k ocean's barriers
    // spin in every model.
    const std::vector<SyncPin> at20k = {
        {"sjbb2k", "SC", 19622, 0, 80004, 2288},
        {"sjbb2k", "TSO", 16017, 0, 80004, 2300},
        {"sjbb2k", "RC", 12548, 0, 80004, 2281},
        {"sjbb2k", "SC++", 12548, 0, 80004, 2281},
        {"sjbb2k", "BSCbase", 13187, 0, 80004, 3422},
        {"sjbb2k", "BSCdypvt", 12804, 0, 80004, 2169},
        {"sjbb2k", "BSCstpvt", 12757, 0, 80004, 2971},
        {"sjbb2k", "BSCexact", 12468, 0, 80004, 2043},
        {"ocean", "SC", 19396, 0, 80013, 1533},
        {"ocean", "TSO", 16478, 0, 80013, 1543},
        {"ocean", "RC", 12537, 0, 80013, 1520},
        {"ocean", "SC++", 12537, 0, 80013, 1520},
        {"ocean", "BSCbase", 12590, 0, 80013, 2436},
        {"ocean", "BSCdypvt", 12569, 0, 80013, 1581},
        {"ocean", "BSCstpvt", 12585, 0, 80013, 2151},
        {"ocean", "BSCexact", 12569, 0, 80013, 1553},
    };
    const std::vector<SyncPin> at50k = {
        {"ocean", "SC", 47743, 1176, 201184, 8637},
        {"ocean", "TSO", 40004, 1440, 201448, 8667},
        {"ocean", "RC", 30237, 2312, 202320, 8598},
        {"ocean", "SC++", 30247, 2312, 202320, 8596},
        {"ocean", "BSCbase", 30850, 2072, 202192, 11462},
        {"ocean", "BSCdypvt", 30334, 2224, 202344, 8907},
        {"ocean", "BSCstpvt", 30722, 2224, 202344, 10618},
        {"ocean", "BSCexact", 30511, 2360, 202480, 8804},
    };
    for (const auto &[instrs, pins] :
         {std::pair{"20000", &at20k}, std::pair{"50000", &at50k}}) {
        for (const SyncPin &pin : *pins) {
            SCOPED_TRACE(std::string(pin.app) + " " + pin.model + " " +
                         instrs);
            expectSyncPin(
                runCli({"--app", pin.app, "--model", pin.model}, instrs),
                pin.execTime, pin.spinInstrs, pin.retiredInstrs,
                pin.netMessages);
        }
    }
}

TEST(StatsPin, SyncEngineUnderFaultsIsUnchanged)
{
    // ocean (BSCdypvt) under the app-faulted fault mix: message loss,
    // duplicates, delays and NACKs around the spinning barriers.
    const char *mix = "net.drop=0.05,net.dup=0.02,net.delay=0.2:1:50,"
                      "arb.req_loss=0.02,arb.grant_loss=0.02,dir.nack=0.05";
    struct FaultPin
    {
        const char *seed;
        const char *instrs;
        double execTime;
        double spinInstrs;
        double retiredInstrs;
        double netMessages;
    };
    for (const FaultPin &pin : {FaultPin{"1", "20000", 14750, 0, 80013, 1910},
                                FaultPin{"2", "20000", 13596, 0, 80013, 1658},
                                FaultPin{"1", "50000", 34839, 1000, 201120,
                                         9359},
                                FaultPin{"2", "50000", 33713, 1936, 202056,
                                         9125}}) {
        SCOPED_TRACE(std::string("fault seed ") + pin.seed + " " +
                     pin.instrs);
        expectSyncPin(runCli({"--app", "ocean", "--faults", mix,
                              "--fault-seed", pin.seed},
                             pin.instrs),
                      pin.execTime, pin.spinInstrs, pin.retiredInstrs,
                      pin.netMessages);
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
