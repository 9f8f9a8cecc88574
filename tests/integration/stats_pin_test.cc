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
 */

#include <gtest/gtest.h>

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
    System sys(opts.cfg,
               generateTraces(profileByName(opts.app), opts.cfg.numProcs,
                              opts.instrs, opts.seedSalt));
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

} // namespace
} // namespace bulksc
