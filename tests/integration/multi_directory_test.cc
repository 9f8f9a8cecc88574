/**
 * @file
 * Multi-directory-module integration: line interleaving across
 * modules, W signatures fanning out to multiple directories, per-
 * module read bouncing, and the gradual re-enable property the paper
 * highlights ("different directory modules re-enable access at
 * different times", Section 3.2.2).
 */

#include <gtest/gtest.h>

#include "system/system.hh"
#include "workload/generator.hh"

namespace bulksc {
namespace {

Op
load(Addr a, std::uint32_t gap = 1)
{
    Op op;
    op.type = OpType::Load;
    op.addr = a;
    op.gap = gap;
    op.tracked = true;
    return op;
}

Op
store(Addr a, std::uint64_t v, std::uint32_t gap = 1)
{
    Op op;
    op.type = OpType::Store;
    op.addr = a;
    op.storeValue = v;
    op.gap = gap;
    op.tracked = true;
    return op;
}

Trace
makeTrace(std::vector<Op> ops)
{
    Trace t;
    t.ops = std::move(ops);
    t.finalize();
    return t;
}

TEST(MultiDirectory, LinesInterleaveAcrossModules)
{
    EventQueue eq;
    FaultPlane faults;
    Network net(eq, NetworkConfig{});
    MemParams p;
    p.numDirectories = 4;
    ReliableChannel chan(eq, net, faults, ChannelParams{}, p.numProcs,
                         p.numDirectories);
    MemorySystem mem(eq, chan, p);
    EXPECT_EQ(mem.numDirs(), 4u);
    // 32 KB (1024-line) granules interleave across the modules.
    EXPECT_EQ(mem.dirOf(0), 0u);
    EXPECT_EQ(mem.dirOf(1023), 0u);
    EXPECT_EQ(mem.dirOf(1024), 1u);
    EXPECT_EQ(mem.dirOf(7 * 1024), 3u);
}

TEST(MultiDirectory, CommitSpanningModulesCompletes)
{
    // One chunk writes lines homed at all four modules; commit must
    // fan W out to each and still complete, and a sharer at each
    // module must be invalidated.
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    cfg.mem.numDirectories = 4;

    std::vector<Op> p0;
    std::vector<Op> p1;
    for (unsigned d = 0; d < 4; ++d) {
        // One line per 32 KB granule => one per directory module.
        Addr a = 0x9000'0000 + Addr{d} * 1024 * 32;
        p1.push_back(load(a, 2)); // sharer copies
    }
    p1.push_back(load(0x1000, 6000));
    for (unsigned d = 0; d < 4; ++d)
        p0.push_back(store(0x9000'0000 + Addr{d} * 1024 * 32, d, 50));

    System sys(cfg, {makeTrace(p0), makeTrace(p1)});
    Results r = sys.run(50'000'000);
    ASSERT_TRUE(r.completed);
    // W fanned out through every module: the sharer was sent W once
    // per module (and then squashed, re-reading the new values).
    EXPECT_GE(r.stats.get("bulk.inval_nodes_total"), 4.0);
    EXPECT_GE(sys.processor(1).squashes(), 1u);
    for (unsigned d = 0; d < 4; ++d)
        EXPECT_EQ(sys.memory().readValue(0x9000'0000 + Addr{d} * 1024 * 32),
                  d);
}

TEST(MultiDirectory, WorkloadsRunOnTwoAndFourModules)
{
    for (unsigned dirs : {2u, 4u}) {
        MachineConfig cfg;
        cfg.mem.numDirectories = dirs;
        Results r = runWorkload(Model::BSCdypvt,
                                profileByName("ocean"), 8, 10'000,
                                &cfg);
        EXPECT_TRUE(r.completed) << dirs << " dirs";
        EXPECT_GT(r.stats.get("bulk.commits"), 0.0);
    }
}

TEST(MultiDirectory, VerifiedSerializableAcrossModules)
{
    AppProfile app = profileByName("sjbb2k");
    app.trackAllValues = true;
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 8;
    cfg.mem.numDirectories = 4;
    cfg.numArbiters = 4;
    auto traces = generateTraces(app, 8, 10'000);
    System sys(std::move(cfg), std::move(traces));
    sys.enableScVerification();
    Results r = sys.run(200'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.stats.get("sc_verifier.verified"), 1.0);
    if (sys.scVerifier() && !sys.scVerifier()->verified()) {
        for (const std::string &e : sys.scVerifier()->errors())
            ADD_FAILURE() << e;
    }
}

TEST(MultiDirectory, BaselinesUnaffectedByModuleCount)
{
    // RC behaviour must be identical no matter how the directory is
    // partitioned (the modules only shard state).
    MachineConfig one;
    one.mem.numDirectories = 1;
    MachineConfig four;
    four.mem.numDirectories = 4;
    Results a = runWorkload(Model::RC, profileByName("lu"), 4, 8'000,
                            &one);
    Results b = runWorkload(Model::RC, profileByName("lu"), 4, 8'000,
                            &four);
    EXPECT_EQ(a.execTime, b.execTime);
}

} // namespace
} // namespace bulksc
