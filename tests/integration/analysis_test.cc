/**
 * @file
 * End-to-end tests of the analysis engine: the axiomatic SC checker
 * passes on correct executions of full workloads and litmus programs,
 * agrees with the serial-replay verifier, catches the arbiter
 * fault-injection knob with a reported po ∪ rf ∪ co ∪ fr cycle, and
 * the happens-before race detector separates synchronized from
 * unsynchronized sharing. Pins the axiomatic checker's counters,
 * verdicts and rendered cycles on full-scale runs, so a host-side
 * rewrite of the oracle must leave them unchanged.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "system/sim_options.hh"
#include "system/system.hh"
#include "workload/generator.hh"
#include "workload/litmus.hh"

namespace bulksc {
namespace {

class BulkModels : public ::testing::TestWithParam<Model>
{};

TEST_P(BulkModels, DefaultWorkloadsPassTheAxiomaticChecker)
{
    for (const char *app : {"barnes", "ocean", "radiosity", "radix"}) {
        MachineConfig cfg;
        cfg.model = GetParam();
        cfg.numProcs = 4;
        auto traces =
            generateTraces(profileByName(app), 4, 10'000);
        System sys(std::move(cfg), std::move(traces));
        sys.enableAnalysis();
        Results r = sys.run(400'000'000);
        ASSERT_TRUE(r.completed) << app;
        const AnalysisEngine *eng = sys.analysis();
        ASSERT_NE(eng, nullptr);
        EXPECT_TRUE(eng->scOk()) << app;
        EXPECT_GT(eng->chunksObserved(), 0u) << app;
        EXPECT_EQ(eng->graph()->unmatchedReads(), 0u) << app;
        // The run exercised real communication: rf edges exist.
        EXPECT_GT(eng->graph()->edgeCount(
                      MemOrderGraph::EdgeKind::Rf),
                  0u)
            << app;
        EXPECT_EQ(r.stats.get("analysis.sc_ok"), 1.0) << app;
        EXPECT_EQ(r.stats.get("analysis.sc_cycles"), 0.0) << app;
    }
}

TEST_P(BulkModels, AxiomaticCheckerAgreesWithReplayVerifier)
{
    AppProfile app = profileByName("radiosity");
    app.trackAllValues = true;
    MachineConfig cfg;
    cfg.model = GetParam();
    cfg.numProcs = 4;
    auto traces = generateTraces(app, 4, 10'000);
    System sys(std::move(cfg), std::move(traces));
    sys.enableAnalysis(true, false, true);
    Results r = sys.run(400'000'000);
    ASSERT_TRUE(r.completed);
    // Both checkers observe the same committed chunks and agree the
    // execution is SC.
    ASSERT_NE(sys.analysis(), nullptr);
    const ScVerifier *rep = sys.analysis()->replay();
    ASSERT_NE(rep, nullptr);
    EXPECT_TRUE(rep->verified());
    EXPECT_TRUE(sys.analysis()->graph()->ok());
    EXPECT_TRUE(sys.analysis()->scOk());
    EXPECT_EQ(rep->chunksChecked(), sys.analysis()->chunksObserved());
}

INSTANTIATE_TEST_SUITE_P(Models, BulkModels,
                         ::testing::Values(Model::BSCbase,
                                           Model::BSCdypvt,
                                           Model::BSCstpvt,
                                           Model::BSCexact),
                         [](const auto &info) {
                             std::string n = modelName(info.param);
                             for (auto &c : n) {
                                 if (!isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

/**
 * The negative test the whole subsystem exists for: disable the
 * arbiter's disambiguation (every colliding request is granted) and
 * run store buffering with upfront R signatures so the colliding
 * window is actually exercised. The machine then commits the
 * forbidden Dekker outcome — and the checker must catch it as a
 * po ∪ rf ∪ co ∪ fr cycle with full attribution.
 */
TEST(FaultInjection, SkippedDisambiguationIsCaughtAsACycle)
{
    LitmusTest lt = makeStoreBuffering(0);
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    cfg.bulk.rsigOpt = false;
    cfg.faults = "arb.skip_collision=1";
    System sys(cfg, lt.traces);
    sys.enableAnalysis();
    Results r = sys.run(50'000'000);
    ASSERT_TRUE(r.completed);

    // The knob actually fired.
    EXPECT_GT(r.stats.get("arb.fault_injected_grants"), 0.0);

    // The outcome is SC-forbidden...
    EXPECT_FALSE(lt.allowedSC(r.loadResults));

    // ...and the checker reports the cycle.
    const AnalysisEngine *eng = sys.analysis();
    ASSERT_NE(eng, nullptr);
    EXPECT_FALSE(eng->scOk());
    EXPECT_GE(eng->scCycles(), 1u);
    ASSERT_FALSE(eng->graph()->violations().empty());
    const MemOrderGraph::Violation &v =
        eng->graph()->violations().front();
    ASSERT_GE(v.edges.size(), 2u);
    // Store buffering escapes as two fr edges (each reader observed
    // initial memory that the other processor's committed store had
    // overwritten).
    for (const auto &e : v.edges) {
        EXPECT_EQ(e.kind, MemOrderGraph::EdgeKind::Fr);
        EXPECT_NE(e.addr, 0u);
    }
    std::string desc = eng->graph()->describe(v);
    EXPECT_NE(desc.find("-fr(0x"), std::string::npos) << desc;
    EXPECT_EQ(r.stats.get("analysis.sc_ok"), 0.0);
    EXPECT_GE(r.stats.get("analysis.sc_cycles"), 1.0);
}

TEST(FaultInjection, SameConfigurationIsCleanWithoutTheKnob)
{
    LitmusTest lt = makeStoreBuffering(0);
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    cfg.bulk.rsigOpt = false;
    System sys(cfg, lt.traces);
    sys.enableAnalysis();
    Results r = sys.run(50'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.stats.get("arb.fault_injected_grants"), 0.0);
    EXPECT_TRUE(lt.allowedSC(r.loadResults));
    EXPECT_TRUE(sys.analysis()->scOk());
}

TEST(RaceDetection, UnsynchronizedLitmusSharingRaces)
{
    // Store buffering is a deliberate data race: conflicting accesses
    // to x and y with no synchronization at all.
    LitmusTest lt = makeStoreBuffering(0);
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 2;
    System sys(cfg, lt.traces);
    sys.enableAnalysis(true, true);
    Results r = sys.run(50'000'000);
    ASSERT_TRUE(r.completed);
    const AnalysisEngine *eng = sys.analysis();
    EXPECT_GE(eng->raceCount(), 1u);
    EXPECT_FALSE(eng->races()->reports().empty());
    EXPECT_GE(r.stats.get("analysis.races"), 1.0);
    // Chunk atomicity still makes the *execution* SC — the race
    // detector flags the program, not the machine.
    EXPECT_TRUE(eng->scOk());
}

TEST(RaceDetection, LockProtectedSharingIsRaceFree)
{
    // All cross-processor write sharing goes through critical
    // sections: plenty of contended locks, no unsynchronized shared
    // writes, no barriers.
    AppProfile app = profileByName("raytrace");
    app.name = "locked-only";
    app.sharedWritesPer1k = 0;
    app.hotFrac = 0; // hot-line writes bypass locks by design
    app.locksPer1k = 3.0;
    app.numLocks = 8;
    app.barriersPer100k = 0;
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    auto traces = generateTraces(app, 4, 20'000);
    System sys(std::move(cfg), std::move(traces));
    sys.enableAnalysis(true, true);
    Results r = sys.run(400'000'000);
    ASSERT_TRUE(r.completed);
    const AnalysisEngine *eng = sys.analysis();
    // The synchronization edges were really exercised...
    EXPECT_GT(eng->races()->syncOps(), 0u);
    EXPECT_GT(eng->races()->checkedAccesses(), 0u);
    // ...and order every conflicting data access.
    EXPECT_EQ(eng->raceCount(), 0u)
        << eng->races()->describe(eng->races()->reports().front());
    EXPECT_EQ(r.stats.get("analysis.races"), 0.0);
}

TEST(RaceDetection, HotLineSharingIsFlagged)
{
    // The same profile with unsynchronized hot-line writes restored
    // must produce races — the clean result above is not vacuous.
    AppProfile app = profileByName("raytrace");
    app.name = "hot-unsynchronized";
    app.locksPer1k = 0;
    app.hotFrac = 0.9;
    app.hotLines = 4;
    app.sharedWritesPer1k = 20;
    app.barriersPer100k = 0;
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    auto traces = generateTraces(app, 4, 20'000);
    System sys(std::move(cfg), std::move(traces));
    sys.enableAnalysis(true, true);
    Results r = sys.run(400'000'000);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(sys.analysis()->raceCount(), 1u);
    EXPECT_GE(sys.analysis()->races()->racyAddrs(), 1u);
}

TEST(AnalysisStats, AllCountersAreExported)
{
    MachineConfig cfg;
    cfg.model = Model::BSCdypvt;
    cfg.numProcs = 4;
    auto traces =
        generateTraces(profileByName("ocean"), 4, 10'000);
    System sys(std::move(cfg), std::move(traces));
    sys.enableAnalysis(true, true);
    Results r = sys.run(400'000'000);
    ASSERT_TRUE(r.completed);
    for (const char *key :
         {"analysis.chunks", "analysis.sc_ok", "analysis.sc_cycles",
          "analysis.graph_nodes", "analysis.graph_edges",
          "analysis.edges_po", "analysis.edges_rf",
          "analysis.edges_co", "analysis.edges_fr",
          "analysis.unmatched_reads", "analysis.races",
          "analysis.racy_addrs", "analysis.sync_ops",
          "analysis.checked_accesses"}) {
        EXPECT_TRUE(r.stats.has(key)) << key;
    }
    EXPECT_EQ(r.stats.get("analysis.chunks"),
              r.stats.get("analysis.graph_nodes"));
    EXPECT_GT(r.stats.get("analysis.edges_po"), 0.0);
}

/** A `bulksc_sim ARGS --check axiomatic` run, in process. */
struct CliRun
{
    Results res;
    std::vector<std::string> cycles; //!< describe() of each violation
    int exitCode = 0;                //!< as bulksc_sim would return
};

CliRun
runAxiomatic(std::vector<const char *> args)
{
    args.insert(args.end(), {"--check", "axiomatic"});
    SimOptions opts;
    std::string err;
    EXPECT_TRUE(OptionRegistry::instance().parse(
        static_cast<int>(args.size()), args.data(), opts,
        OptionGroup::Sim, err))
        << err;
    EXPECT_TRUE(opts.cfg.validate(err)) << err;
    System sys(opts.cfg, generateTraces(profileByName(opts.app),
                                        opts.cfg.numProcs, opts.instrs,
                                        opts.seedSalt));
    sys.enableAnalysis(true, false, false);
    CliRun run;
    run.res = sys.run();
    const MemOrderGraph &g = *sys.analysis()->graph();
    for (const auto &v : g.violations())
        run.cycles.push_back(g.describe(v));
    // bulksc_sim's exit-code rule, for a run without races or litmus.
    int wd = 0;
    switch (run.res.watchdogVerdict) {
      case WatchdogVerdict::Livelock:
        wd = 10;
        break;
      case WatchdogVerdict::Starvation:
        wd = 11;
        break;
      case WatchdogVerdict::Deadlock:
        wd = 12;
        break;
      default:
        break;
    }
    run.exitCode = !sys.analysis()->scOk() ? 3
                   : wd                   ? wd
                   : run.res.completed    ? 0
                                          : 2;
    return run;
}

/** The analysis.* counters of one run. */
struct AnalysisPin
{
    double chunks, edges, po, rf, co, fr, cycles;
};

void
expectCounters(const Results &r, const AnalysisPin &p)
{
    const StatGroup &s = r.stats;
    EXPECT_EQ(s.get("analysis.chunks"), p.chunks);
    EXPECT_EQ(s.get("analysis.graph_nodes"), p.chunks);
    EXPECT_EQ(s.get("analysis.graph_edges"), p.edges);
    EXPECT_EQ(s.get("analysis.edges_po"), p.po);
    EXPECT_EQ(s.get("analysis.edges_rf"), p.rf);
    EXPECT_EQ(s.get("analysis.edges_co"), p.co);
    EXPECT_EQ(s.get("analysis.edges_fr"), p.fr);
    EXPECT_EQ(s.get("analysis.sc_cycles"), p.cycles);
    EXPECT_EQ(s.get("analysis.sc_ok"), p.cycles == 0 ? 1 : 0);
    EXPECT_EQ(s.get("analysis.unmatched_reads"), 0);
}

TEST(AnalysisPin, CleanRunCountersAreUnchanged)
{
    // bulksc_sim --app APP --check axiomatic (8 processors, 100k
    // instructions each, BSCdypvt).
    CliRun ocean = runAxiomatic({"--app", "ocean"});
    EXPECT_EQ(ocean.exitCode, 0);
    expectCounters(ocean.res, {888, 11318, 880, 3652, 3941, 2845, 0});
    CliRun radix = runAxiomatic({"--app", "radix"});
    EXPECT_EQ(radix.exitCode, 0);
    expectCounters(radix.res, {971, 12892, 963, 4082, 3883, 3964, 0});
}

/** Ocean 8p/200k under the EXPERIMENTS.md fault mix (app-faulted). */
CliRun
runFaulted(const char *fault_seed)
{
    return runAxiomatic(
        {"--app", "ocean", "--procs", "8", "--instrs", "200000",
         "--faults",
         "net.drop=0.05,net.dup=0.02,net.delay=0.2:1:50,"
         "arb.req_loss=0.02,arb.grant_loss=0.02,dir.nack=0.05",
         "--fault-seed", fault_seed});
}

TEST(AnalysisPin, FaultedOceanViolationsAreUnchanged)
{
    CliRun s2 = runFaulted("2");
    EXPECT_EQ(s2.exitCode, 3);
    expectCounters(s2.res, {1810, 28161, 1802, 9441, 9363, 7555, 1});
    ASSERT_EQ(s2.cycles.size(), 1u);
    EXPECT_EQ(s2.cycles[0], "cpu5#123 -fr(0xf8000020)-> cpu0#121 "
                            "-rf(0xf8000020)-> cpu5#123");

    CliRun s6 = runFaulted("6");
    EXPECT_EQ(s6.exitCode, 3);
    expectCounters(s6.res, {1800, 27984, 1792, 9370, 9318, 7504, 2});
    ASSERT_EQ(s6.cycles.size(), 2u);
    EXPECT_EQ(s6.cycles[0], "cpu1#241 -fr(0xf8000020)-> cpu0#197 "
                            "-rf(0xf8000020)-> cpu1#241");
    EXPECT_EQ(s6.cycles[1], "cpu7#213 -fr(0xf8000020)-> cpu0#197 "
                            "-rf(0xf8000020)-> cpu7#213");
}

} // namespace
} // namespace bulksc
