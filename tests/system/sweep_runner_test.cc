/**
 * @file
 * Unit tests for the point executor and the parameter-sweep runner:
 * executor results equal to direct System runs, in point order for any
 * worker count; grid enumeration, validation, per-point seed
 * derivation, and the byte-identical output guarantee across worker
 * counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "system/sweep_runner.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"

namespace bulksc {
namespace {

SimOptions
tinyBase()
{
    SimOptions base;
    base.instrs = 1200; // keep each grid point fast
    return base;
}

/** Run the grid with @p workers and return the JSONL output. */
std::string
runToString(SweepRunner &runner, unsigned workers,
            std::size_t *failed = nullptr)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    std::size_t nfail = runner.run(workers, f);
    if (failed)
        *failed = nfail;
    std::fseek(f, 0, SEEK_END);
    long len = std::ftell(f);
    std::rewind(f);
    std::string out(static_cast<std::size_t>(len), '\0');
    EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
    std::fclose(f);
    return out;
}

TEST(SweepRunner, GridIsRowMajorLastAxisFastest)
{
    SweepRunner runner(tinyBase(),
                       {{"procs", {"2", "4"}}, {"chunk", {"100",
                                                          "200"}}});
    ASSERT_EQ(runner.numPoints(), 4u);
    using KV = std::vector<std::pair<std::string, std::string>>;
    EXPECT_EQ(runner.pointSettings(0),
              (KV{{"procs", "2"}, {"chunk", "100"}}));
    EXPECT_EQ(runner.pointSettings(1),
              (KV{{"procs", "2"}, {"chunk", "200"}}));
    EXPECT_EQ(runner.pointSettings(2),
              (KV{{"procs", "4"}, {"chunk", "100"}}));
    EXPECT_EQ(runner.pointSettings(3),
              (KV{{"procs", "4"}, {"chunk", "200"}}));
}

TEST(SweepRunner, ValidateRejectsUnknownAxis)
{
    SweepRunner runner(tinyBase(), {{"frobnicate", {"1"}}});
    std::string err;
    EXPECT_FALSE(runner.validateGrid(err));
    EXPECT_NE(err.find("frobnicate"), std::string::npos) << err;
}

TEST(SweepRunner, ValidateRejectsEmptyAxis)
{
    SweepRunner runner(tinyBase(), {{"procs", {}}});
    std::string err;
    EXPECT_FALSE(runner.validateGrid(err));
    EXPECT_NE(err.find("procs"), std::string::npos) << err;
}

TEST(SweepRunner, ValidateRejectsInvalidPoint)
{
    SweepRunner runner(tinyBase(), {{"procs", {"2", "0"}}});
    std::string err;
    EXPECT_FALSE(runner.validateGrid(err));
    EXPECT_NE(err.find("point"), std::string::npos) << err;
}

TEST(SweepRunner, PointsGetDistinctStableSeeds)
{
    SweepRunner runner(tinyBase(), {{"chunk", {"100", "200"}}});
    SimOptions p0, p1, p0again;
    std::string err;
    ASSERT_TRUE(runner.pointOptions(0, p0, err)) << err;
    ASSERT_TRUE(runner.pointOptions(1, p1, err)) << err;
    ASSERT_TRUE(runner.pointOptions(0, p0again, err)) << err;
    EXPECT_NE(p0.seedSalt, p1.seedSalt);
    EXPECT_EQ(p0.seedSalt, p0again.seedSalt);
}

TEST(SweepRunner, ExplicitSeedSaltAxisIsNotRederived)
{
    SweepRunner runner(tinyBase(), {{"seed-salt", {"3", "8"}}});
    SimOptions p0, p1;
    std::string err;
    ASSERT_TRUE(runner.pointOptions(0, p0, err)) << err;
    ASSERT_TRUE(runner.pointOptions(1, p1, err)) << err;
    EXPECT_EQ(p0.seedSalt, 3u);
    EXPECT_EQ(p1.seedSalt, 8u);
}

TEST(SweepRunner, OutputIsByteIdenticalAcrossWorkerCounts)
{
    std::vector<SweepAxis> axes{{"procs", {"2", "4"}},
                                {"chunk", {"400", "800"}}};
    std::string err;
    SweepRunner serial(tinyBase(), axes);
    ASSERT_TRUE(serial.validateGrid(err)) << err;
    std::size_t fail1 = 0, fail8 = 0;
    std::string out1 = runToString(serial, 1, &fail1);
    SweepRunner parallel(tinyBase(), axes);
    std::string out8 = runToString(parallel, 8, &fail8);
    EXPECT_EQ(fail1, 0u);
    EXPECT_EQ(fail8, 0u);
    EXPECT_FALSE(out1.empty());
    EXPECT_EQ(out1, out8);
    // One record per point, point index leading.
    EXPECT_EQ(std::count(out1.begin(), out1.end(), '\n'), 4);
    EXPECT_EQ(out1.rfind("{\"point\": 0", 0), 0u);
}

TEST(SweepRunner, FailedPointEmitsErrorRecordAndCounts)
{
    SimOptions base = tinyBase();
    base.app = "nosuchapp";
    SweepRunner runner(base, {{"chunk", {"100"}}});
    std::size_t failed = 0;
    std::string out = runToString(runner, 1, &failed);
    EXPECT_EQ(failed, 1u);
    EXPECT_NE(out.find("\"error\""), std::string::npos) << out;
    EXPECT_NE(out.find("nosuchapp"), std::string::npos) << out;
}

/**
 * One point of each table of the paper's evaluation, short: each sets
 * what its table varies on top of the tools' defaults.
 */
std::vector<SimOptions>
evaluationPoints()
{
    std::vector<SimOptions> pts;
    auto point = [&](const char *app, Model m) -> SimOptions & {
        SimOptions o;
        o.app = app;
        o.instrs = 3'000;
        o.cfg.model = m;
        pts.push_back(o);
        return pts.back();
    };
    point("ocean", Model::SC); // Figure 9
    point("lu", Model::BSCdypvt).cfg.bulk.chunkSize = 1000; // Figure 10
    point("radix", Model::BSCexact); // Table 3
    point("barnes", Model::BSCdypvt); // Table 4
    point("cholesky", Model::RC); // Figure 11
    point("fft", Model::BSCdypvt).cfg.bulk.rsigOpt = false; // RSig
    SimOptions &arb = point("ocean", Model::BSCdypvt); // arbiter
    arb.cfg.numArbiters = 4;
    arb.cfg.mem.numDirectories = 4;
    SimOptions &sig = point("sjbb2k", Model::BSCdypvt); // signature
    sig.cfg.bulk.sigCfg.totalBits = 512;
    sig.cfg.bulk.sigCfg.numBanks = 2;
    point("barnes", Model::BSCdypvt).cfg.numProcs = 16; // scalability
    point("sweb2005", Model::BSCdypvt).cfg.mem.dirCacheEntries = 4096;
    point("water-sp", Model::BSCdypvt).cfg.bulk.maxLiveChunks = 1;
    point("raytrace", Model::BSCdypvt).cfg.bulk.endChunkOnSync = true;
    return pts;
}

/** Everything a point delivers, in delivery order. */
std::vector<std::pair<std::size_t, Results>>
deliverAll(const std::vector<SimOptions> &pts, unsigned workers)
{
    std::vector<std::pair<std::size_t, Results>> out;
    runPoints(pts, workers, [&](std::size_t idx, PointResult &pr) {
        EXPECT_EQ(pr.error, "") << "point " << idx;
        out.emplace_back(idx, std::move(pr.results));
    });
    return out;
}

TEST(PointExecutor, ResultsEqualDirectSystemRuns)
{
    const std::vector<SimOptions> pts = evaluationPoints();
    auto got = deliverAll(pts, 4);
    ASSERT_EQ(got.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const SimOptions &o = pts[i];
        System sys(o.cfg, generateTraces(profileByName(o.app),
                                         o.cfg.numProcs, o.instrs,
                                         o.seedSalt));
        Results want = sys.run();
        const Results &r = got[i].second;
        EXPECT_EQ(got[i].first, i);
        EXPECT_TRUE(r.completed) << "point " << i;
        EXPECT_EQ(r.execTime, want.execTime) << "point " << i;
        EXPECT_EQ(r.stats.entries(), want.stats.entries())
            << "point " << i;
    }
    // The 4-arbiter and the 16-processor points really ran as such.
    EXPECT_TRUE(got[6].second.stats.has("arb.multi_range_commits"));
    EXPECT_EQ(got[8].second.loadResults.size(), 16u);
}

TEST(PointExecutor, DeliveryIsInPointOrderForAnyWorkerCount)
{
    const std::vector<SimOptions> pts = evaluationPoints();
    auto serial = deliverAll(pts, 1);
    auto parallel = deliverAll(pts, 4);
    ASSERT_EQ(serial.size(), pts.size());
    ASSERT_EQ(parallel.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(serial[i].first, i);
        EXPECT_EQ(parallel[i].first, i);
        EXPECT_EQ(serial[i].second.execTime, parallel[i].second.execTime)
            << "point " << i;
        EXPECT_EQ(serial[i].second.stats.entries(),
                  parallel[i].second.stats.entries())
            << "point " << i;
    }
}

} // namespace
} // namespace bulksc
