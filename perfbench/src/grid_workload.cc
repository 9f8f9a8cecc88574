/**
 * @file
 * fig9-grid: the paper's Figure 9 grid (13 apps x 8 models) on a
 * fixed worker pool, each point configured by
 * SweepRunner::pointOptions so its seeds match bulksc_batch.
 */

#include <cmath>
#include <map>
#include <memory>

#include "probes.hh"
#include "spans.hh"
#include "system/sweep_runner.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"
#include "workloads.hh"

namespace perfbench {

using namespace bulksc;

namespace {

constexpr std::uint64_t kGridInstrs = 60'000;

/** SPLASH-2 geometric mean of exec_time(RC) / exec_time(BSCdypvt)
 *  over the apps whose two points both passed. */
double
splash2Speedup(const SweepRunner &runner, const std::vector<OpOutcome> &ops)
{
    std::map<std::pair<std::string, std::string>, std::size_t> at;
    for (std::size_t j = 0; j < ops.size(); ++j) {
        auto s = runner.pointSettings(j);
        at[{s[0].second, s[1].second}] = j;
    }
    double logSum = 0;
    unsigned n = 0;
    for (const AppProfile &app : splash2Profiles()) {
        const OpOutcome &rc = ops[at.at({app.name, "RC"})];
        const OpOutcome &bsc = ops[at.at({app.name, "BSCdypvt"})];
        if (rc.ok && bsc.ok) {
            logSum += std::log(rc.execTime / bsc.execTime);
            ++n;
        }
    }
    return n ? std::exp(logSum / n) : 0;
}

} // namespace

Report
runFig9Grid(const Args &a)
{
    Report rep;
    SimOptions base;
    base.cfg.numProcs = 8;
    base.instrs = kGridInstrs;
    base.seedSalt = a.seed;
    std::vector<SweepAxis> axes(2);
    axes[0].name = "app";
    for (const AppProfile &p : allProfiles())
        axes[0].values.push_back(p.name);
    axes[1] = {"model",
               {"SC", "TSO", "RC", "SC++", "BSCbase", "BSCdypvt",
                "BSCstpvt", "BSCexact"}};

    const auto runner = std::make_unique<SweepRunner>(base, axes);
    std::string err;
    if (!runner->validateGrid(err)) {
        rep.problems.push_back("grid does not validate: " + err);
        return rep;
    }

    // Set-up: the driver's, as bulksc_batch does it before running a
    // point: constructing and validating a sweep runner and resolving
    // every point's options. Each pass samples it. (Point 0's traces
    // and System would make it depend on --seed.)
    auto setup = [&] {
        SweepRunner r(base, axes);
        SimOptions o;
        std::string e;
        r.validateGrid(e);
        for (std::size_t j = 0; j < r.numPoints(); ++j)
            r.pointOptions(j, o, e);
    };

    const std::size_t n = runner->numPoints();
    unsigned workers = a.jobs;
    auto pass = [&](std::size_t, unsigned) {
        PassResult p;
        p.setupS = timeSetup(20, 50, setup);
        p.ops.resize(n);
        std::vector<LayerCounts> counts(n);
        std::vector<double> gen(n), run(n), ops(n);
        p.times.buildMs.resize(n);
        p.times.opMs.resize(n);
        Clock::time_point t0 = Clock::now();
        runPool(n, workers, [&](std::size_t j) {
            Span op("bench.op", j);
            SimOptions o;
            std::string err;
            Span opts("sweep.pointOptions", j);
            bool ok = runner->pointOptions(j, o, err);
            opts.stop();
            if (!ok) {
                p.ops[j].failure = p.ops[j].problem =
                    "point options: " + err;
                return;
            }
            Span g("workload.generateTraces", j);
            std::vector<Trace> traces = generateTraces(
                profileByName(o.app), o.cfg.numProcs, o.instrs, o.seedSalt);
            gen[j] = g.stop();
            for (const Trace &t : traces)
                ops[j] += static_cast<double>(t.ops.size());
            Span build("system.System", j);
            System sys(o.cfg, std::move(traces));
            p.times.buildMs[j] = 1e3 * build.stop();
            Span span("system.run", j);
            Results res = sys.run(kTickCeiling);
            run[j] = span.stop();
            counts[j].add(res, sys.eventQueue().eventsFired());
            p.ops[j] = judgeRun(res, sys.numProcs(), false);
            p.times.opMs[j] = 1e3 * op.stop();
        });
        p.wallS = secondsBetween(t0, Clock::now());
        double busy = 0;
        for (std::size_t j = 0; j < n; ++j) {
            p.counts.add(counts[j]);
            p.times.genS += gen[j];
            p.times.traceOps += ops[j];
            p.times.runS += run[j];
            busy += p.times.opMs[j] / 1e3;
        }
        p.times.busyFrac = busy / (std::min<std::size_t>(workers, n) *
                                   p.wallS);
        return p;
    };
    auto label = [&](std::size_t j) {
        auto s = runner->pointSettings(j);
        return s[0].second + " " + s[1].second;
    };
    Passes ps = measurePasses(a, 1, 2, pass, label, rep);

    if (!a.trace) {
        rep.metrics = endToEndMetrics(
            ps, rep, splash2Speedup(*runner, ps.untraced.front().ops),
            workers);
        // Determinism across worker counts: one more pass on 1 worker.
        workers = 1;
        if (foldDigests(pass(0, 0).ops) != rep.digest)
            rep.problems.push_back(
                "1-worker and N-worker passes give different digests");
        return rep;
    }
    LayerCounts c;
    LayerTimes t;
    tracedLayers(ps, c, t);

    // Probe the signature and directory layers on every BSCdypvt
    // point's traces.
    ProbeTotals tot;
    std::map<std::string, double> self = probeSelfSeconds(1, [&] {
        Span span("bench.probe");
        for (std::size_t j = 0; j < n; ++j) {
            SimOptions o;
            std::string err;
            if (!runner->pointOptions(j, o, err) ||
                o.cfg.model != Model::BSCdypvt)
                continue;
            probeLayers(generateTraces(profileByName(o.app),
                                       o.cfg.numProcs, o.instrs,
                                       o.seedSalt),
                        o.cfg, tot);
        }
    });
    rep.metrics = layerMetrics(ps, c, t, tot.metrics(), self);
    return rep;
}

} // namespace perfbench
