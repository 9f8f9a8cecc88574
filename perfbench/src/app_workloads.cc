/**
 * @file
 * app-ocean and app-faulted: the ROADMAP's reference run, fault-free
 * and under the EXPERIMENTS.md fault mix.
 */

#include <map>

#include "probes.hh"
#include "spans.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"
#include "workloads.hh"

namespace perfbench {

using namespace bulksc;

namespace {

constexpr unsigned kProcs = 8;
constexpr std::uint64_t kInstrs = 200'000;
constexpr std::size_t kFaultSeeds = 8; //!< app-faulted ops per pass
/** Passes with the oracle off that a traced app-faulted run times to
 *  measure the oracle's host cost (analysis.host_s). */
constexpr int kOracleOffRuns = 3;
/** app-faulted's trace seed-salt, fixed: under faults every input bit
 *  changes a run's outcome, so --seed would make ok_frac a coin toss. */
constexpr std::uint64_t kFaultedSalt = 0;
const char *const kFaultMix =
    "net.drop=0.05,net.dup=0.02,net.delay=0.2:1:50,arb.req_loss=0.02,"
    "arb.grant_loss=0.02,dir.nack=0.05";

std::vector<Trace>
oceanTraces(std::uint64_t salt)
{
    return generateTraces(profileByName("ocean"), kProcs, kInstrs, salt);
}

/** generateTraces, timed into @p t. */
std::vector<Trace>
timedTraces(std::uint64_t salt, LayerTimes &t, std::uint64_t op)
{
    Span span("workload.generateTraces", op);
    std::vector<Trace> traces = oceanTraces(salt);
    t.genS += span.stop();
    for (const Trace &tr : traces)
        t.traceOps += static_cast<double>(tr.ops.size());
    return traces;
}

/** exec_time of fault-free RC on the same trace over @p bsc_exec. */
double
rcOverBsc(std::uint64_t salt, double bsc_exec)
{
    System sys(toolMachine(Model::RC), oceanTraces(salt));
    Results res = sys.run(kTickCeiling);
    return res.completed && bsc_exec > 0
               ? static_cast<double>(res.execTime) / bsc_exec
               : 0;
}

/** The signature and directory probe on one op's traces: per-call
 *  metrics into @p extra, self seconds per layer into @p self. */
void
probe(std::uint64_t salt, const MachineConfig &cfg,
      std::vector<Metric> &extra, std::map<std::string, double> &self)
{
    ProbeTotals tot;
    self = probeSelfSeconds(1, [&] {
        Span span("bench.probe");
        probeLayers(oceanTraces(salt), cfg, tot);
    });
    extra = tot.metrics();
}

} // namespace

Report
runAppOcean(const Args &a)
{
    Report rep;
    const MachineConfig cfg = toolMachine(Model::BSCdypvt);
    auto pass = [&](std::size_t i, unsigned) {
        PassResult p;
        Span op("bench.op", i);
        std::vector<Trace> traces = timedTraces(a.seed, p.times, i);
        Span build("system.System", i);
        System sys(cfg, std::move(traces));
        p.times.buildMs.push_back(1e3 * build.stop());
        Span run("system.run", i);
        Results res = sys.run(kTickCeiling);
        p.wallS = p.times.runS = run.stop();
        p.times.opMs.push_back(1e3 * p.wallS);
        p.setupS = p.times.genS + p.times.buildMs.back() / 1e3;
        p.counts.add(res, sys.eventQueue().eventsFired());
        p.ops.push_back(judgeRun(res, sys.numProcs(), false));
        return p;
    };
    auto label = [&](std::size_t) {
        return "ocean BSCdypvt, trace salt " + std::to_string(a.seed);
    };
    Passes ps = measurePasses(a, a.jobs, 3, pass, label, rep);

    if (!a.trace) {
        double speedup =
            rcOverBsc(a.seed, ps.untraced.front().ops.front().execTime);
        rep.metrics = endToEndMetrics(ps, rep, speedup, 1);
        return rep;
    }
    LayerCounts c;
    LayerTimes t;
    tracedLayers(ps, c, t);
    t.opMs.clear(); // one run per pass: no pooled ops (sweep.point_ms)
    std::vector<Metric> extra;
    std::map<std::string, double> self;
    probe(a.seed, cfg, extra, self);
    rep.metrics = layerMetrics(ps, c, t, extra, self);
    return rep;
}

Report
runAppFaulted(const Args &a)
{
    Report rep;
    auto machine = [&](std::size_t j) {
        MachineConfig m = toolMachine(Model::BSCdypvt);
        m.faults = kFaultMix;
        m.faultSeed = a.faultSeed + j;
        return m;
    };

    // Every op runs on the same traces; each pass samples the set-up
    // one op needs: trace generation and one System.
    const std::vector<Trace> traces = oceanTraces(kFaultedSalt);
    constexpr unsigned kSetupBatches = 4;

    const std::size_t n = kFaultSeeds;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(a.jobs, n));
    bool oracle = true;
    auto pass = [&](std::size_t, unsigned) {
        PassResult p;
        p.setupS = timeSetup(kSetupBatches, 1, [&] {
            System sys(machine(0), timedTraces(kFaultedSalt, p.times, 0));
        });
        p.times.genS /= kSetupBatches;
        p.times.traceOps /= kSetupBatches;
        p.ops.resize(n);
        std::vector<LayerCounts> counts(n);
        std::vector<double> run(n);
        p.times.buildMs.resize(n);
        p.times.opMs.resize(n);
        Clock::time_point t0 = Clock::now();
        runPool(n, workers, [&](std::size_t j) {
            Span op("bench.op", j);
            Span build("system.System", j);
            System sys(machine(j), traces);
            p.times.buildMs[j] = 1e3 * build.stop();
            if (oracle)
                sys.enableAnalysis(true, false);
            Span span("system.run", j);
            Results res = sys.run(kTickCeiling);
            run[j] = span.stop();
            counts[j].add(res, sys.eventQueue().eventsFired());
            p.ops[j] = judgeRun(res, sys.numProcs(), oracle);
            p.times.opMs[j] = 1e3 * op.stop();
        });
        p.wallS = secondsBetween(t0, Clock::now());
        double busy = 0;
        for (std::size_t j = 0; j < n; ++j) {
            p.counts.add(counts[j]);
            p.times.runS += run[j];
            busy += p.times.opMs[j] / 1e3;
        }
        p.times.busyFrac = busy / (workers * p.wallS);
        return p;
    };
    auto label = [&](std::size_t j) {
        return "fault seed " + std::to_string(a.faultSeed + j);
    };
    Passes ps = measurePasses(a, 1, 2, pass, label, rep);

    if (!a.trace) {
        // Modelled slowdown against fault-free RC, over the ops that
        // passed (a failed op's cycles are not a run's length).
        std::vector<double> exec;
        for (const OpOutcome &o : ps.untraced.front().ops) {
            if (o.ok)
                exec.push_back(o.execTime);
        }
        double speedup = rcOverBsc(kFaultedSalt, median(exec));
        rep.metrics = endToEndMetrics(ps, rep, speedup, workers);
        return rep;
    }
    LayerCounts c;
    LayerTimes t;
    tracedLayers(ps, c, t);
    std::vector<Metric> extra;
    std::map<std::string, double> self;
    probe(kFaultedSalt, machine(0), extra, self);

    // The oracle's host cost: the same ops with the analysis engine
    // off, untraced, against the untraced passes.
    SpanRecorder::instance().setEnabled(false);
    oracle = false;
    std::vector<double> with, without;
    for (const PassResult &p : ps.untraced)
        with.push_back(p.times.runS);
    for (int k = 0; k < kOracleOffRuns; ++k)
        without.push_back(pass(0, 0).times.runS);
    extra.push_back(
        {"analysis.host_s", median(with) - median(without), "s"});
    rep.metrics = layerMetrics(ps, c, t, extra, self);
    return rep;
}

} // namespace perfbench
