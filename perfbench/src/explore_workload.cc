/**
 * @file
 * explore-litmus: an exhaustive Explorer::explore of a litmus test
 * whose message delays are choice points, on one job, with POR,
 * fingerprint pruning and the axiomatic oracle on.
 *
 * Explorer::runOne owns each schedule's System, so the System-level
 * layers are measured on a probe: the default schedule (empty forced
 * prefix) rebuilt from outside with the same controller and oracle.
 */

#include <map>
#include <memory>

#include "explore/explorer.hh"
#include "probes.hh"
#include "sim/rng.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

using namespace bulksc;

namespace {

const char *const kLitmus = "sb";
constexpr unsigned kDelay = 4; //!< each delivery latency: a choice in 0..4

LitmusTest
litmus(const Args &a)
{
    LitmusTest lt;
    litmusByName(kLitmus, a.litmusVariant, lt);
    return lt;
}

/** exec_time of the litmus test under @p model, no faults, no
 *  controller. */
double
litmusExec(const Args &a, Model model)
{
    System sys(toolMachine(model), litmus(a).traces);
    Results res = sys.run(kTickCeiling);
    return res.completed ? static_cast<double>(res.execTime) : 0;
}

} // namespace

Report
runExploreLitmus(const Args &a)
{
    Report rep;
    const LitmusTest lt = litmus(a);
    const auto procs = static_cast<unsigned>(lt.traces.size());
    double instrs = 0; // what every completed schedule retires
    for (const Trace &t : lt.traces)
        instrs += static_cast<double>(t.totalInstrs());

    ExploreConfig ec;
    ec.machine = toolMachine(Model::BSCdypvt);
    ec.machine.faults = "net.delay=0:" + std::to_string(kDelay);
    ec.litmusName = kLitmus;
    ec.litmusVariant = a.litmusVariant;
    ec.jobs = 1;

    // Set-up: constructing an explorer and the machine every schedule
    // starts from (what a checkpoint/restore explorer would build
    // once). Each pass samples it. Every stream gets its own explorer
    // (onSchedule is per explorer).
    auto setup = [&] {
        Explorer e(ec);
        System root(ec.machine, litmus(a).traces);
    };
    std::vector<std::unique_ptr<Explorer>> ex(a.jobs);
    for (auto &e : ex)
        e = std::make_unique<Explorer>(ec);

    std::vector<ExploreResult> last(a.jobs);
    auto pass = [&](std::size_t i, unsigned stream) {
        PassResult p;
        p.setupS = timeSetup(10, 10, setup);
        Clock::time_point prev;
        ex[stream]->onSchedule = [&](std::uint64_t idx, const Schedule &,
                                     const RunOutcome &out) {
            Clock::time_point now = Clock::now();
            SpanRecorder::instance().record("explore.schedule", idx, prev,
                                            now);
            p.times.opMs.push_back(1e3 * secondsBetween(prev, now));
            prev = now;
            OpOutcome o;
            o.ok = out.verdict == ExploreVerdict::OK;
            if (!o.ok)
                o.failure = std::string(exploreVerdictName(out.verdict)) +
                            ": " + out.detail;
            o.retired = instrs;
            o.execTime = static_cast<double>(out.execTime);
            o.procs = procs;
            std::uint64_t h = mix64(idx ^ (std::uint64_t{procs} << 32));
            h = mix64(h ^ static_cast<std::uint64_t>(out.verdict) ^
                      (out.execTime << 8));
            for (const DecisionRecord &d : out.trace)
                h = mix64(h ^ (std::uint64_t{d.chosen} << 32) ^
                          d.numOptions ^
                          (static_cast<std::uint64_t>(d.kind) << 24));
            o.digest = h;
            p.ops.push_back(o);
        };
        Span span("explore.explore", i);
        prev = Clock::now();
        const ExploreResult &r = last[stream] = ex[stream]->explore();
        p.wallS = span.stop();
        if (!r.exhaustive || r.verdict != ExploreVerdict::OK) {
            OpOutcome o;
            o.failure = std::string("exploration ended ") +
                        exploreVerdictName(r.verdict) +
                        (r.exhaustive ? "" : ", not exhaustive");
            p.ops.push_back(o);
        }
        return p;
    };
    auto label = [&](std::size_t j) {
        return std::string(kLitmus) + " variant " +
               std::to_string(a.litmusVariant) + " schedule " +
               std::to_string(j);
    };
    Passes ps = measurePasses(a, a.jobs, 2, pass, label, rep);

    // The probe: the default schedule, rebuilt outside the explorer.
    LayerCounts c;
    LayerTimes t;
    auto probe = [&] {
        Span op("bench.probe");
        RunController ctrl(Schedule{}, ec.por); // outlives the System
        Span g("workload.litmus");
        LitmusTest l = litmus(a);
        t.genS += g.stop();
        t.traceOps = 0;
        for (const Trace &tr : l.traces)
            t.traceOps += static_cast<double>(tr.ops.size());
        Span build("system.System");
        System sys(ec.machine, std::move(l.traces));
        t.buildMs.push_back(1e3 * build.stop());
        ctrl.setFingerprintFn([&sys] { return sys.stateFingerprint(); });
        sys.setScheduleController(&ctrl);
        sys.enableAnalysis(true, false);
        Span run("system.run");
        Results res = sys.run(ec.tickLimit);
        t.runS += run.stop();
        c = LayerCounts{};
        c.add(res, sys.eventQueue().eventsFired());
        return res;
    };

    if (!a.trace) {
        Results res = probe();
        if (res.stats.get("cpu.retired_instrs") != instrs)
            rep.problems.push_back(
                "the default schedule retired a different number of "
                "instructions than the litmus traces hold");
        double rc = litmusExec(a, Model::RC);
        double bsc = litmusExec(a, Model::BSCdypvt);
        rep.metrics = endToEndMetrics(ps, rep, bsc > 0 ? rc / bsc : 0, 1);
        return rep;
    }
    const int kProbes = 20;
    std::map<std::string, double> self = probeSelfSeconds(kProbes, [&] {
        for (int k = 0; k < kProbes; ++k)
            probe();
    });
    t.genS /= kProbes;
    t.runS /= kProbes;

    ProbeTotals tot;
    std::map<std::string, double> replay = probeSelfSeconds(1, [&] {
        Span span("bench.probe");
        probeLayers(litmus(a).traces, ec.machine, tot);
    });
    self.insert(replay.begin(), replay.end());
    std::vector<Metric> extra = tot.metrics();
    std::vector<double> ms;
    for (const PassResult &p : ps.traced)
        ms.insert(ms.end(), p.times.opMs.begin(), p.times.opMs.end());
    const ExploreResult &r = last[0];
    extra.push_back({"explore.schedules",
                     static_cast<double>(r.schedulesRun), "count"});
    extra.push_back(
        {"explore.pruned_por", static_cast<double>(r.prunedPor), "count"});
    extra.push_back({"explore.pruned_fp",
                     static_cast<double>(r.prunedFingerprint), "count"});
    extra.push_back({"explore.schedule_ms.p50", percentile(ms, 50), "ms"});
    extra.push_back({"explore.schedule_ms.p90", percentile(ms, 90), "ms"});

    // The oracle's host cost: the same exploration without it, on as
    // many streams as the measured passes.
    SpanRecorder::instance().setEnabled(false);
    ExploreConfig plain = ec;
    plain.checkAxiomatic = false;
    std::vector<double> with, without(a.jobs);
    for (const PassResult &p : ps.untraced)
        with.push_back(p.wallS);
    runPool(a.jobs, a.jobs, [&](std::size_t k) {
        Explorer plainEx(plain);
        Clock::time_point t0 = Clock::now();
        plainEx.explore();
        without[k] = secondsBetween(t0, Clock::now());
    });
    extra.push_back(
        {"analysis.host_s", median(with) - median(without), "s"});
    rep.metrics = layerMetrics(ps, c, t, extra, self);
    return rep;
}

} // namespace perfbench
