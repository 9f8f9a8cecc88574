#include "common.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>

#include <sys/resource.h>

#include "sim/rng.hh"
#include "spans.hh"
#include "system/sim_options.hh"

namespace perfbench {

using namespace bulksc;

namespace {

std::uint64_t
hashString(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

} // namespace

OpOutcome
judgeRun(const Results &res, unsigned procs, bool oracle)
{
    const StatGroup &s = res.stats;
    OpOutcome o;
    o.procs = procs;
    o.retired = s.get("cpu.retired_instrs");
    o.execTime = static_cast<double>(res.execTime);

    if (res.watchdogVerdict != WatchdogVerdict::None)
        o.failure = std::string("watchdog ") +
                    watchdogVerdictName(res.watchdogVerdict);
    else if (!res.completed)
        o.failure = "incomplete at the tick ceiling";
    else if (oracle && s.get("analysis.sc_ok", 0) != 1)
        o.failure = "axiomatic SC violation";
    o.ok = o.failure.empty();

    std::uint64_t h = mix64(0x6f70ULL ^ procs);
    for (const auto &[k, v] : s.entries())
        h = mix64(h ^ hashString(k) ^ mix64(bitsOf(v)));
    h = mix64(h ^ (res.completed ? 1 : 2) ^
              (static_cast<std::uint64_t>(res.watchdogVerdict) << 8));
    for (const auto &proc : res.loadResults) {
        for (std::uint64_t v : proc)
            h = mix64(h ^ v);
    }
    o.digest = h;

    // Output checks every run must pass, failed op or not.
    if (s.get("exec_time", -1) != o.execTime)
        o.problem = "exec_time stat differs from Results::execTime";
    else if (res.completed && (o.execTime <= 0 || o.retired <= 0))
        o.problem = "completed run with no cycles or instructions";
    else if (s.get("model_is_bulk") > 0 &&
             s.get("bulk.squash.true_conflict") +
                     s.get("bulk.squash.false_positive") +
                     s.get("bulk.squash.unattributed") !=
                 s.get("cpu.squashes"))
        o.problem = "squash attribution does not sum to cpu.squashes";
    return o;
}

std::uint64_t
foldDigests(const std::vector<OpOutcome> &ops)
{
    std::uint64_t h = mix64(ops.size());
    for (const OpOutcome &o : ops)
        h = mix64(h ^ o.digest);
    return h;
}

/** The Results::stats counters a traced run reports. */
const char *const kCountedStats[] = {
    "cpu.retired_instrs", "cpu.wasted_instrs",   "cpu.squashes",
    "arb.requests",       "arb.grants",          "bulk.commits",
    "mem.dir_lookups",    "mem.dir_alias_lookups", "mem.l1_misses",
    "mem.bounced_reads",  "net.messages",        "net.bits.total",
    "net.queueing_cycles", "analysis.graph_edges", "bulk.resends",
    "mem.commit_resends", "bulk.resend_give_ups", "watchdog.rescues",
};

void
LayerCounts::add(const Results &res, std::uint64_t events_fired)
{
    const StatGroup &s = res.stats;
    v["sim.events"] += static_cast<double>(events_fired);
    for (const char *name : kCountedStats)
        v[name] += s.get(name);
    double &faults = v["faults.injected"];
    const std::string pre = "faults.", post = ".injected";
    for (const auto &[k, x] : s.entries()) {
        if (k.size() > pre.size() + post.size() &&
            k.compare(0, pre.size(), pre) == 0 &&
            k.compare(k.size() - post.size(), post.size(), post) == 0)
            faults += x;
    }
}

void
LayerCounts::add(const LayerCounts &o)
{
    for (const auto &[k, x] : o.v)
        v[k] += x;
}

double
LayerCounts::get(const std::string &name) const
{
    auto it = v.find(name);
    return it == v.end() ? 0 : it->second;
}

void
Report::count(const std::vector<OpOutcome> &ops,
              const std::function<std::string(std::size_t)> &label)
{
    for (std::size_t i = 0; i < ops.size(); ++i) {
        ++attempted;
        if (!ops[i].ok) {
            ++failed;
            failures.push_back("op " + std::to_string(i) + " (" +
                               label(i) + "): " + ops[i].failure);
        }
        if (!ops[i].problem.empty())
            problems.push_back("op " + std::to_string(i) + " (" +
                               label(i) + "): " + ops[i].problem);
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void
runPool(std::size_t n, unsigned workers,
        const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };
    std::vector<std::thread> pool;
    for (unsigned w = 1; w < workers && w < n; ++w)
        pool.emplace_back(worker);
    worker(); // the calling thread is one of the workers
    for (std::thread &t : pool)
        t.join();
}

const std::vector<std::pair<std::string, std::string>> &
perLayerNames()
{
    static const std::vector<std::pair<std::string, std::string>> v = {
        {"workload.gen_s", "s"},
        {"workload.ops", "count"},
        {"system.build_ms", "ms"},
        {"system.run_s", "s"},
        {"sweep.point_ms.p50", "ms"},
        {"sweep.point_ms.p90", "ms"},
        {"sweep.busy_frac", "ratio"},
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"cpu.retired_instrs", "count"},
        {"cpu.useful_frac", "ratio"},
        {"cpu.squashes", "count"},
        {"arb.requests", "count"},
        {"arb.grant_frac", "ratio"},
        {"bulk.commits", "count"},
        {"signature.ctor_us", "us"},
        {"signature.insert_ns", "ns"},
        {"signature.contains_ns", "ns"},
        {"signature.intersects_ns", "ns"},
        {"directory.expand_us", "us"},
        {"mem.dir_lookups", "count"},
        {"mem.dir_alias_lookups", "count"},
        {"mem.l1_misses", "count"},
        {"mem.bounced_reads", "count"},
        {"net.messages", "count"},
        {"net.bits.total", "bits"},
        {"net.queueing_cycles", "cycles"},
        {"analysis.host_s", "s"},
        {"analysis.graph_edges", "count"},
        {"explore.schedules", "count"},
        {"explore.pruned_por", "count"},
        {"explore.pruned_fp", "count"},
        {"explore.schedule_ms.p50", "ms"},
        {"explore.schedule_ms.p90", "ms"},
        {"faults.injected", "count"},
        {"bulk.resends", "count"},
        {"mem.commit_resends", "count"},
        {"bulk.resend_give_ups", "count"},
        {"watchdog.rescues", "count"},
        {"trace.overhead_frac", "ratio"},
        {"trace.spans", "count"},
        {"self_s.bench", "s"},
        {"self_s.workload", "s"},
        {"self_s.sweep", "s"},
        {"self_s.system", "s"},
        {"self_s.explore", "s"},
        {"self_s.signature", "s"},
        {"self_s.directory", "s"},
    };
    return v;
}

double
timeSetup(unsigned batches, unsigned n, const std::function<void()> &fn)
{
    double lowest = 0;
    for (unsigned b = 0; b < batches; ++b) {
        Clock::time_point t0 = Clock::now();
        for (unsigned k = 0; k < n; ++k)
            fn();
        double s = secondsBetween(t0, Clock::now()) / n;
        lowest = b ? std::min(lowest, s) : s;
    }
    return lowest;
}

Passes
measurePasses(const Args &a, unsigned streams, unsigned min_passes,
              const std::function<PassResult(std::size_t, unsigned)> &pass,
              const std::function<std::string(std::size_t)> &label,
              Report &rep)
{
    auto phase = [&](double seconds, unsigned min,
                     std::vector<PassResult> &out) {
        std::vector<std::vector<PassResult>> per(streams);
        runPool(streams, streams, [&](std::size_t s) {
            std::vector<PassResult> &mine = per[s];
            double total = 0;
            while (mine.size() < min || total < seconds) {
                mine.push_back(pass(mine.size(), static_cast<unsigned>(s)));
                total += mine.back().wallS;
            }
        });
        for (std::vector<PassResult> &v : per)
            for (PassResult &p : v)
                out.push_back(std::move(p));
    };
    Passes ps;
    if (!a.trace) {
        phase(a.seconds, min_passes, ps.untraced);
    } else {
        phase(a.seconds / 2, 1, ps.untraced);
        SpanRecorder::instance().setEnabled(true);
        ps.spanFrom = SpanRecorder::instance().mark();
        phase(a.seconds / 2, 1, ps.traced);
        ps.spanTo = SpanRecorder::instance().mark();
    }

    // Every pass repeats the same ops, so the ops of the first pass are
    // the run's ops; the other passes must give the same digest.
    rep.count(ps.untraced.front().ops, label);
    rep.digest = foldDigests(ps.untraced.front().ops);
    bool same = true;
    for (const auto *set : {&ps.untraced, &ps.traced}) {
        for (const PassResult &p : *set) {
            rep.passWalls.push_back(p.wallS);
            same = same && foldDigests(p.ops) == rep.digest;
        }
    }
    if (!same)
        rep.problems.push_back(
            "simulated stats differ between passes (digest)");
    return ps;
}

double
simIpc(const std::vector<OpOutcome> &ops)
{
    double instrs = 0, slots = 0;
    for (const OpOutcome &o : ops) {
        if (!o.ok)
            continue;
        instrs += o.retired;
        slots += o.execTime * o.procs;
    }
    return slots > 0 ? instrs / slots : 0;
}

std::vector<Metric>
endToEndMetrics(const Passes &ps, const Report &rep, double speedup,
                unsigned workers)
{
    // Host interference only ever adds time, so the fastest timing of
    // the same deterministic work is the steadiest estimate of the
    // code's own cost: each op's fastest time, summed and shared among
    // the workers.
    auto lowest = [](const std::vector<double> &v) {
        return *std::min_element(v.begin(), v.end());
    };
    double wall = 0;
    for (std::size_t j = 0; j < ps.untraced.front().times.opMs.size(); ++j) {
        std::vector<double> ms;
        for (const PassResult &p : ps.untraced)
            ms.push_back(p.times.opMs[j]);
        wall += lowest(ms) / 1e3 / workers;
    }
    std::vector<double> setups;
    for (const PassResult &p : ps.untraced)
        setups.push_back(p.setupS);
    double retired = 0;
    for (const OpOutcome &o : ps.untraced.front().ops)
        retired += o.retired;

    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"wall_s", wall, "s"},
        {"sim_minstr_per_s", retired / wall / 1e6, "M_instr/s"},
        {"setup_s", lowest(setups), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"ok_frac",
         static_cast<double>(rep.attempted - rep.failed) /
             static_cast<double>(rep.attempted),
         "ratio"},
        {"sim_ipc", simIpc(ps.untraced.front().ops), "instr/cycle"},
        {"bsc_speedup_vs_rc", speedup, "ratio"},
    };
}

void
tracedLayers(const Passes &ps, LayerCounts &c, LayerTimes &t)
{
    c = ps.traced.front().counts;
    t = LayerTimes{};
    const double n = static_cast<double>(ps.traced.size());
    for (const PassResult &p : ps.traced) {
        t.genS += p.times.genS / n;
        t.traceOps = p.times.traceOps;
        t.runS += p.times.runS / n;
        t.busyFrac += p.times.busyFrac / n;
        t.buildMs.insert(t.buildMs.end(), p.times.buildMs.begin(),
                         p.times.buildMs.end());
        t.opMs.insert(t.opMs.end(), p.times.opMs.begin(),
                      p.times.opMs.end());
    }
}

std::map<std::string, double>
probeSelfSeconds(double repeats, const std::function<void()> &fn)
{
    SpanRecorder &r = SpanRecorder::instance();
    const std::uint64_t from = r.mark();
    fn();
    std::size_t spans = 0;
    std::map<std::string, double> self =
        r.selfSecondsByLayer(from, r.mark(), spans);
    self.erase("bench");
    for (auto &[layer, secs] : self)
        secs /= repeats;
    return self;
}

std::vector<Metric>
layerMetrics(const Passes &ps, const LayerCounts &c, const LayerTimes &t,
             const std::vector<Metric> &extra,
             const std::map<std::string, double> &probe_self)
{
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::vector<double> tracedWall, untracedWall;
    for (const PassResult &p : ps.traced)
        tracedWall.push_back(p.wallS);
    for (const PassResult &p : ps.untraced)
        untracedWall.push_back(p.wallS);
    const double retired = c.get("cpu.retired_instrs");

    std::map<std::string, double> v = {
        {"workload.gen_s", t.genS},
        {"workload.ops", t.traceOps},
        {"system.build_ms", median(t.buildMs)},
        {"system.run_s", t.runS},
        {"sweep.point_ms.p50", percentile(t.opMs, 50)},
        {"sweep.point_ms.p90", percentile(t.opMs, 90)},
        {"sweep.busy_frac", t.busyFrac},
        {"sim.ns_per_event", ratio(1e9 * t.runS, c.get("sim.events"))},
        {"cpu.useful_frac",
         ratio(retired, retired + c.get("cpu.wasted_instrs"))},
        {"arb.grant_frac",
         ratio(c.get("arb.grants"), c.get("arb.requests"))},
        {"trace.overhead_frac",
         ratio(median(tracedWall), median(untracedWall)) - 1},
    };
    v.insert(c.v.begin(), c.v.end());

    // Span self times and count per traced pass; layers no pass
    // reaches come from the probes.
    const double passes = static_cast<double>(ps.traced.size());
    std::size_t spans = 0;
    for (const auto &[layer, secs] :
         SpanRecorder::instance().selfSecondsByLayer(ps.spanFrom,
                                                     ps.spanTo, spans))
        v["self_s." + layer] = secs / passes;
    v["trace.spans"] = static_cast<double>(spans) / passes;
    for (const auto &[layer, secs] : probe_self)
        v.emplace("self_s." + layer, secs);
    for (const Metric &m : extra)
        v[m.name] = m.value;

    std::vector<Metric> out;
    for (const auto &[name, unit] : perLayerNames())
        out.push_back({name, v.count(name) ? v[name] : 0.0, unit});
    return out;
}

MachineConfig
toolMachine(Model model)
{
    SimOptions o; // the tools' defaults: watchdog on, exact stats on
    o.cfg.model = model;
    o.cfg.numProcs = 8;
    return o.cfg;
}

} // namespace perfbench
