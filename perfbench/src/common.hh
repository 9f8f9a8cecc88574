/**
 * @file
 * Types and helpers shared by the benchmark's workloads: the command
 * line, one op's outcome, the per-layer counters read from
 * Results::stats, the report a workload returns, and small statistics.
 *
 * An "op" is one simulated run, one grid point or one explored
 * schedule. An op passes when it completed, the watchdog verdict is
 * none, and analysis.sc_ok holds where the oracle is armed.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "system/system.hh"

namespace perfbench {

/** Every tick-bounded run stops here at the latest. */
constexpr bulksc::Tick kTickCeiling = 10'000'000;

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 0;       //!< trace seed-salt of app-ocean, grid
    double seconds = 10;          //!< measured time per stream
    bool trace = false;           //!< traced run: per-layer metrics
    std::uint64_t faultSeed = 1;  //!< first fault seed of app-faulted
    unsigned litmusVariant = 0;   //!< timing variant of explore-litmus
    unsigned jobs = 1;            //!< worker threads: min(4, nproc)
    std::string traceOut;         //!< Chrome trace path (traced run)
};

/** One metric as printed: name, value, unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one op produced. */
struct OpOutcome
{
    bool ok = false;
    std::string failure;       //!< classification when !ok
    double retired = 0;        //!< cpu.retired_instrs
    double execTime = 0;       //!< simulated cycles
    unsigned procs = 0;
    std::uint64_t digest = 0;  //!< of every simulated stat
    std::string problem;       //!< failed output check ("" = none)
};

/**
 * Judge one finished run. @p oracle says whether the analysis engine
 * was armed. Also checks stats invariants that hold for every run.
 */
OpOutcome judgeRun(const bulksc::Results &res, unsigned procs,
                   bool oracle);

/** Fold op digests in op order. */
std::uint64_t foldDigests(const std::vector<OpOutcome> &ops);

/** Per-layer counters summed over a pass's ops, by stat name: the
 *  counters of Results::stats a traced run reports, sim.events from
 *  the event queue, and faults.injected (sum of faults.*.injected). */
struct LayerCounts
{
    std::map<std::string, double> v;

    void add(const bulksc::Results &res, std::uint64_t events_fired);
    void add(const LayerCounts &o);
    double get(const std::string &name) const;
};

/** Host timings a traced pass collects beside LayerCounts. */
struct LayerTimes
{
    double genS = 0;            //!< generateTraces
    double traceOps = 0;        //!< dynamic ops generated
    std::vector<double> buildMs; //!< System constructions
    double runS = 0;            //!< System::run
    std::vector<double> opMs;   //!< per op: run, grid point, seed, schedule
    double busyFrac = 0;        //!< pooled: sum op time / (workers*wall)
};

/** What a workload hands back to main. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< one line per failed op
    std::vector<std::string> problems; //!< failed benchmark checks
    std::uint64_t digest = 0;
    std::vector<Metric> metrics;
    std::vector<double> passWalls; //!< measured seconds of every pass

    /** Count @p ops and list their failures and problems. */
    void count(const std::vector<OpOutcome> &ops,
               const std::function<std::string(std::size_t)> &label);
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p pct of @p v (0 when empty). */
double percentile(std::vector<double> v, double pct);

/** Run @p fn(i) for i in [0, n) on @p workers threads (the calling
 *  thread is one of them). */
void runPool(std::size_t n, unsigned workers,
             const std::function<void(std::size_t)> &fn);

/** One pass's set-up sample: @p batches batches of @p n calls of
 *  @p fn, and the lowest of their mean host seconds per call. Taking a
 *  sample in every pass spreads the set-up timings over the whole
 *  measured phase, as the pass timings are. */
double timeSetup(unsigned batches, unsigned n,
                 const std::function<void()> &fn);

/** One pass: every op of the workload, once. */
struct PassResult
{
    double wallS = 0;  //!< measured host seconds, set-up excluded
    double setupS = 0; //!< set-up sample taken in the pass
    std::vector<OpOutcome> ops;
    LayerCounts counts;
    LayerTimes times;
};

/** The passes of one run: untraced, then (traced run only) traced. */
struct Passes
{
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    std::uint64_t spanFrom = 0, spanTo = 0; //!< span ids of the traced
};

/**
 * Run @p pass(index, stream) repeatedly on @p streams threads at once,
 * each stream until Args::seconds of its measured time (at least
 * @p min_passes passes). Single-op workloads use one stream per worker
 * so their pass timings sample every core. Traced run: half the time
 * untraced, then half with span recording on (at least one pass each;
 * recording stays on afterwards). Every pass repeats the same ops, so
 * the first pass's ops are the run's: they are counted into @p rep and
 * their failures listed (labelled by @p label). Every other pass must
 * give the same digest.
 */
Passes measurePasses(
    const Args &a, unsigned streams, unsigned min_passes,
    const std::function<PassResult(std::size_t, unsigned)> &pass,
    const std::function<std::string(std::size_t)> &label, Report &rep);

/** Modelled IPC over the passing ops: retired / (cycles * procs). */
double simIpc(const std::vector<OpOutcome> &ops);

/**
 * The end-to-end metrics of an untraced run, in output order. Host
 * times are the fastest of the run: wall_s is each op's fastest time
 * over the passes (LayerTimes::opMs), summed and divided by the
 * @p workers that share a pass's ops.
 */
std::vector<Metric> endToEndMetrics(const Passes &ps, const Report &rep,
                                    double speedup, unsigned workers);

/** The per-layer metric names, in output order, with their units. */
const std::vector<std::pair<std::string, std::string>> &perLayerNames();

/** Counters of the first traced pass and host times averaged over the
 *  traced passes. */
void tracedLayers(const Passes &ps, LayerCounts &c, LayerTimes &t);

/** Self seconds per layer of the spans @p fn records, divided by
 *  @p repeats (the replays @p fn makes). The probe's own bench spans
 *  are left out: they are bookkeeping, not a layer. */
std::map<std::string, double>
probeSelfSeconds(double repeats, const std::function<void()> &fn);

/**
 * Per-layer metrics of a traced run: @p c and @p t, the span self
 * times and span count per traced pass, the tracing overhead (traced
 * against untraced passes), plus what the workload measured itself
 * (@p extra, by name). Layers that only a probe reaches take their
 * self time from @p probe_self (per probe replay). Every name of
 * perLayerNames() is emitted; layers a workload does not exercise
 * report 0.
 */
std::vector<Metric>
layerMetrics(const Passes &ps, const LayerCounts &c, const LayerTimes &t,
             const std::vector<Metric> &extra,
             const std::map<std::string, double> &probe_self);

/** The simulator's default 8-processor machine for @p model, as the
 *  command-line tools build it (watchdog armed, exact stats on). */
bulksc::MachineConfig toolMachine(bulksc::Model model);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
