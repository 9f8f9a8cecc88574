/**
 * @file
 * The executor of simulation points, and the parameter-sweep runner
 * built on it. The executor runs one fully-isolated simulator instance
 * per point on a pool of worker threads and hands the results back in
 * point order, independent of worker count. The sweep runner expands
 * a cross-product grid into points and streams one JSONL record per
 * point; the paper's evaluation driver is the executor's other user.
 *
 * Isolation is structural: a point's System owns its EventQueue,
 * MemorySystem, processors, and statistics, so workers share nothing
 * but the read-only option registry and workload profiles. The global
 * EventTrace stays disabled — tracing a batch run is meaningless and
 * its ring buffer is not thread-safe.
 *
 * Determinism: point @c i always simulates with the same derived seed
 * salt (a mix64 of the base salt and @c i), so the emitted JSONL is
 * byte-identical for any -j. Sweeping the seed-salt axis explicitly
 * disables the derivation for that axis's values.
 */

#ifndef BULKSC_SYSTEM_SWEEP_RUNNER_HH
#define BULKSC_SYSTEM_SWEEP_RUNNER_HH

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "system/sim_options.hh"
#include "system/system.hh"

namespace bulksc {

/** What one simulation point produced. */
struct PointResult
{
    std::string error; //!< why the point could not run ("" = it ran)
    Results results;   //!< the run's results (valid when error is "")
};

/**
 * Simulate one fully resolved point: check its configuration and app,
 * generate its traces from (app, procs, instrs, seed salt), and run an
 * isolated System on them.
 */
PointResult simulatePoint(const SimOptions &o);

/**
 * Simulate @p points on @p workers threads. @p deliver receives each
 * finished point on the calling thread, in point order, as soon as it
 * and all its predecessors are done, so what it sees does not depend
 * on the worker count.
 */
void runPoints(const std::vector<SimOptions> &points, unsigned workers,
               const std::function<void(std::size_t, PointResult &)>
                   &deliver);

/** One sweep dimension: an option name and the values it takes. */
struct SweepAxis
{
    std::string name;                //!< registry option name
    std::vector<std::string> values; //!< one grid column per value
};

/**
 * Cross-product sweep over a base configuration.
 *
 * The grid is the cross product of the axes in declaration order, the
 * last axis varying fastest (row-major).
 */
class SweepRunner
{
  public:
    /**
     * @param base Options every point starts from.
     * @param axes Sweep dimensions; empty means a single point.
     */
    SweepRunner(SimOptions base, std::vector<SweepAxis> axes);

    /** Total grid points. */
    std::size_t numPoints() const { return nPoints; }

    /**
     * Validate the whole grid without simulating: axis names must be
     * config-persistable registry options, every point's configuration
     * must pass MachineConfig::validate(), and app names must exist.
     * On failure @p err names the point and the offending option.
     */
    bool validateGrid(std::string &err) const;

    /**
     * Run every point on @p workers threads, writing one JSON record
     * per line to @p out in point order (streamed: a record is written
     * as soon as it and all its predecessors are done).
     *
     * @param progress When true, reports completed points on stderr.
     * @return the number of failed points (their records carry an
     *         "error" field instead of statistics).
     */
    std::size_t run(unsigned workers, std::FILE *out,
                    bool progress = false);

    /** The option settings of grid point @p idx (axis name, value). */
    std::vector<std::pair<std::string, std::string>>
    pointSettings(std::size_t idx) const;

    /**
     * The options point @p idx simulates with: base + axis settings +
     * the derived per-point seed salt. False + @p err if a setting
     * does not apply cleanly.
     */
    bool pointOptions(std::size_t idx, SimOptions &out,
                      std::string &err) const;

  private:
    SimOptions base;
    std::vector<SweepAxis> axes;
    std::size_t nPoints;
    bool sweepsSeedSalt;
    bool sweepsFaultSeed;
};

} // namespace bulksc

#endif // BULKSC_SYSTEM_SWEEP_RUNNER_HH
