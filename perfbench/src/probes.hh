/**
 * @file
 * Layer probes: replay a workload's own traces through the public
 * Signature and Directory APIs, so the signature and directory layers
 * get a host cost per call although the simulator is not instrumented.
 *
 * The traces are cut into chunks of the configured chunk size, as a
 * BulkProcessor cuts them, and each chunk gets one R, W and W_priv
 * signature, as Chunk holds them. Loads go to R; stores to W, or to
 * W_priv when they are stack references; lock and barrier operations
 * read and write their line. Chunk k of every processor is treated as
 * running concurrently with chunk k of the others:
 *  - contains:   each R line of proc p against W of proc p+1;
 *  - intersects: W of p against R and W of every other proc q (the
 *                arbiter's and bulk disambiguation's check);
 *  - directory:  each chunk's reads are recorded at the directory,
 *                then its W is expanded (DirBDM signature expansion).
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <vector>

#include "common.hh"
#include "cpu/op.hh"
#include "system/machine_config.hh"

namespace perfbench {

/** Call counts and host time of the probe, summed over trace sets. */
struct ProbeTotals
{
    std::uint64_t ctors = 0, inserts = 0, queries = 0, intersections = 0,
                  expansions = 0;
    double ctorS = 0, insertS = 0, queryS = 0, intersectS = 0,
           expandS = 0;

    /** signature.* and directory.* per-call host costs. */
    std::vector<Metric> metrics() const;
};

/** Replay one op's traces (one trace per processor) on @p cfg's
 *  signature geometry and chunk size; adds to @p tot. */
void probeLayers(const std::vector<bulksc::Trace> &traces,
                 const bulksc::MachineConfig &cfg, ProbeTotals &tot);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
