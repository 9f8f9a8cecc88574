/**
 * @file
 * The four benchmark workloads. Each runs its ops for Args::seconds,
 * checks them, and returns end-to-end metrics (untraced run) or
 * per-layer metrics (traced run). See perfbench/README.md for why each
 * workload exists and which layers it stresses.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench {

/** One BSCdypvt run of ocean, 8 procs, 200k instrs/proc. */
Report runAppOcean(const Args &a);

/** app-ocean under the fault mix with the axiomatic oracle, over
 *  8 fault seeds from Args::faultSeed. */
Report runAppFaulted(const Args &a);

/** 13 apps x 8 models at 8 procs, 60k instrs, via the sweep runner's
 *  per-point options. */
Report runFig9Grid(const Args &a);

/** Exhaustive exploration of sb with net.delay choices. */
Report runExploreLitmus(const Args &a);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
