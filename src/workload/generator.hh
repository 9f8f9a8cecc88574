/**
 * @file
 * Trace generation from application profiles.
 *
 * The generated traces are fully materialized (replayable), so a
 * squashed chunk re-executes exactly the same dynamic operations. All
 * processors of a run share the layout below; synchronization
 * variables are tracked so lock/barrier semantics execute against real
 * values.
 *
 * Address-space layout (byte addresses):
 *   stack[p]   : 0x1000'0000 + p * 0x0100'0000
 *   priv[p]    : 0x4000'0000 + p * 0x0400'0000
 *   shared     : 0x9000'0000
 *   locks      : 0xF000'0000 (one line per lock, line-spaced by 2)
 *   barrier    : 0xF800'0000 (count word; generation word next line)
 */

#ifndef BULKSC_WORKLOAD_GENERATOR_HH
#define BULKSC_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "cpu/op.hh"
#include "workload/app_profiles.hh"

namespace bulksc {

/** Address-space layout constants. */
namespace layout {
constexpr Addr kStackBase = 0x1000'0000;
constexpr Addr kStackStride = 0x0100'0000;
constexpr Addr kPrivBase = 0x4000'0000;
constexpr Addr kPrivStride = 0x0400'0000;
constexpr Addr kSharedBase = 0x9000'0000;
constexpr Addr kLockDataBase = 0xA000'0000; //!< lock-protected data
constexpr Addr kHotBase = 0xB000'0000;      //!< contended hot lines
constexpr Addr kStreamBase = 0x40'0000'0000;
constexpr Addr kStreamStride = 0x4'0000'0000;
constexpr Addr kLockBase = 0xF000'0000;
constexpr Addr kBarrierBase = 0xF800'0000;

/** Locks are scattered through their region as in real heaps — a
 *  dense lock array would make unrelated locks alias in the
 *  signature slices. */
inline Addr
lockAddr(std::uint32_t lock_id, unsigned line_bytes = kDefaultLineBytes)
{
    return kLockBase +
           (Addr{lock_id} * 641 % 16384) * line_bytes;
}

/** Base of the data lines protected by a lock (8 lines), scattered
 *  like the locks themselves. */
inline Addr
lockDataBase(std::uint32_t lock_id,
             unsigned line_bytes = kDefaultLineBytes)
{
    return kLockDataBase +
           (Addr{lock_id} * 977 % 8192) * 8 * line_bytes;
}
} // namespace layout

/**
 * Generate per-processor traces for an application profile.
 *
 * @param profile The application model.
 * @param num_procs Number of processors (all participate in barriers).
 * @param instrs_per_proc Dynamic instructions per processor.
 * @param seed_salt Extra seed material (vary for different runs).
 */
std::vector<Trace> generateTraces(const AppProfile &profile,
                                  unsigned num_procs,
                                  std::uint64_t instrs_per_proc,
                                  std::uint64_t seed_salt = 0);

/**
 * Ops generateTraces reserves per trace: the expected op count of
 * @p instrs_per_proc instructions of @p profile (stream bursts,
 * critical sections and barriers included), plus a margin for the
 * sampling spread and a final burst, so a trace is allocated once.
 */
std::size_t traceOpsReserve(const AppProfile &profile,
                            std::uint64_t instrs_per_proc);

} // namespace bulksc

#endif // BULKSC_WORKLOAD_GENERATOR_HH
