/**
 * @file
 * A TSO (total store order) baseline — an extension beyond the
 * paper's SC / RC / SC++ comparison set, provided because TSO is what
 * commodity x86-like machines implement and it brackets BulkSC's
 * target nicely: loads stay ordered among themselves and stores stay
 * ordered among themselves, but stores drain through a store buffer
 * so the store->load reordering of the store-buffering litmus test is
 * architecturally allowed.
 *
 * Implementation: an in-order load chain (loads perform one at a
 * time, like the SC model) plus a non-blocking store path with
 * exclusive prefetching (stores retire into the buffer immediately
 * and become visible when ownership arrives, preserving their order).
 */

#ifndef BULKSC_CPU_TSO_PROCESSOR_HH
#define BULKSC_CPU_TSO_PROCESSOR_HH

#include <deque>

#include "cpu/processor_base.hh"

namespace bulksc {

/** Total-store-order processor: ordered loads, buffered stores. */
class TsoProcessor : public ProcessorBase
{
  public:
    TsoProcessor(EventQueue &eq, const std::string &name, ProcId pid,
                 MemorySystem &mem, const Trace &trace,
                 const CpuParams &params);

    /** Stores that drained from the store buffer. */
    std::uint64_t drainedStores() const { return nDrained; }

  protected:
    void advance() override;

    void syncDone() override;

  private:
    void completeOp(const Op &op);

    /** Drain the head of the store buffer when ownership arrives. */
    void drainStores();

    /** Time the in-order load chain has reached. */
    Tick performTick = 0;

    Tick fetchAvail = 0;
    bool gapCharged = false;

    /** A demand load miss is in flight (a sync op sets syncBusy). */
    bool busy = false;

    /** FIFO store buffer: op indices awaiting drain. */
    std::deque<std::size_t> storeBuffer;
    bool drainInFlight = false;
    std::uint64_t nDrained = 0;

    /** Store-buffer capacity; the front end stalls when full. */
    static constexpr std::size_t kStoreBufferEntries = 16;
};

} // namespace bulksc

#endif // BULKSC_CPU_TSO_PROCESSOR_HH
