/**
 * @file
 * The SC baseline: memory operations perform strictly in program order
 * (requirement (i) of Section 2.1), enhanced with the two techniques of
 * Gharachorloo et al. [12] that the paper's SC configuration includes:
 * hardware prefetching for reads and exclusive prefetching for writes.
 *
 * Ops within the instruction window issue (exclusive) prefetches as
 * soon as they enter it; the demand access then usually hits unless the
 * line was invalidated in between — exactly the residual cost the
 * technique leaves.
 */

#ifndef BULKSC_CPU_SC_PROCESSOR_HH
#define BULKSC_CPU_SC_PROCESSOR_HH

#include "cpu/processor_base.hh"

namespace bulksc {

/** In-order-perform SC processor with read/exclusive prefetching. */
class ScProcessor : public ProcessorBase
{
  public:
    ScProcessor(EventQueue &eq, const std::string &name, ProcId pid,
                MemorySystem &mem, const Trace &trace,
                const CpuParams &params);

  protected:
    void advance() override;

    void syncDone() override;

  private:
    void completeOp(const Op &op);

    /** Time the in-order perform chain has reached. */
    Tick performTick = 0;

    /** Front-end availability of the current op. */
    Tick fetchAvail = 0;
    bool gapCharged = false;

    /** A demand miss is in flight (a sync op sets syncBusy). */
    bool busy = false;
};

} // namespace bulksc

#endif // BULKSC_CPU_SC_PROCESSOR_HH
