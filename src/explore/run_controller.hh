/**
 * @file
 * The per-run schedule controller: replays a choice prefix, records
 * the full decision trace, and computes the POR-allowed alternative
 * set at every ordering decision.
 *
 * Decision model. A same-tick batch with k >= 2 tagged (network
 * delivery) events is resolved by k-1 sequential picks: at each step
 * the controller chooses the next event to fire among the remaining
 * tagged candidates (choice 0 = FIFO, the earliest-scheduled one).
 * Untagged events keep their FIFO positions — only the tagged events
 * permute through the tagged slots. A net.delay window [lo, hi]
 * becomes a pick among the deduplicated set {lo, (lo+hi)/2, hi}.
 *
 * Partial-order reduction. At an ordering step with remaining
 * candidates c0..cm-1 (FIFO order), choosing cj over c0 can only lead
 * to a new execution if cj is *dependent* on some earlier candidate
 * ci (i < j): if cj commutes with everything before it, firing it
 * first yields a state also reached through the default order.
 * Independence is signature disjointness: two deliveries commute when
 * they target different nodes AND their data footprints (line address
 * or R/W signatures) do not intersect. Bloom-filter membership is
 * one-sided, so a false positive makes two events *dependent* — the
 * reduction only ever explores too much, never too little. Events
 * with unknown footprints are dependent on everything.
 */

#ifndef BULKSC_EXPLORE_RUN_CONTROLLER_HH
#define BULKSC_EXPLORE_RUN_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "explore/schedule.hh"
#include "sim/schedule_controller.hh"

namespace bulksc {

/** One decision as recorded during a run, with exploration metadata. */
struct DecisionRecord
{
    ChoiceKind kind = ChoiceKind::Order;
    std::uint32_t chosen = 0;
    std::uint32_t numOptions = 0;

    /**
     * Bit j set => alternative j is worth exploring (POR). Bit 0 is
     * always set. Alternatives past bit 63 are never marked (domains
     * that large do not occur in practice).
     */
    std::uint64_t allowedMask = 1;

    /** Machine state digest when the decision was made (0 when no
     *  fingerprint function is attached). */
    std::uint64_t fingerprint = 0;

    Choice
    choice() const
    {
        return Choice{kind, chosen, numOptions};
    }
};

/** Records and replays one run's choices. */
class RunController : public ScheduleController
{
  public:
    /**
     * @param prefix Choices to force, in decision order; decisions
     *        beyond the prefix take option 0 (FIFO / minimum delay).
     * @param por Compute the reduced allowed sets (otherwise every
     *        alternative is marked allowed).
     */
    RunController(Schedule prefix, bool por);

    /** Attach the state-digest source (System::stateFingerprint). */
    void setFingerprintFn(std::function<std::uint64_t()> fn)
    {
        fpFn = std::move(fn);
    }

    // ScheduleController
    std::uint32_t registerEvent(const EventFootprint &fp) override;
    void orderBatch(Tick now, const std::vector<std::uint32_t> &tags,
                    std::vector<std::uint32_t> &order) override;
    Tick chooseDelay(Tick now, int cls, Tick lo, Tick hi) override;

    /** Every decision made so far, in order. */
    const std::vector<DecisionRecord> &trace() const { return trace_; }

    /** The trace as a replayable schedule. */
    Schedule recorded() const;

    /** Forced choices that did not match the live decision shape
     *  (kind or domain size); 0 when replaying a recorded trace. */
    std::uint64_t mismatches() const { return nMismatch; }

    /** True iff two registered events must not be reordered. */
    static bool dependent(const EventFootprint &a,
                          const EventFootprint &b);

  private:
    std::uint32_t decide(ChoiceKind kind, std::uint32_t numOptions,
                         std::uint64_t allowedMask);

    Schedule prefix;
    bool por;
    std::function<std::uint64_t()> fpFn;

    std::vector<EventFootprint> events;
    std::vector<DecisionRecord> trace_;
    std::uint64_t nMismatch = 0;

    // orderBatch scratch
    std::vector<std::uint32_t> tagged;
    std::vector<std::uint32_t> picked;
};

} // namespace bulksc

#endif // BULKSC_EXPLORE_RUN_CONTROLLER_HH
