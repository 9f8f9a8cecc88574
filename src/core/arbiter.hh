/**
 * @file
 * The commit arbiter (Section 4.2): a simple state machine enforcing
 * the minimum serialization requirements of chunk commit.
 *
 * The arbiter stores the W signatures of all currently-committing
 * chunks. A permission-to-commit request is granted iff every stored W
 * has an empty intersection with the incoming (R, W) pair; the granted
 * W (if non-empty) joins the list until the commit's acknowledgements
 * arrive (commitDone).
 *
 * The RSig commit-bandwidth optimization (Section 4.2.2) is modelled
 * faithfully: requests carry only W; when the arbiter's list is
 * non-empty it fetches R from the processor with an extra round trip.
 *
 * Pre-arbitration (Section 3.3) provides the forward-progress
 * guarantee: a repeatedly squashed processor reserves the arbiter,
 * which then rejects commit requests from all other processors until
 * the reserving processor's next commit request is processed.
 */

#ifndef BULKSC_CORE_ARBITER_HH
#define BULKSC_CORE_ARBITER_HH

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "network/reliable_channel.hh"
#include "signature/signature.hh"
#include "sim/event_queue.hh"
#include "sim/fault_plane.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace bulksc {

/** Aggregate arbiter statistics (Table 4 columns). */
struct ArbiterStats
{
    std::uint64_t requests = 0;
    std::uint64_t grants = 0;
    std::uint64_t denials = 0;
    std::uint64_t emptyWCommits = 0; //!< grants whose W was empty
    std::uint64_t rsigRequired = 0;  //!< requests needing the R sig
    std::uint64_t preArbitrations = 0;
    std::uint64_t abortedGrants = 0; //!< grants to already-squashed chunks

    /** Colliding requests granted anyway by the fault-injection knob
     *  (negative testing of the SC checkers; 0 in normal operation). */
    std::uint64_t faultInjectedGrants = 0;

    /** Time integral of the W-list size (for avg pending W sigs). */
    double pendingIntegral = 0.0;

    /** Ticks during which the W list was non-empty. */
    Tick nonEmptyTicks = 0;

    /** W-list residency of each committed W (grant to commitDone). */
    Histogram occupancy;

    double
    avgPendingW(Tick total) const
    {
        return total ? pendingIntegral / static_cast<double>(total) : 0;
    }

    double
    nonEmptyFrac(Tick total) const
    {
        return total ? static_cast<double>(nonEmptyTicks) /
                           static_cast<double>(total)
                     : 0;
    }
};

/** Supplies a chunk's R signature on demand (RSig optimization). */
using RProvider = std::function<std::shared_ptr<Signature>()>;

/** Interface shared by the central and distributed arbiters. */
class ArbiterIface
{
  public:
    virtual ~ArbiterIface() = default;

    /**
     * Request permission to commit (one attempt; the reliable channel
     * runs it again on a resend).
     *
     * @param p Requesting processor.
     * @param w The chunk's W signature (kept by the arbiter on grant).
     * @param r_provider Called if the R signature is needed.
     * @param reply The transaction the request belongs to: the request
     *        message travels with it through
     *        ReliableChannel::sendRequest, the decision through
     *        ReliableChannel::sendReply.
     */
    virtual void requestCommit(ProcId p, std::shared_ptr<Signature> w,
                               RProvider r_provider,
                               ReliableChannel::ReplyPort reply) = 0;

    /** All directories acknowledged the commit of @p w: drop it. */
    virtual void commitDone(const std::shared_ptr<Signature> &w) = 0;

    /** Reserve the arbiter for @p p (forward-progress measure). */
    virtual void preArbitrate(ProcId p,
                              std::function<void()> granted) = 0;

    virtual const ArbiterStats &stats() const = 0;

    /** Digest of the arbiter's protocol state (W list,
     *  pre-arbitration) for explorer revisit pruning. */
    virtual std::uint64_t fingerprint() const { return 0; }
};

/** The single (or combined-with-directory) arbiter of Section 4.2.1. */
class Arbiter : public SimObject, public ArbiterIface
{
  public:
    /**
     * @param chan Carries the commit requests and decisions; other
     *        messages go straight to its network.
     * @param node Network node id of the arbiter.
     * @param processing Signature-check latency (the paper's 30-cycle
     *        commit arbitration latency minus the network hops).
     * @param rsig_opt Enable the RSig bandwidth optimization.
     * @param max_commits Maximum simultaneously-committing chunks.
     */
    Arbiter(EventQueue &eq, ReliableChannel &chan, NodeId node,
            Tick processing, bool rsig_opt, unsigned max_commits = 8);

    /**
     * Attach the fault plane for arb.skip_collision: grant every Nth
     * colliding request, deliberately breaking chunk disambiguation so
     * the analysis subsystem has SC violations to catch. (Message
     * faults are the reliable channel's business.)
     */
    void setFaultPlane(FaultPlane *fp) { faults = fp; }

    void requestCommit(ProcId p, std::shared_ptr<Signature> w,
                       RProvider r_provider,
                       ReliableChannel::ReplyPort reply) override;

    void commitDone(const std::shared_ptr<Signature> &w) override;

    void preArbitrate(ProcId p, std::function<void()> granted) override;

    const ArbiterStats &stats() const override { return stats_; }

    std::uint64_t fingerprint() const override;

    std::size_t pendingW() const { return wList.size(); }

  private:
    void decide(ProcId p, const std::shared_ptr<Signature> &w,
                std::shared_ptr<Signature> r, RProvider r_provider,
                ReliableChannel::ReplyPort reply);

    /** True iff some listed W intersects @p s. */
    bool collides(const Signature &s) const;

    void touchStats();

    void tryActivatePreArb();

    ReliableChannel &chan;
    Network &net;
    NodeId node;
    Tick processing;
    bool rsigOpt;
    unsigned maxCommits;
    FaultPlane *faults = nullptr;

    std::vector<std::shared_ptr<Signature>> wList;

    /** Tick each listed W entered the list (occupancy histogram). */
    std::unordered_map<const Signature *, Tick> wInsertTick;

    /** Active pre-arbitration owner (kNodeNone when inactive). */
    ProcId preArbOwner = ~ProcId{0};
    std::deque<std::pair<ProcId, std::function<void()>>> preArbQueue;

    ArbiterStats stats_;
    Tick lastTouch = 0;
};

} // namespace bulksc

#endif // BULKSC_CORE_ARBITER_HH
