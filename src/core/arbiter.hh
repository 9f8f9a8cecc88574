/**
 * @file
 * The commit arbiter (Section 4.2): a simple state machine enforcing
 * the minimum serialization requirements of chunk commit.
 *
 * The arbiter stores the W signatures of all currently-committing
 * chunks. A permission-to-commit request is granted iff every stored W
 * has an empty intersection with the incoming (R, W) pair; the granted
 * W (if non-empty) is stored until the commit's acknowledgements arrive
 * (commitDone). Each store is an ArbiterModule.
 *
 * One Arbiter class runs both organizations of the paper:
 *  - one module: the central arbiter of Section 4.2.1, with the RSig
 *    commit-bandwidth optimization of Section 4.2.2 (requests carry
 *    only W; when the list is non-empty the arbiter fetches R from the
 *    processor with an extra round trip) and a cap on simultaneously
 *    committing chunks;
 *  - several modules: the distributed arbiter of Section 4.2.3, one
 *    module per address range (the directory modules' coarse
 *    granules). A chunk that accessed a single range arbitrates with
 *    that module alone; a chunk spanning ranges goes through the Global
 *    Arbiter (G-arbiter), which forwards the signatures to the involved
 *    modules, collects their votes, and combines them. The G-arbiter
 *    keeps the W signatures of its own accepted transactions in a
 *    module of its own to deny colliding requests early.
 *
 * Pre-arbitration (Section 3.3) provides the forward-progress
 * guarantee: a repeatedly squashed processor reserves the arbiter,
 * which then rejects commit requests from all other processors until
 * the reserving processor's next commit request is decided. One queue
 * serves both organizations; a reservation is granted once no accepted
 * non-empty W is outstanding.
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

    /** Colliding requests granted anyway by the fault-injection knob
     *  (negative testing of the SC checkers; 0 in normal operation). */
    std::uint64_t faultInjectedGrants = 0;
};

/**
 * One W list of the arbiter and the count of its pending transactions.
 *
 * The list (insert/erase) is what collides() checks. The count
 * (accept/release) feeds the occupancy statistics and the
 * pre-arbitration rule. The central arbiter lists and counts the same
 * Ws in its one module. The distributed arbiter lists a W in the
 * modules of its ranges (and, for a multi-range W, the G-arbiter's)
 * but counts every transaction once, at the G-arbiter's module:
 * occupancy counts transactions, not module entries.
 */
class ArbiterModule
{
  public:
    /** True iff some listed W intersects @p s. */
    bool collides(const Signature &s) const;

    /** List @p w. A W listed twice needs two erase() calls. */
    void insert(std::shared_ptr<Signature> w) { ws.push_back(std::move(w)); }

    /** Unlist the first listed copy of @p w; false if there is none. */
    bool erase(const Signature *w);

    /** Count @p w as a pending transaction from @p now. */
    void accept(const Signature *w, Tick now);

    /**
     * @p w's commit completed at @p now. If @p listed (some module
     * still listed it) one pending transaction ends; the residency of
     * @p w since its latest accept() is sampled once.
     */
    void release(const Signature *w, Tick now, bool listed);

    std::size_t size() const { return ws.size(); }

    /** Accepted transactions not yet released. */
    std::size_t pending() const { return live; }

    /** Time-averaged pending count over [0, @p end). */
    double avgPendingW(Tick end) const;

    /** Fraction of [0, @p end) with a pending transaction. */
    double nonEmptyFrac(Tick end) const;

    /** Residency of each released W (accept to release). */
    const Histogram &occupancy() const { return occ; }

    /** Order-independent digest of the listed Ws. */
    std::uint64_t fold() const;

  private:
    /** Advance the time integrals to @p now. */
    void touch(Tick now);

    /** Ticks in [lastTouch, @p end) not yet integrated. */
    Tick tail(Tick end) const { return end > lastTouch ? end - lastTouch : 0; }

    std::vector<std::shared_ptr<Signature>> ws;

    /** Tick each counted W was (last) accepted. */
    std::unordered_map<const Signature *, Tick> insertTick;

    std::size_t live = 0;
    double pendingIntegral = 0.0; //!< time integral of live
    Tick nonEmptyTicks = 0;       //!< ticks with live > 0
    Tick lastTouch = 0;
    Histogram occ;
};

/** Supplies a chunk's R signature on demand (RSig optimization). */
using RProvider = std::function<std::shared_ptr<Signature>()>;

/** The central (one module) or distributed (several) arbiter. */
class Arbiter : public SimObject
{
  public:
    /**
     * @param chan Carries the commit requests and decisions; other
     *        messages (the RSig fetch, the G-arbiter's fan-out and
     *        votes, pre-arbitration grants) go straight to its network.
     * @param first_node Network node of module 0; module i lives at
     *        first_node + i and the G-arbiter at first_node + count.
     * @param count Arbiter modules (address ranges); 1 selects the
     *        central arbiter.
     * @param processing Signature-check latency (the paper's 30-cycle
     *        commit arbitration latency minus the network hops).
     * @param rsig_opt Enable the RSig bandwidth optimization.
     * @param max_commits Maximum simultaneously-committing chunks; only
     *        the central arbiter enforces it.
     */
    Arbiter(EventQueue &eq, ReliableChannel &chan, NodeId first_node,
            unsigned count, Tick processing, bool rsig_opt,
            unsigned max_commits = 8);

    /**
     * Attach the fault plane for arb.skip_collision: grant every Nth
     * colliding request, deliberately breaking chunk disambiguation so
     * the analysis subsystem has SC violations to catch. Only the
     * central arbiter supports it. (Message faults are the reliable
     * channel's business.)
     */
    void setFaultPlane(FaultPlane *fp);

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
    void requestCommit(ProcId p, std::shared_ptr<Signature> w,
                       RProvider r_provider,
                       ReliableChannel::ReplyPort reply);

    /**
     * All directories acknowledged the commit of @p w: unlist its first
     * copy from every module. A W listed twice stays listed once.
     */
    void commitDone(const std::shared_ptr<Signature> &w);

    /** Reserve the arbiter for @p p (forward-progress measure). */
    void preArbitrate(ProcId p, std::function<void()> granted);

    const ArbiterStats &stats() const { return stats_; }

    /** The module that counts pending transactions: occupancy
     *  statistics, and the Ws still pending (at the end of a run,
     *  the Ws never released). */
    const ArbiterModule &occupancy() const { return tally(); }

    /** Accepted non-empty Ws not yet released. */
    std::size_t pendingW() const { return tally().pending(); }

    /** Digest of the arbiter's protocol state (W lists,
     *  pre-arbitration) for explorer revisit pruning. */
    std::uint64_t fingerprint() const;

    /** Commits that involved a single arbiter module (distributed). */
    std::uint64_t singleRangeCommits() const { return nSingle; }

    /** Commits that required the G-arbiter (distributed). */
    std::uint64_t multiRangeCommits() const { return nMulti; }

  private:
    bool central() const { return modules.size() == 1; }

    const ArbiterModule &tally() const
    {
        return central() ? modules[0] : gArb;
    }
    ArbiterModule &tally() { return central() ? modules[0] : gArb; }

    /** List and count a granted non-empty W in module @p m. */
    void acceptIn(ArbiterModule &m, const std::shared_ptr<Signature> &w);

    // --- central arbiter ---
    void decide(ProcId p, const std::shared_ptr<Signature> &w,
                std::shared_ptr<Signature> r, RProvider r_provider,
                ReliableChannel::ReplyPort reply);

    // --- distributed arbiter ---
    void requestRanged(ProcId p, std::shared_ptr<Signature> w,
                       const RProvider &r_provider,
                       ReliableChannel::ReplyPort reply);

    /** Ranges touched by a signature's (exact) line set, ascending. */
    std::vector<unsigned> rangesOf(const Signature &s) const;

    /** Count and send the decision on proc @p p's chunk W @p w. */
    void finishDecision(const ReliableChannel::ReplyPort &reply, bool ok,
                        NodeId from, ProcId p,
                        std::shared_ptr<Signature> w);

    void tryActivatePreArb();

    ReliableChannel &chan;
    Network &net;
    NodeId firstNode;
    Tick processing;
    bool rsigOpt;
    unsigned maxCommits;
    FaultPlane *faults = nullptr;

    /** One per address range; the central arbiter has one. */
    std::vector<ArbiterModule> modules;

    /** The G-arbiter's W cache (distributed arbiter only). */
    ArbiterModule gArb;

    /** Active pre-arbitration owner (~0 when inactive). */
    ProcId preArbOwner = ~ProcId{0};
    std::deque<std::pair<ProcId, std::function<void()>>> preArbQueue;

    ArbiterStats stats_;
    std::uint64_t nSingle = 0;
    std::uint64_t nMulti = 0;
};

} // namespace bulksc

#endif // BULKSC_CORE_ARBITER_HH
