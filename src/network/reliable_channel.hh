/**
 * @file
 * The reliable-delivery layer under the BulkSC commit protocol.
 *
 * The paper's commit protocol (arbiter permission, then W expansion at
 * the directory, Section 4) assumes a network that neither loses nor
 * duplicates messages. The fault plane breaks that assumption on the
 * two message streams the protocol cannot survive losing:
 *
 *  - **permission**: a processor's commit request to the arbiter and
 *    the grant/deny reply (arb.req_loss, arb.grant_loss, net.drop,
 *    net.dup);
 *  - **commit W**: a committed W signature on its way to a directory
 *    module (dir.commit_loss, net.drop, net.dup; dir.nack refuses it
 *    at arrival).
 *
 * The channel restores exactly-once delivery underneath both, so the
 * processors, the arbiters and the directory commit service speak the
 * unhardened protocol. It alone owns the transaction ids, the loss and
 * duplicate rolls on these streams, the resend timers, and the
 * receiver-side duplicate filters.
 *
 * Loss model: a lost request is lost with its duplicate (no net.dup
 * roll); a lost reply or commit W can still arrive through its
 * duplicate. A lost message still occupies the wire.
 *
 * Retransmission is armed iff the fault plane can lose or duplicate
 * messages (FaultPlane::requiresHardening). Without an active fault
 * plane each message is one Network::send with the caller's
 * footprint, and no timer is armed.
 *
 * Node numbering follows System: processors 0..P-1, directory modules
 * P..P+D-1, arbiter modules from P+D.
 */

#ifndef BULKSC_NETWORK_RELIABLE_CHANNEL_HH
#define BULKSC_NETWORK_RELIABLE_CHANNEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "network/network.hh"
#include "sim/fault_plane.hh"
#include "sim/stats.hh"

namespace bulksc {

/** Retransmission settings (used only under lossy fault mixes). */
struct ChannelParams
{
    /** Retransmissions before a sender gives up. A give-up wedges the
     *  sender, and the watchdog reports the deadlock. */
    unsigned maxResend = 8;

    /** Base resend timeout; doubles per attempt (with deterministic
     *  jitter) up to ReliableChannel::kResendTimeoutCap. */
    Tick resendTimeout = 256;
};

struct ChannelStats
{
    // --- permission stream ---
    std::uint64_t resends = 0;       //!< requests retransmitted
    std::uint64_t resendGiveUps = 0; //!< requests abandoned
    std::uint64_t dupRequests = 0;   //!< request copies filtered
    std::uint64_t lostRequests = 0;
    std::uint64_t lostReplies = 0;

    /** Attempts each answered request needed (sampled only while
     *  retransmission is armed). */
    Histogram resendAttempts;

    // --- commit-W stream ---
    std::uint64_t commitResends = 0;
    std::uint64_t commitAbandoned = 0;
    std::uint64_t dirNacks = 0; //!< W deliveries refused at arrival
};

class ReliableChannel : public SimObject
{
  public:
    /** Ceiling of the exponential resend backoff. */
    static constexpr Tick kResendTimeoutCap = 8192;

    struct Call;

    /**
     * Handle of one permission transaction: the sender's transmit
     * function receives it, and the receiver answers through it.
     */
    using ReplyPort = std::shared_ptr<Call>;

    ReliableChannel(EventQueue &eq, Network &net, FaultPlane &faults,
                    const ChannelParams &prm, unsigned num_procs,
                    unsigned num_dirs);

    Network &network() { return net; }

    /** True iff lost or duplicated messages are retransmitted. */
    bool hardened() const { return harden; }

    // --- permission stream: request/reply -------------------------------

    /**
     * Open a transaction from processor @p p. @p transmit puts one
     * attempt on the wire: it runs now and on every resend, and must
     * pass its request to sendRequest() with the port it is given.
     * @p on_reply runs once, for the first reply to arrive. @p label
     * tags resends in the event trace (the chunk sequence number).
     */
    void call(ProcId p, std::uint64_t label,
              std::function<void(const ReplyPort &)> transmit,
              std::function<void(bool)> on_reply);

    /**
     * Send the request of @p port's transaction to node @p dst.
     * @p deliver runs at the receiver for the first copy. A later copy
     * of a decided transaction is answered with the cached reply; one
     * of an undecided transaction is dropped.
     */
    void sendRequest(const ReplyPort &port, NodeId dst,
                     TrafficClass cls, unsigned bits,
                     std::function<void()> deliver,
                     const MsgFootprint &fp = MsgFootprint{});

    /** Answer @p port's transaction with @p ok from node @p src and
     *  cache the decision for copies. @p w, the decided chunk's W,
     *  is the reply's footprint (the explorer commutes replies to
     *  different processors by it). */
    void sendReply(const ReplyPort &port, NodeId src, bool ok,
                   std::shared_ptr<const Signature> w = nullptr);

    /** Permission transactions of @p p still waiting for a reply. */
    std::size_t inflightCalls(ProcId p) const;

    // --- commit-W stream: one-way ---------------------------------------

    /** Deliver a message exactly once: @p deliver runs at the first
     *  copy the receiver accepts, and until then the message is
     *  resent. */
    void post(NodeId src, NodeId dst, TrafficClass cls, unsigned bits,
              std::function<void()> deliver,
              const MsgFootprint &fp = MsgFootprint{});

    const ChannelStats &stats() const { return stats_; }

    /** Digest of the transaction ids, in-flight calls and receiver
     *  decision cache, for explorer revisit pruning. Timers and
     *  in-flight commit Ws are excluded, as they are everywhere else. */
    std::uint64_t fingerprint() const;

  private:
    struct Sender
    {
        std::uint64_t nextTxn = 0;
        std::vector<std::uint64_t> inflight; //!< unanswered txn ids
    };

    /** The receiver's record of a processor's latest transaction. */
    struct Received
    {
        std::uint64_t txn = ~std::uint64_t{0};
        bool decided = false;
        bool ok = false;
    };

    /** Send the next attempt of @p c and arm its resend timer. */
    void transmit(const std::shared_ptr<Call> &c);

    std::uint16_t trackOf(NodeId n) const;

    bool lost(FaultKind kind, TrafficClass cls);
    bool duplicated(TrafficClass cls);

    Network &net;
    FaultPlane &faults;
    ChannelParams prm;
    bool harden;
    NodeId firstDirNode;
    NodeId firstArbNode;

    std::vector<Sender> senders;
    std::vector<Received> received;

    /** Commit-W ids, in send order across the machine. */
    std::uint64_t nextPostId = 0;

    ChannelStats stats_;
};

} // namespace bulksc

#endif // BULKSC_NETWORK_RELIABLE_CHANNEL_HH
