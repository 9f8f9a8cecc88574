#include "network/reliable_channel.hh"

#include "sim/event_trace.hh"
#include "sim/rng.hh"

namespace bulksc {

namespace {

/** Size of a grant/deny reply, bits. */
constexpr unsigned kReplyBits = 8;

/** Jitter salt of the commit-W resend chain (the permission chain is
 *  salted with the sender's id). */
constexpr std::uint64_t kCommitWSalt = 0xd100;

} // namespace

/** One transaction: a permission request/reply or a commit W. */
struct ReliableChannel::Call
{
    bool permission = false;
    ProcId sender = 0;    //!< permission stream only
    std::uint64_t id = 0; //!< per-sender txn id, or commit-W id
    std::uint64_t salt = 0;
    std::uint16_t track = 0; //!< Resend trace events go here...
    std::uint64_t label = 0; //!< ...tagged with this
    std::function<void(const ReplyPort &)> transmit;
    std::function<void(bool)> onReply;
    unsigned attempts = 0;
    bool done = false; //!< replied to, or commit W accepted
};

ReliableChannel::ReliableChannel(EventQueue &eq, Network &n,
                                 FaultPlane &f, const ChannelParams &p,
                                 unsigned num_procs, unsigned num_dirs)
    : SimObject(eq, "channel"), net(n), faults(f), prm(p),
      harden(f.requiresHardening()),
      firstDirNode(static_cast<NodeId>(num_procs)),
      firstArbNode(static_cast<NodeId>(num_procs + num_dirs)),
      senders(num_procs), received(num_procs)
{}

std::uint16_t
ReliableChannel::trackOf(NodeId n) const
{
    if (n < firstDirNode)
        return trackProc(static_cast<ProcId>(n));
    if (n < firstArbNode)
        return trackDir(n - firstDirNode);
    return trackArb(n - firstArbNode);
}

bool
ReliableChannel::lost(FaultKind kind, TrafficClass cls)
{
    return faults.active() &&
           faults.dropMessage(kind, curTick(), static_cast<int>(cls));
}

bool
ReliableChannel::duplicated(TrafficClass cls)
{
    return faults.active() &&
           faults.duplicateMessage(curTick(), static_cast<int>(cls));
}

void
ReliableChannel::transmit(const std::shared_ptr<Call> &c)
{
    ++c->attempts;
    if (c->attempts > 1) {
        ++(c->permission ? stats_.resends : stats_.commitResends);
        EVENT_TRACE(TraceEventType::Resend, curTick(), c->track,
                    c->label, c->attempts - 1);
    }
    c->transmit(c);
    if (!harden)
        return;

    // Capped exponential backoff with deterministic jitter, so resend
    // storms from several senders decohere reproducibly.
    unsigned shift = c->attempts < 16 ? c->attempts - 1 : 15;
    Tick base = prm.resendTimeout << shift;
    if (base > kResendTimeoutCap)
        base = kResendTimeoutCap;
    Tick delay = jitteredBackoff(base, (c->salt << 48) ^ (c->id << 8) ^
                                           c->attempts);
    eventq.scheduleAfter(delay, [this, c, sent = c->attempts] {
        if (c->done || c->attempts != sent)
            return;
        if (c->attempts <= prm.maxResend) {
            transmit(c);
            return;
        }
        // The message (or every reply) keeps vanishing. The sender
        // stalls, and the watchdog turns the stall into a deadlock
        // report.
        if (c->permission) {
            ++stats_.resendGiveUps;
            std::erase(senders[c->sender].inflight, c->id);
        } else {
            ++stats_.commitAbandoned;
        }
        EVENT_TRACE(TraceEventType::ResendGiveUp, curTick(), c->track,
                    c->label, c->attempts, c->permission ? 1 : 0,
                    static_cast<std::uint32_t>(c->id));
    });
}

// --- permission stream ------------------------------------------------------

void
ReliableChannel::call(ProcId p, std::uint64_t label,
                      std::function<void(const ReplyPort &)> transmit_fn,
                      std::function<void(bool)> on_reply)
{
    auto c = std::make_shared<Call>();
    c->permission = true;
    c->sender = p;
    c->id = ++senders[p].nextTxn;
    c->salt = p;
    c->track = trackProc(p);
    c->label = label;
    c->transmit = std::move(transmit_fn);
    c->onReply = std::move(on_reply);
    senders[p].inflight.push_back(c->id);
    transmit(c);
}

void
ReliableChannel::sendRequest(const ReplyPort &port, NodeId dst,
                             TrafficClass cls, unsigned bits,
                             std::function<void()> deliver,
                             const MsgFootprint &fp)
{
    const ProcId p = port->sender;
    if (lost(FaultKind::ArbReqLoss, cls)) {
        ++stats_.lostRequests;
        EVENT_TRACE(TraceEventType::FaultInject, curTick(), trackOf(dst),
                    port->id,
                    static_cast<std::uint64_t>(FaultKind::ArbReqLoss));
        net.send(p, dst, cls, bits, [] {}, fp);
        return;
    }

    auto arrive = [this, port, dst, deliver = std::move(deliver)] {
        Received &rec = received[port->sender];
        if (rec.txn == port->id) {
            // A copy of a decided transaction gets the cached reply
            // (deciding twice would, e.g., make a granted W collide
            // with itself); one of an undecided transaction is
            // dropped, as its reply is still to come.
            ++stats_.dupRequests;
            if (rec.decided)
                sendReply(port, dst, rec.ok);
            return;
        }
        rec = Received{port->id, false, false};
        deliver();
    };
    net.send(p, dst, cls, bits, arrive, fp);
    if (duplicated(cls))
        net.send(p, dst, cls, bits, arrive, fp);
}

void
ReliableChannel::sendReply(const ReplyPort &port, NodeId src, bool ok,
                           std::shared_ptr<const Signature> w)
{
    Received &rec = received[port->sender];
    rec.decided = true;
    rec.ok = ok;

    const ProcId p = port->sender;
    MsgFootprint fp;
    fp.wsig = std::move(w);
    auto arrive = [this, port, ok] {
        // Duplicated replies, and one reply per copy of a decided
        // request: only the first acts.
        if (port->done)
            return;
        port->done = true;
        std::erase(senders[port->sender].inflight, port->id);
        if (harden)
            stats_.resendAttempts.sample(
                static_cast<double>(port->attempts));
        port->onReply(ok);
    };
    if (lost(FaultKind::ArbGrantLoss, TrafficClass::Other)) {
        ++stats_.lostReplies;
        EVENT_TRACE(TraceEventType::FaultInject, curTick(), trackOf(src),
                    rec.txn,
                    static_cast<std::uint64_t>(FaultKind::ArbGrantLoss));
        net.send(src, p, TrafficClass::Other, kReplyBits, [] {}, fp);
    } else {
        net.send(src, p, TrafficClass::Other, kReplyBits, arrive, fp);
    }
    if (duplicated(TrafficClass::Other))
        net.send(src, p, TrafficClass::Other, kReplyBits, arrive, fp);
}

std::size_t
ReliableChannel::inflightCalls(ProcId p) const
{
    return senders[p].inflight.size();
}

// --- commit-W stream --------------------------------------------------------

void
ReliableChannel::post(NodeId src, NodeId dst, TrafficClass cls,
                      unsigned bits, std::function<void()> deliver,
                      const MsgFootprint &fp)
{
    auto c = std::make_shared<Call>();
    c->id = ++nextPostId;
    c->salt = kCommitWSalt;
    c->track = trackOf(dst);
    c->label = c->id;
    c->transmit = [this, src, dst, cls, bits, fp,
                   deliver = std::move(deliver)](const ReplyPort &m) {
        auto arrive = [this, m, cls, deliver] {
            if (m->done)
                return; // duplicate or late retransmission
            if (lost(FaultKind::DirNack, cls)) {
                // The receiver refuses service (resource pressure). No
                // nack message travels; the sender's timeout drives
                // the retry.
                ++stats_.dirNacks;
                EVENT_TRACE(TraceEventType::DirNack, curTick(), m->track,
                            m->id, 0);
                return;
            }
            m->done = true;
            deliver();
        };
        if (lost(FaultKind::DirCommitLoss, cls)) {
            EVENT_TRACE(TraceEventType::FaultInject, curTick(), m->track,
                        m->id,
                        static_cast<std::uint64_t>(
                            FaultKind::DirCommitLoss));
            net.send(src, dst, cls, bits, [] {}, fp);
        } else {
            net.send(src, dst, cls, bits, arrive, fp);
        }
        if (duplicated(cls))
            net.send(src, dst, cls, bits, arrive, fp);
    };
    transmit(c);
}

std::uint64_t
ReliableChannel::fingerprint() const
{
    std::uint64_t h = mix64(0x52434cULL); // "RCL"
    for (const Sender &s : senders) {
        std::uint64_t in = 0;
        for (std::uint64_t txn : s.inflight)
            in += mix64(txn);
        h = mix64(h ^ s.nextTxn);
        h = mix64(h ^ in);
    }
    for (const Received &r : received) {
        h = mix64(h ^ r.txn ^ (std::uint64_t{r.decided} << 62) ^
                  (std::uint64_t{r.ok} << 61));
    }
    return h;
}

} // namespace bulksc
