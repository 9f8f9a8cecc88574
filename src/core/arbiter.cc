#include "core/arbiter.hh"

#include "sim/event_trace.hh"
#include "sim/rng.hh"
#include "sim/logging.hh"

namespace bulksc {

Arbiter::Arbiter(EventQueue &eq, ReliableChannel &c, NodeId node_,
                 Tick processing_, bool rsig_opt, unsigned max_commits)
    : SimObject(eq, "arbiter"), chan(c), net(c.network()), node(node_),
      processing(processing_), rsigOpt(rsig_opt),
      maxCommits(max_commits)
{}

void
Arbiter::touchStats()
{
    Tick now = curTick();
    Tick dt = now - lastTouch;
    stats_.pendingIntegral +=
        static_cast<double>(wList.size()) * static_cast<double>(dt);
    if (!wList.empty())
        stats_.nonEmptyTicks += dt;
    lastTouch = now;
}

bool
Arbiter::collides(const Signature &s) const
{
    for (const auto &w : wList) {
        if (w->intersects(s))
            return true;
    }
    return false;
}

void
Arbiter::requestCommit(ProcId p, std::shared_ptr<Signature> w,
                       RProvider r_provider,
                       ReliableChannel::ReplyPort port)
{
    // Request message: with the RSig optimization only W travels.
    unsigned bits = w->empty() ? 16 : w->compressedBits();
    std::shared_ptr<Signature> upfront_r;
    if (!rsigOpt) {
        upfront_r = r_provider();
        MsgFootprint rfp;
        rfp.rsig = upfront_r;
        net.send(p, node, TrafficClass::RdSig,
                 upfront_r ? upfront_r->compressedBits() : 16, [] {},
                 rfp);
    }

    auto deliver = [this, p, w, upfront_r, r_provider, port] {
        ++stats_.requests;

        // Pre-arbitration: reject everyone but the owner.
        if (preArbOwner != ~ProcId{0} && preArbOwner != p) {
            ++stats_.denials;
            EVENT_TRACE(TraceEventType::ArbDecision, curTick(),
                        trackArb(0), 0, wList.size(), 0, p);
            eventq.scheduleAfter(processing, [this, w, port] {
                chan.sendReply(port, node, false, w);
            });
            return;
        }
        if (preArbOwner == p)
            preArbOwner = ~ProcId{0};

        decide(p, w, upfront_r, r_provider, port);
    };

    MsgFootprint reqFp;
    reqFp.wsig = w;
    reqFp.rsig = upfront_r;
    chan.sendRequest(port, node, TrafficClass::WrSig, bits, deliver,
                     reqFp);
}

void
Arbiter::decide(ProcId p, const std::shared_ptr<Signature> &w,
                std::shared_ptr<Signature> r, RProvider r_provider,
                ReliableChannel::ReplyPort port)
{
    // The entire check runs atomically at the decision tick: the W
    // list is examined exactly once, and if the R signature turns out
    // to be needed but absent (RSig optimization), it is fetched and
    // the decision re-runs against the then-current list.
    eventq.scheduleAfter(processing, [this, p, w, r, r_provider,
                                      port] {
        // decision: 0 = deny, 1 = grant, 2 = fault-injected grant.
        auto finalize = [this, p, port](
                            std::uint8_t decision,
                            const std::shared_ptr<Signature> &w_) {
            bool ok = decision != 0;
            EVENT_TRACE(TraceEventType::ArbDecision, curTick(),
                        trackArb(0), 0, wList.size(), decision, p);
            if (ok) {
                ++stats_.grants;
                if (w_->empty()) {
                    ++stats_.emptyWCommits;
                } else {
                    touchStats();
                    wList.push_back(w_);
                    wInsertTick[w_.get()] = curTick();
                }
            } else {
                ++stats_.denials;
            }
            tryActivatePreArb();
            chan.sendReply(port, node, ok, w_);
        };

        if (wList.empty()) {
            finalize(1, w);
            return;
        }
        if (!r) {
            // RSig slow path: fetch R, then re-decide.
            ++stats_.rsigRequired;
            net.send(node, p, TrafficClass::Other, 16,
                     [this, p, w, r_provider, port] {
                auto fetched = r_provider();
                if (!fetched) {
                    // Chunk vanished (squashed); deny.
                    ++stats_.denials;
                    EVENT_TRACE(TraceEventType::ArbDecision, curTick(),
                                trackArb(0), 0, wList.size(), 0, p);
                    tryActivatePreArb();
                    chan.sendReply(port, node, false, w);
                    return;
                }
                MsgFootprint rfp;
                rfp.rsig = fetched;
                net.send(p, node, TrafficClass::RdSig,
                         fetched->compressedBits(),
                         [this, p, w, fetched, r_provider, port] {
                             decide(p, w, fetched, r_provider, port);
                         },
                         rfp);
            });
            return;
        }
        std::uint8_t decision = !collides(*r) && !collides(*w) &&
                                wList.size() < maxCommits;
        // Fault injection (negative testing): let every Nth colliding
        // request through, breaking the disambiguation the checkers
        // are supposed to catch. The capacity limit still applies.
        if (!decision && faults && wList.size() < maxCommits &&
            faults->skipCollision()) {
            ++stats_.faultInjectedGrants;
            decision = 2;
        }
        finalize(decision, w);
    });
}

void
Arbiter::commitDone(const std::shared_ptr<Signature> &w)
{
    for (auto it = wList.begin(); it != wList.end(); ++it) {
        if (it->get() == w.get()) {
            touchStats();
            auto in = wInsertTick.find(w.get());
            if (in != wInsertTick.end()) {
                stats_.occupancy.sample(
                    static_cast<double>(curTick() - in->second));
                wInsertTick.erase(in);
            }
            wList.erase(it);
            tryActivatePreArb();
            return;
        }
    }
}

void
Arbiter::preArbitrate(ProcId p, std::function<void()> granted)
{
    ++stats_.preArbitrations;
    preArbQueue.emplace_back(p, std::move(granted));
    tryActivatePreArb();
}

void
Arbiter::tryActivatePreArb()
{
    if (preArbOwner != ~ProcId{0} || preArbQueue.empty() ||
        !wList.empty()) {
        return;
    }
    auto [p, granted] = std::move(preArbQueue.front());
    preArbQueue.pop_front();
    preArbOwner = p;
    net.send(node, p, TrafficClass::Other, 8,
             [granted = std::move(granted)] { granted(); });
}

std::uint64_t
Arbiter::fingerprint() const
{
    std::uint64_t h = mix64(0x415242ULL); // "ARB"
    std::uint64_t wl = 0;
    for (const auto &w : wList)
        wl += mix64(w->hash());
    h = mix64(h ^ wl);
    h = mix64(h ^ preArbOwner);
    std::uint64_t pq = 0x9; // non-zero so an empty queue still folds
    for (const auto &e : preArbQueue)
        pq = mix64(pq ^ e.first);
    return mix64(h ^ pq);
}

} // namespace bulksc
