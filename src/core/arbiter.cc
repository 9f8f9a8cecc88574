#include "core/arbiter.hh"

#include <algorithm>

#include "sim/event_trace.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bulksc {

bool
ArbiterModule::collides(const Signature &s) const
{
    for (const auto &w : ws) {
        if (w->intersects(s))
            return true;
    }
    return false;
}

bool
ArbiterModule::erase(const Signature *w)
{
    for (auto it = ws.begin(); it != ws.end(); ++it) {
        if (it->get() == w) {
            ws.erase(it);
            return true;
        }
    }
    return false;
}

void
ArbiterModule::touch(Tick now)
{
    Tick dt = now - lastTouch;
    pendingIntegral += static_cast<double>(live) * static_cast<double>(dt);
    if (live)
        nonEmptyTicks += dt;
    lastTouch = now;
}

void
ArbiterModule::accept(const Signature *w, Tick now)
{
    touch(now);
    ++live;
    insertTick[w] = now;
}

void
ArbiterModule::release(const Signature *w, Tick now, bool listed)
{
    if (listed && live) {
        touch(now);
        --live;
    }
    auto in = insertTick.find(w);
    if (in != insertTick.end()) {
        occ.sample(static_cast<double>(now - in->second));
        insertTick.erase(in);
    }
}

double
ArbiterModule::avgPendingW(Tick end) const
{
    // The interval after the last change still counts: a W listed
    // until the end of the run is pending all the while.
    if (!end)
        return 0;
    return (pendingIntegral +
            static_cast<double>(live) * static_cast<double>(tail(end))) /
           static_cast<double>(end);
}

double
ArbiterModule::nonEmptyFrac(Tick end) const
{
    if (!end)
        return 0;
    return static_cast<double>(nonEmptyTicks + (live ? tail(end) : 0)) /
           static_cast<double>(end);
}

std::uint64_t
ArbiterModule::fold() const
{
    std::uint64_t h = 0;
    for (const auto &w : ws)
        h += mix64(w->hash());
    return h;
}

Arbiter::Arbiter(EventQueue &eq, ReliableChannel &c, NodeId first_node,
                 unsigned count, Tick processing_, bool rsig_opt,
                 unsigned max_commits)
    : SimObject(eq, "arbiter"), chan(c), net(c.network()),
      firstNode(first_node), processing(processing_), rsigOpt(rsig_opt),
      maxCommits(max_commits)
{
    fatal_if(count == 0, "need at least one arbiter module");
    modules.resize(count);
}

void
Arbiter::setFaultPlane(FaultPlane *fp)
{
    fatal_if(!central() && fp && fp->has(FaultKind::ArbSkipCollision),
             "arb.skip_collision injection needs the central arbiter "
             "(numArbiters <= 1)");
    faults = fp;
}

void
Arbiter::acceptIn(ArbiterModule &m, const std::shared_ptr<Signature> &w)
{
    tally().accept(w.get(), curTick());
    m.insert(w);
}

void
Arbiter::requestCommit(ProcId p, std::shared_ptr<Signature> w,
                       RProvider r_provider,
                       ReliableChannel::ReplyPort port)
{
    if (!central()) {
        requestRanged(p, std::move(w), r_provider, port);
        return;
    }

    // Request message: with the RSig optimization only W travels.
    unsigned bits = w->empty() ? 16 : w->compressedBits();
    std::shared_ptr<Signature> upfront_r;
    if (!rsigOpt) {
        upfront_r = r_provider();
        MsgFootprint rfp;
        rfp.rsig = upfront_r;
        net.send(p, firstNode, TrafficClass::RdSig,
                 upfront_r ? upfront_r->compressedBits() : 16, [] {},
                 rfp);
    }

    auto deliver = [this, p, w, upfront_r, r_provider, port] {
        ++stats_.requests;

        // Pre-arbitration: reject everyone but the owner.
        if (preArbOwner != ~ProcId{0} && preArbOwner != p) {
            ++stats_.denials;
            EVENT_TRACE(TraceEventType::ArbDecision, curTick(),
                        trackArb(0), 0, modules[0].size(), 0, p);
            eventq.scheduleAfter(processing, [this, w, port] {
                chan.sendReply(port, firstNode, false, w);
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
    chan.sendRequest(port, firstNode, TrafficClass::WrSig, bits, deliver,
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
        ArbiterModule &list = modules[0];
        // decision: 0 = deny, 1 = grant, 2 = fault-injected grant.
        auto finalize = [this, p, port, &list](
                            std::uint8_t decision,
                            const std::shared_ptr<Signature> &w_) {
            bool ok = decision != 0;
            EVENT_TRACE(TraceEventType::ArbDecision, curTick(),
                        trackArb(0), 0, list.size(), decision, p);
            if (ok) {
                ++stats_.grants;
                if (w_->empty())
                    ++stats_.emptyWCommits;
                else
                    acceptIn(list, w_);
            } else {
                ++stats_.denials;
            }
            tryActivatePreArb();
            chan.sendReply(port, firstNode, ok, w_);
        };

        if (list.size() == 0) {
            finalize(1, w);
            return;
        }
        if (!r) {
            // RSig slow path: fetch R, then re-decide.
            ++stats_.rsigRequired;
            net.send(firstNode, p, TrafficClass::Other, 16,
                     [this, p, w, r_provider, port] {
                auto fetched = r_provider();
                if (!fetched) {
                    // Chunk vanished (squashed); deny.
                    ++stats_.denials;
                    EVENT_TRACE(TraceEventType::ArbDecision, curTick(),
                                trackArb(0), 0, modules[0].size(), 0, p);
                    tryActivatePreArb();
                    chan.sendReply(port, firstNode, false, w);
                    return;
                }
                MsgFootprint rfp;
                rfp.rsig = fetched;
                net.send(p, firstNode, TrafficClass::RdSig,
                         fetched->compressedBits(),
                         [this, p, w, fetched, r_provider, port] {
                             decide(p, w, fetched, r_provider, port);
                         },
                         rfp);
            });
            return;
        }
        std::uint8_t decision = !list.collides(*r) &&
                                !list.collides(*w) &&
                                list.size() < maxCommits;
        // Fault injection (negative testing): let every Nth colliding
        // request through, breaking the disambiguation the checkers
        // are supposed to catch. The capacity limit still applies.
        if (!decision && faults && list.size() < maxCommits &&
            faults->skipCollision()) {
            ++stats_.faultInjectedGrants;
            decision = 2;
        }
        finalize(decision, w);
    });
}

std::vector<unsigned>
Arbiter::rangesOf(const Signature &s) const
{
    // Same coarse granules as MemorySystem::dirOf.
    std::vector<bool> mark(modules.size(), false);
    std::vector<unsigned> out;
    for (LineAddr l : s.exactLines()) {
        auto r = static_cast<unsigned>((l >> 10) % modules.size());
        if (!mark[r]) {
            mark[r] = true;
            out.push_back(r);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
Arbiter::finishDecision(const ReliableChannel::ReplyPort &reply, bool ok,
                        NodeId from, ProcId p,
                        std::shared_ptr<Signature> w)
{
    if (ok)
        ++stats_.grants;
    else
        ++stats_.denials;
    EVENT_TRACE(TraceEventType::ArbDecision, curTick(),
                trackArb(static_cast<unsigned>(from - firstNode)), 0,
                gArb.pending(), ok ? 1 : 0, p);
    chan.sendReply(reply, from, ok, std::move(w));
}

void
Arbiter::requestRanged(ProcId p, std::shared_ptr<Signature> w,
                       const RProvider &r_provider,
                       ReliableChannel::ReplyPort reply)
{
    NodeId gnode = firstNode + static_cast<NodeId>(modules.size());

    // The processor knows from the signatures which arbiter(s) to
    // contact (Section 4.2.3).
    auto r = r_provider();
    std::vector<unsigned> w_ranges = rangesOf(*w);
    std::vector<unsigned> ranges = w_ranges;
    if (r) {
        for (unsigned m : rangesOf(*r)) {
            if (std::find(ranges.begin(), ranges.end(), m) ==
                ranges.end()) {
                ranges.push_back(m);
            }
        }
    }
    std::sort(ranges.begin(), ranges.end());
    if (ranges.empty())
        ranges.push_back(0);

    if (ranges.size() == 1) {
        // Single-range commit: one arbiter module (Figure 8(a)).
        unsigned m = ranges[0];
        NodeId mnode = firstNode + m;
        bool w_here = !w_ranges.empty();
        unsigned bits = w->empty() ? 16 : w->compressedBits();
        if (!rsigOpt && r)
            net.send(p, mnode, TrafficClass::RdSig, r->compressedBits(),
                     [] {});
        chan.sendRequest(reply, mnode, TrafficClass::WrSig, bits,
                         [this, p, w, r, m, mnode, w_here, reply] {
            ++stats_.requests;
            ++nSingle;
            if (preArbOwner != ~ProcId{0} && preArbOwner != p) {
                finishDecision(reply, false, mnode, p, w);
                return;
            }
            bool was_owner = preArbOwner == p;
            // RSig round-trip latency is charged when the list is
            // non-empty at arrival; the decision itself (collision
            // check + list insertion) executes atomically later.
            bool need_r = modules[m].size() != 0;
            if (need_r && rsigOpt)
                ++stats_.rsigRequired;
            eventq.scheduleAfter(
                processing + (need_r && rsigOpt
                                  ? 2 * net.latencyFor(
                                            r ? r->compressedBits()
                                              : 16)
                                  : 0),
                [this, p, w, r, m, mnode, w_here, was_owner, reply] {
                    ArbiterModule &mod = modules[m];
                    bool ok = !mod.collides(*w) &&
                              (!r || mod.size() == 0 || !mod.collides(*r));
                    if (ok) {
                        if (w->empty())
                            ++stats_.emptyWCommits;
                        else if (w_here)
                            acceptIn(mod, w);
                    }
                    if (was_owner) {
                        preArbOwner = ~ProcId{0};
                        tryActivatePreArb();
                    }
                    finishDecision(reply, ok, mnode, p, w);
                });
        });
        return;
    }

    // Multi-range commit: coordinate through the G-arbiter
    // (Figure 8(b)). Both signatures travel with the request.
    unsigned bits = (w->empty() ? 16 : w->compressedBits()) +
                    (r ? r->compressedBits() : 16);
    chan.sendRequest(reply, gnode, TrafficClass::WrSig, bits,
                     [this, p, w, r, w_ranges, ranges, gnode, reply] {
        ++stats_.requests;
        ++nMulti;
        if (preArbOwner != ~ProcId{0} && preArbOwner != p) {
            finishDecision(reply, false, gnode, p, w);
            return;
        }
        bool was_owner = preArbOwner == p;
        if (was_owner)
            preArbOwner = ~ProcId{0};

        // Early deny from the G-arbiter's own W cache.
        if (gArb.collides(*w) || (r && gArb.collides(*r))) {
            if (was_owner)
                tryActivatePreArb();
            finishDecision(reply, false, gnode, p, w);
            return;
        }

        // Fan the signatures out to the involved modules; each module
        // votes and reserves on yes.
        auto votes = std::make_shared<unsigned>(
            static_cast<unsigned>(ranges.size()));
        auto all_ok = std::make_shared<bool>(true);
        auto reserved = std::make_shared<std::vector<unsigned>>();
        unsigned sig_bits = w->compressedBits() +
                            (r ? r->compressedBits() : 16);

        for (unsigned m : ranges) {
            bool w_here =
                std::find(w_ranges.begin(), w_ranges.end(), m) !=
                w_ranges.end();
            net.send(gnode, firstNode + m, TrafficClass::WrSig,
                     sig_bits,
                     [this, p, w, r, m, w_here, gnode, votes, all_ok,
                      reserved, was_owner, reply] {
                bool ok = !modules[m].collides(*w) &&
                          (!r || !modules[m].collides(*r));
                if (ok && w_here && !w->empty()) {
                    modules[m].insert(w);
                    reserved->push_back(m);
                }
                // Vote back to the G-arbiter.
                net.send(firstNode + m, gnode, TrafficClass::Other, 8,
                         [this, p, w, ok, gnode, votes, all_ok,
                          reserved, was_owner, reply] {
                    if (!ok)
                        *all_ok = false;
                    if (--*votes != 0)
                        return;
                    eventq.scheduleAfter(processing, [this, p, w,
                                                      gnode, all_ok,
                                                      reserved,
                                                      was_owner,
                                                      reply] {
                        if (*all_ok) {
                            if (w->empty())
                                ++stats_.emptyWCommits;
                            else
                                acceptIn(gArb, w);
                        } else {
                            for (unsigned rm : *reserved)
                                modules[rm].erase(w.get());
                        }
                        if (was_owner)
                            tryActivatePreArb();
                        finishDecision(reply, *all_ok, gnode, p, w);
                    });
                });
            });
        }
    });
}

void
Arbiter::commitDone(const std::shared_ptr<Signature> &w)
{
    bool listed = false;
    for (auto &m : modules)
        listed |= m.erase(w.get());
    if (!central())
        listed |= gArb.erase(w.get());
    tally().release(w.get(), curTick(), listed);
    // The central arbiter's state is unchanged by a W it does not
    // list; the distributed one retries the queue on every release.
    if (listed || !central())
        tryActivatePreArb();
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
        tally().pending() != 0) {
        return;
    }
    auto [p, granted] = std::move(preArbQueue.front());
    preArbQueue.pop_front();
    preArbOwner = p;
    // Granted by the central arbiter, or by the G-arbiter.
    NodeId from = central() ? firstNode
                            : firstNode + static_cast<NodeId>(modules.size());
    net.send(from, p, TrafficClass::Other, 8,
             [granted = std::move(granted)] { granted(); });
}

std::uint64_t
Arbiter::fingerprint() const
{
    std::uint64_t h = mix64(central() ? 0x415242ULL   // "ARB"
                                      : 0x444152ULL); // "DAR"
    for (const ArbiterModule &m : modules)
        h = mix64(h ^ m.fold());
    if (!central()) {
        h = mix64(h ^ gArb.fold());
        h = mix64(h ^ gArb.pending());
    }
    h = mix64(h ^ preArbOwner);
    std::uint64_t pq = 0x9; // non-zero so an empty queue still folds
    for (const auto &e : preArbQueue)
        pq = mix64(pq ^ e.first);
    return mix64(h ^ pq);
}

} // namespace bulksc
