/**
 * @file
 * Unit tests for the reliable channel: receiver-side duplicate
 * filtering and the decision cache, first-reply-wins, the resend
 * chain's backoff and give-up, nacked commit-W redelivery, and the
 * pass-through behaviour without lossy faults.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/arbiter.hh"
#include "network/reliable_channel.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

FaultPlane
planeFor(const std::string &spec)
{
    std::vector<FaultPoint> pts;
    std::string err;
    EXPECT_TRUE(FaultPlane::parseSpec(spec, pts, err)) << err;
    FaultPlane fp;
    fp.configure(std::move(pts), /*seed=*/1);
    return fp;
}

/** A central arbiter behind a channel with the given fault spec. */
struct Harness
{
    explicit Harness(const std::string &spec)
        : faults(planeFor(spec)), net(eq, NetworkConfig{}),
          chan(eq, net, faults, ChannelParams{}, /*num_procs=*/8,
               /*num_dirs=*/1),
          arb(eq, chan, 9, /*count=*/1, /*processing=*/5, /*rsig=*/true)
    {}

    std::shared_ptr<Signature>
    sig(std::initializer_list<LineAddr> lines)
    {
        auto s = std::make_shared<Signature>();
        for (LineAddr l : lines)
            s->insert(l);
        return s;
    }

    /** Request commit for @p p; every reply that acts is recorded. */
    void
    submit(ProcId p, std::shared_ptr<Signature> w)
    {
        chan.call(
            p, 0,
            [this, p, w](const ReliableChannel::ReplyPort &port) {
                arb.requestCommit(
                    p, w, [] { return std::make_shared<Signature>(); },
                    port);
            },
            [this](bool ok) { replies.push_back(ok); });
    }

    EventQueue eq;
    FaultPlane faults;
    Network net;
    ReliableChannel chan;
    Arbiter arb;
    std::vector<bool> replies;
};

TEST(ReliableChannel, DecidedDuplicateAnsweredFromCache)
{
    // The grant is lost, so the request is resent. The resend must be
    // answered from the decision cache, never re-decided: the granted
    // W is already in the list and would collide with itself.
    Harness h("arb.grant_loss=1@0:100");
    ASSERT_TRUE(h.chan.hardened());
    h.submit(0, h.sig({100}));
    h.eq.run();
    ASSERT_EQ(h.replies, std::vector<bool>{true});
    EXPECT_EQ(h.chan.stats().lostReplies, 1u);
    EXPECT_EQ(h.chan.stats().resends, 1u);
    EXPECT_EQ(h.chan.stats().dupRequests, 1u);
    EXPECT_EQ(h.arb.stats().requests, 1u);
    EXPECT_EQ(h.arb.stats().grants, 1u);
    EXPECT_EQ(h.arb.pendingW(), 1u); // W not listed twice
    EXPECT_EQ(h.chan.inflightCalls(0), 0u);
}

TEST(ReliableChannel, DuplicateOfDenialGetsCachedDenial)
{
    Harness h("arb.grant_loss=1@1000:1100");
    h.submit(0, h.sig({100}));
    h.eq.run();
    ASSERT_EQ(h.replies, std::vector<bool>{true});
    // Proc 1 collides with proc 0's W; its denial is lost, and the
    // resend gets the cached denial back.
    h.eq.schedule(1000, [&] { h.submit(1, h.sig({100})); });
    h.eq.run();
    EXPECT_EQ(h.replies, (std::vector<bool>{true, false}));
    EXPECT_EQ(h.chan.stats().dupRequests, 1u);
    EXPECT_EQ(h.arb.stats().denials, 1u); // decided exactly once
}

TEST(ReliableChannel, InFlightDuplicateSwallowedAndFirstReplyWins)
{
    // Every message is duplicated: the request copy that arrives while
    // the decision is pending is dropped, and of the two replies only
    // the first acts.
    Harness h("net.dup=1");
    h.submit(0, h.sig({100}));
    h.eq.run();
    EXPECT_EQ(h.replies, std::vector<bool>{true});
    EXPECT_EQ(h.chan.stats().dupRequests, 1u);
    EXPECT_EQ(h.chan.stats().resends, 0u);
    EXPECT_EQ(h.chan.stats().resendAttempts.samples(), 1u);
    EXPECT_EQ(h.arb.stats().requests, 1u);
    EXPECT_EQ(h.arb.pendingW(), 1u);
    EXPECT_EQ(h.net.messages(), 4u); // two requests, two replies
}

TEST(ReliableChannel, LostRequestTakesItsDuplicateLostReplyDoesNot)
{
    // A lost request is lost with its duplicate (no net.dup roll), so
    // only the resend's request and its reply are duplicated.
    Harness req("arb.req_loss=1@0:1,net.dup=1");
    req.submit(0, req.sig({100}));
    req.eq.run();
    EXPECT_EQ(req.replies, std::vector<bool>{true});
    EXPECT_EQ(req.chan.stats().resends, 1u);
    EXPECT_EQ(req.faults.injectedCount(FaultKind::NetDup), 2u);

    // A lost reply still arrives through its duplicate: no resend.
    Harness rep("arb.grant_loss=1,net.dup=1");
    rep.submit(0, rep.sig({100}));
    rep.eq.run();
    EXPECT_EQ(rep.replies, std::vector<bool>{true});
    EXPECT_EQ(rep.chan.stats().lostReplies, 1u);
    EXPECT_EQ(rep.chan.stats().resends, 0u);
}

TEST(ReliableChannel, LostRequestResentWithBackoffThenGivenUp)
{
    ChannelParams prm;
    prm.maxResend = 3;
    prm.resendTimeout = 64;
    EventQueue eq;
    FaultPlane faults = planeFor("arb.req_loss=1");
    Network net(eq, NetworkConfig{});
    ReliableChannel chan(eq, net, faults, prm, 4, 1);

    const ProcId p = 2;
    std::vector<Tick> sent;
    bool replied = false;
    chan.call(
        p, 0,
        [&](const ReliableChannel::ReplyPort &port) {
            sent.push_back(eq.now());
            chan.sendRequest(port, 5, TrafficClass::WrSig, 16,
                             [] { FAIL() << "lost request arrived"; });
        },
        [&](bool) { replied = true; });
    eq.run(100'000); // bounded: a missing give-up resends forever

    // Attempt k waits min(timeout << (k-1), cap), jittered by a key of
    // (sender, txn, attempt); the fourth attempt's timer gives up.
    const std::uint64_t txn = 1;
    std::vector<Tick> want{0};
    Tick t = 0;
    for (unsigned k = 1; k <= prm.maxResend; ++k) {
        t += jitteredBackoff(prm.resendTimeout << (k - 1),
                             (std::uint64_t{p} << 48) ^ (txn << 8) ^ k);
        want.push_back(t);
    }
    EXPECT_EQ(sent, want);
    EXPECT_FALSE(replied);
    EXPECT_EQ(chan.stats().lostRequests, 4u);
    EXPECT_EQ(chan.stats().resends, 3u);
    EXPECT_EQ(chan.stats().resendGiveUps, 1u);
    EXPECT_EQ(chan.inflightCalls(p), 0u);
}

TEST(ReliableChannel, NackedCommitWIsRedelivered)
{
    EventQueue eq;
    FaultPlane faults = planeFor("dir.nack=1@0:100");
    Network net(eq, NetworkConfig{});
    ReliableChannel chan(eq, net, faults, ChannelParams{}, 4, 1);

    std::vector<Tick> delivered;
    chan.post(0, 4, TrafficClass::WrSig, 64,
              [&] { delivered.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_GE(delivered[0], 100u); // the refused copy did not act
    EXPECT_EQ(chan.stats().dirNacks, 1u);
    EXPECT_EQ(chan.stats().commitResends, 1u);
    EXPECT_EQ(chan.stats().commitAbandoned, 0u);
}

TEST(ReliableChannel, FaultFreeChannelIsABareNetwork)
{
    // Without a lossy fault point (none, or only delays) each message
    // is exactly one Network::send event, and no timer is armed.
    for (const char *spec : {"", "net.delay=0:0"}) {
        EventQueue eq;
        FaultPlane faults = planeFor(spec);
        Network net(eq, NetworkConfig{});
        ReliableChannel chan(eq, net, faults, ChannelParams{}, 4, 1);
        EXPECT_FALSE(chan.hardened()) << spec;

        Tick w_at = 0;
        chan.post(0, 4, TrafficClass::WrSig, 64, [&] { w_at = eq.now(); });
        EXPECT_EQ(eq.size(), 1u) << spec;

        Tick reply_at = 0;
        chan.call(
            1, 0,
            [&](const ReliableChannel::ReplyPort &port) {
                chan.sendRequest(port, 5, TrafficClass::WrSig, 16,
                                 [&chan, port] {
                                     chan.sendReply(port, 5, true);
                                 });
            },
            [&](bool) { reply_at = eq.now(); });
        EXPECT_EQ(eq.size(), 2u) << spec;
        eq.run();

        EventQueue bare_eq;
        Network bare(bare_eq, NetworkConfig{});
        Tick bare_w = 0, bare_reply = 0;
        bare.send(0, 4, TrafficClass::WrSig, 64,
                  [&] { bare_w = bare_eq.now(); });
        bare.send(1, 5, TrafficClass::WrSig, 16, [&] {
            bare.send(5, 1, TrafficClass::Other, 8,
                      [&] { bare_reply = bare_eq.now(); });
        });
        bare_eq.run();

        EXPECT_EQ(w_at, bare_w) << spec;
        EXPECT_EQ(reply_at, bare_reply) << spec;
        EXPECT_EQ(eq.eventsFired(), bare_eq.eventsFired()) << spec;
        EXPECT_EQ(net.messages(), bare.messages()) << spec;
        EXPECT_EQ(net.totalBits(), bare.totalBits()) << spec;
    }
}

} // namespace
} // namespace bulksc
