/**
 * @file
 * Unit tests for the commit arbiter: grant/deny rules, W-list
 * lifetime, the RSig optimization, pre-arbitration, and statistics.
 */

#include <gtest/gtest.h>

#include "core/arbiter.hh"

namespace bulksc {
namespace {

struct Harness
{
    Harness(bool rsig = true, unsigned max_commits = 8)
        : net(eq, NetworkConfig{}),
          chan(eq, net, faults, ChannelParams{}, /*num_procs=*/8,
               /*num_dirs=*/1),
          arb(eq, chan, 9, /*count=*/1, /*processing=*/5, rsig,
              max_commits)
    {}

    /** Send one commit request through the (fault-free) channel. */
    void
    submit(ProcId p, std::shared_ptr<Signature> w, RProvider rp,
           std::function<void(bool)> on_reply)
    {
        chan.call(
            p, 0,
            [this, p, w, rp](const ReliableChannel::ReplyPort &port) {
                arb.requestCommit(p, w, rp, port);
            },
            std::move(on_reply));
    }

    std::shared_ptr<Signature>
    sig(std::initializer_list<LineAddr> lines)
    {
        auto s = std::make_shared<Signature>();
        for (LineAddr l : lines)
            s->insert(l);
        return s;
    }

    /** Request and run to completion; returns the decision. */
    bool
    request(ProcId p, std::shared_ptr<Signature> r,
            std::shared_ptr<Signature> w)
    {
        bool granted = false;
        bool replied = false;
        submit(
            p, std::move(w), [r] { return r; },
            [&](bool ok) {
                granted = ok;
                replied = true;
            });
        eq.run();
        EXPECT_TRUE(replied);
        return granted;
    }

    EventQueue eq;
    FaultPlane faults;
    Network net;
    ReliableChannel chan;
    Arbiter arb;
};

TEST(Arbiter, GrantsWhenListEmpty)
{
    Harness h;
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({1, 2})));
    EXPECT_EQ(h.arb.stats().grants, 1u);
    EXPECT_EQ(h.arb.pendingW(), 1u);
}

TEST(Arbiter, EmptyWNotAddedToList)
{
    Harness h;
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({})));
    EXPECT_EQ(h.arb.pendingW(), 0u);
    EXPECT_EQ(h.arb.stats().emptyWCommits, 1u);
}

TEST(Arbiter, DeniesOnWWCollision)
{
    Harness h;
    ASSERT_TRUE(h.request(0, h.sig({}), h.sig({100})));
    EXPECT_FALSE(h.request(1, h.sig({50}), h.sig({100})));
    EXPECT_EQ(h.arb.stats().denials, 1u);
}

TEST(Arbiter, DeniesOnRWCollision)
{
    // The corner case of Figure 4(b): a chunk whose R overlaps a
    // committing W must be denied.
    Harness h;
    ASSERT_TRUE(h.request(0, h.sig({}), h.sig({100})));
    EXPECT_FALSE(h.request(1, h.sig({100}), h.sig({200})));
}

TEST(Arbiter, GrantsDisjointConcurrentCommits)
{
    Harness h;
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({100})));
    EXPECT_TRUE(h.request(1, h.sig({300}), h.sig({200})));
    EXPECT_EQ(h.arb.pendingW(), 2u);
}

TEST(Arbiter, CommitDoneReleasesW)
{
    Harness h;
    auto w = h.sig({100});
    ASSERT_TRUE(h.request(0, h.sig({}), w));
    EXPECT_FALSE(h.request(1, h.sig({100}), h.sig({})));
    h.arb.commitDone(w);
    EXPECT_EQ(h.arb.pendingW(), 0u);
    EXPECT_TRUE(h.request(1, h.sig({100}), h.sig({})));
}

TEST(Arbiter, MaxSimultaneousCommitsEnforced)
{
    Harness h(true, 2);
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({1 * 1000})));
    EXPECT_TRUE(h.request(1, h.sig({}), h.sig({2 * 1000})));
    EXPECT_FALSE(h.request(2, h.sig({}), h.sig({3 * 1000})));
}

TEST(Arbiter, RsigOnlyRequestedWhenListNonEmpty)
{
    Harness h;
    ASSERT_TRUE(h.request(0, h.sig({}), h.sig({})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 0u);

    ASSERT_TRUE(h.request(1, h.sig({}), h.sig({100})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 0u);

    // List now non-empty: the next request needs its R signature.
    ASSERT_TRUE(h.request(2, h.sig({500}), h.sig({600})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 1u);
}

TEST(Arbiter, RsigOffSendsRUpfront)
{
    Harness h(false);
    ASSERT_TRUE(h.request(0, h.sig({10}), h.sig({20})));
    EXPECT_EQ(h.arb.stats().rsigRequired, 0u);
    EXPECT_GT(h.net.bitsSent(TrafficClass::RdSig), 0u);
}

TEST(Arbiter, RsigOptimizationSavesRTraffic)
{
    Harness with(true), without(false);
    // Single commit with an empty arbiter list.
    with.request(0, with.sig({1, 2, 3}), with.sig({10}));
    without.request(0, without.sig({1, 2, 3}), without.sig({10}));
    EXPECT_EQ(with.net.bitsSent(TrafficClass::RdSig), 0u);
    EXPECT_GT(without.net.bitsSent(TrafficClass::RdSig), 0u);
}

TEST(Arbiter, SquashedChunkDeniedViaNullR)
{
    Harness h;
    ASSERT_TRUE(h.request(0, h.sig({}), h.sig({100})));
    // Second requester's chunk vanished before R could be supplied.
    bool granted = true;
    h.submit(
        1, h.sig({200}),
        [] { return std::shared_ptr<Signature>(); },
        [&](bool ok) { granted = ok; });
    h.eq.run();
    EXPECT_FALSE(granted);
}

TEST(Arbiter, PreArbitrationBlocksOthers)
{
    Harness h;
    bool owner_granted = false;
    h.arb.preArbitrate(2, [&] { owner_granted = true; });
    h.eq.run();
    ASSERT_TRUE(owner_granted);

    // Others are denied while the reservation holds...
    EXPECT_FALSE(h.request(0, h.sig({}), h.sig({1})));
    // ...the owner's request is processed and releases the arbiter...
    EXPECT_TRUE(h.request(2, h.sig({}), h.sig({})));
    // ...after which normal operation resumes.
    EXPECT_TRUE(h.request(0, h.sig({}), h.sig({1})));
    EXPECT_EQ(h.arb.stats().preArbitrations, 1u);
}

TEST(Arbiter, PreArbitrationWaitsForDrain)
{
    Harness h;
    auto w = h.sig({100});
    ASSERT_TRUE(h.request(0, h.sig({}), w));
    bool owner_granted = false;
    h.arb.preArbitrate(1, [&] { owner_granted = true; });
    h.eq.run();
    EXPECT_FALSE(owner_granted); // a commit is still in flight
    h.arb.commitDone(w);
    h.eq.run();
    EXPECT_TRUE(owner_granted);
}

TEST(Arbiter, RacingRequestsCheckedAtomically)
{
    // Regression test: two requests in flight simultaneously, where
    // the second's R collides with the first's W. A non-atomic
    // implementation that decided "no R needed" at arrival (while the
    // list was still empty) would grant both — an SC hole (this is
    // exactly how the store-buffering litmus can break).
    Harness h;
    bool a_granted = false, b_granted = false;
    auto wa = h.sig({100});
    auto wb = h.sig({200});
    auto rb = h.sig({100}); // collides with A's W
    h.submit(
        0, wa, [&] { return h.sig({300}); },
        [&](bool ok) { a_granted = ok; });
    h.submit(
        1, wb, [rb] { return rb; },
        [&](bool ok) { b_granted = ok; });
    h.eq.run();
    EXPECT_TRUE(a_granted);
    EXPECT_FALSE(b_granted);
}

TEST(Arbiter, RacingDisjointRequestsBothGranted)
{
    Harness h;
    bool a = false, b = false;
    h.submit(
        0, h.sig({100}), [&] { return h.sig({101}); },
        [&](bool ok) { a = ok; });
    h.submit(
        1, h.sig({200}), [&] { return h.sig({201}); },
        [&](bool ok) { b = ok; });
    h.eq.run();
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
}

TEST(Arbiter, TimeWeightedStats)
{
    Harness h;
    auto w = h.sig({100});
    ASSERT_TRUE(h.request(0, h.sig({}), w));
    // Advance time with the W pending.
    h.eq.schedule(h.eq.now() + 1000, [] {});
    h.eq.run();
    h.arb.commitDone(w);
    const ArbiterModule &occ = h.arb.occupancy();
    Tick total = h.eq.now();
    EXPECT_GT(occ.avgPendingW(total), 0.0);
    EXPECT_GT(occ.nonEmptyFrac(total), 0.0);
    EXPECT_LE(occ.nonEmptyFrac(total), 1.0);
    EXPECT_EQ(occ.occupancy().samples(), 1u);
}

TEST(Arbiter, UnreleasedWCountsUntilTheEndOfTheRun)
{
    // A W granted and never released is pending from its grant to
    // the end of the run, however long after the last list change.
    Harness h;
    ASSERT_TRUE(h.request(0, h.sig({}), h.sig({100})));
    Tick replied = h.eq.now(); // the grant came before the reply
    ASSERT_GT(replied, 0u);
    Tick end = 100 * replied;
    const ArbiterModule &occ = h.arb.occupancy();
    auto pendingTicks = [&](Tick e) {
        return occ.nonEmptyFrac(e) * static_cast<double>(e);
    };
    EXPECT_GE(pendingTicks(end), static_cast<double>(end - replied));
    EXPECT_LT(pendingTicks(end), static_cast<double>(end));
    EXPECT_NEAR(pendingTicks(2 * end) - pendingTicks(end),
                static_cast<double>(end), 1e-6);
    EXPECT_DOUBLE_EQ(occ.avgPendingW(end), occ.nonEmptyFrac(end));
    EXPECT_EQ(h.arb.pendingW(), 1u);
}

} // namespace
} // namespace bulksc
