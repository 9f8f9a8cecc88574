/**
 * @file
 * Unit tests for the timed memory system: hit/miss latencies, MSHR
 * coalescing and queueing, invalidation flows, bulk commit with read
 * bouncing, speculative discard, and value tracking.
 */

#include <gtest/gtest.h>

#include <array>

#include "mem/memory_system.hh"

namespace bulksc {
namespace {

struct Harness
{
    Harness(MemParams p = MemParams{})
        : net(eq, NetworkConfig{}),
          chan(eq, net, faults, ChannelParams{}, p.numProcs,
               p.numDirectories),
          mem(eq, chan, p)
    {}

    EventQueue eq;
    FaultPlane faults;
    Network net;
    ReliableChannel chan;
    MemorySystem mem;
};

/** Listener that records the events it sees. */
struct Recorder : public CacheListener
{
    std::vector<LineAddr> invals;
    std::vector<LineAddr> displaced;
    unsigned wsigs = 0;
    std::vector<LineAddr> vetoed;

    void onExternalInval(LineAddr l) override { invals.push_back(l); }
    void
    onLineDisplaced(LineAddr l, bool) override
    {
        displaced.push_back(l);
    }
    void onRemoteWSig(const Signature &) override { ++wsigs; }
    bool
    mayVictimize(LineAddr l) override
    {
        for (LineAddr v : vetoed) {
            if (v == l)
                return false;
        }
        return true;
    }
};

TEST(MemorySystem, MissThenHit)
{
    Harness h;
    bool filled = false;
    auto lat = h.mem.access(0, 0x1000, MemCmd::Read,
                            [&] { filled = true; });
    EXPECT_FALSE(lat.has_value());
    h.eq.run();
    EXPECT_TRUE(filled);

    auto lat2 = h.mem.access(0, 0x1000, MemCmd::Read, nullptr);
    ASSERT_TRUE(lat2.has_value());
    EXPECT_EQ(*lat2, h.mem.params().l1Latency);
}

TEST(MemorySystem, MemoryMissSlowerThanL2Hit)
{
    Harness h;
    // First access: cold, from memory.
    Tick t_mem = 0;
    h.mem.access(0, 0x2000, MemCmd::Read, [&] { t_mem = h.eq.now(); });
    h.eq.run();
    EXPECT_GE(t_mem, h.mem.params().memLatency);

    // Another processor then misses to the (now warm) L2.
    Tick start = h.eq.now();
    Tick t_l2 = 0;
    h.mem.access(1, 0x2000, MemCmd::Read, [&] { t_l2 = h.eq.now(); });
    h.eq.run();
    EXPECT_LT(t_l2 - start, h.mem.params().memLatency);
}

TEST(MemorySystem, WarmLineMakesL2Hit)
{
    Harness h;
    h.mem.warmLine(lineOf(0x3000));
    Tick t = 0;
    h.mem.access(0, 0x3000, MemCmd::Read, [&] { t = h.eq.now(); });
    h.eq.run();
    EXPECT_LT(t, h.mem.params().memLatency);
}

TEST(MemorySystem, ReadExHitRequiresOwnership)
{
    Harness h;
    h.mem.access(0, 0x4000, MemCmd::Read, nullptr);
    h.eq.run();
    // Shared copy present: a Read hits but a ReadEx does not.
    EXPECT_TRUE(h.mem.access(0, 0x4000, MemCmd::Read, nullptr)
                    .has_value());
    bool owned = false;
    auto lat =
        h.mem.access(0, 0x4000, MemCmd::ReadEx, [&] { owned = true; });
    EXPECT_FALSE(lat.has_value());
    h.eq.run();
    EXPECT_TRUE(owned);
    EXPECT_TRUE(h.mem.l1Contains(0, lineOf(0x4000), true));
}

TEST(MemorySystem, ReadExInvalidatesSharers)
{
    Harness h;
    Recorder rec;
    h.mem.setListener(1, &rec);
    h.mem.access(1, 0x5000, MemCmd::Read, nullptr);
    h.eq.run();
    ASSERT_TRUE(h.mem.l1Contains(1, lineOf(0x5000)));

    h.mem.access(0, 0x5000, MemCmd::ReadEx, nullptr);
    h.eq.run();
    EXPECT_FALSE(h.mem.l1Contains(1, lineOf(0x5000)));
    ASSERT_EQ(rec.invals.size(), 1u);
    EXPECT_EQ(rec.invals[0], lineOf(0x5000));
}

TEST(MemorySystem, DirtyOwnerSuppliesData)
{
    Harness h;
    h.mem.access(0, 0x6000, MemCmd::ReadEx, nullptr);
    h.eq.run();
    ASSERT_TRUE(h.mem.l1Contains(0, lineOf(0x6000), true));

    bool got = false;
    h.mem.access(1, 0x6000, MemCmd::Read, [&] { got = true; });
    h.eq.run();
    EXPECT_TRUE(got);
    // Owner downgraded to Shared.
    EXPECT_EQ(h.mem.l1State(0, lineOf(0x6000)), LineState::Shared);
}

TEST(MemorySystem, MshrCoalescingSingleFetch)
{
    Harness h;
    int fills = 0;
    h.mem.access(0, 0x7000, MemCmd::Read, [&] { ++fills; });
    h.mem.access(0, 0x7008, MemCmd::Read, [&] { ++fills; });
    h.mem.access(0, 0x7010, MemCmd::Read, [&] { ++fills; });
    std::uint64_t msgs_before = h.net.messages();
    h.eq.run();
    EXPECT_EQ(fills, 3);
    // One request + one response (same line), not three.
    EXPECT_LE(h.net.messages() - msgs_before, 2u);
}

// The first waiter of an MSHR is kept inline and later ones in a
// vector; either way, completions run in arrival order. Covers an
// active MSHR and one queued behind a full MSHR file, a waiterless
// first access, and a capture too large to be stored inline.
TEST(MemorySystem, CoalescedWaitersFireInArrivalOrder)
{
    MemParams p;
    p.l1Mshrs = 1;
    Harness h(p);
    std::vector<int> order;
    std::array<std::uint64_t, 12> big{}; // beyond the inline budget
    auto waiter = [&order](int id) {
        return [&order, id] { order.push_back(id); };
    };

    // Line A takes the only MSHR; line B queues behind it.
    h.mem.access(0, 0x7000, MemCmd::Read, nullptr);
    h.mem.access(0, 0x7008, MemCmd::Read, waiter(1));
    h.mem.access(0, 0x7010, MemCmd::Read,
                 [&order, big] { order.push_back(2 + int(big[0])); });
    h.mem.access(0, 0x7018, MemCmd::Read, waiter(3));
    h.mem.access(0, 0x9000, MemCmd::Read, waiter(4));
    h.mem.access(0, 0x9008, MemCmd::Read, nullptr);
    h.mem.access(0, 0x9010, MemCmd::Read, waiter(5));
    h.mem.access(0, 0x9018, MemCmd::Read, waiter(6));
    h.eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(MemorySystem, MshrQueueingBeyondCapacity)
{
    MemParams p;
    p.l1Mshrs = 2;
    Harness h(p);
    int fills = 0;
    for (int i = 0; i < 6; ++i)
        h.mem.access(0, 0x10000 + i * 64, MemCmd::Read,
                     [&] { ++fills; });
    h.eq.run();
    EXPECT_EQ(fills, 6);
}

TEST(MemorySystem, MarkDirtyAndState)
{
    Harness h;
    h.mem.access(0, 0x8000, MemCmd::Read, nullptr);
    h.eq.run();
    EXPECT_EQ(h.mem.l1State(0, lineOf(0x8000)), LineState::Shared);
    h.mem.markDirty(0, lineOf(0x8000));
    EXPECT_EQ(h.mem.l1State(0, lineOf(0x8000)), LineState::Dirty);
}

TEST(MemorySystem, ValueTracking)
{
    Harness h;
    EXPECT_EQ(h.mem.readValue(0x42), 0u);
    h.mem.writeValue(0x42, 1234);
    EXPECT_EQ(h.mem.readValue(0x42), 1234u);
}

TEST(MemorySystem, BulkCommitForwardsWToSharers)
{
    Harness h;
    Recorder rec1;
    h.mem.setListener(1, &rec1);

    // Proc 1 shares the line; proc 0 wrote it speculatively.
    h.mem.access(1, 0x9000, MemCmd::Read, nullptr);
    h.mem.access(0, 0x9000, MemCmd::Read, nullptr);
    h.eq.run();
    h.mem.markDirty(0, lineOf(0x9000));

    auto w = std::make_shared<Signature>();
    w->insert(lineOf(0x9000));
    LineSet lines;
    lines.insert(lineOf(0x9000));
    bool done = false;
    unsigned nodes = 0;
    h.mem.bulkCommit(0, w, lines, [&] { done = true; }, &nodes);
    h.eq.run();

    EXPECT_TRUE(done);
    EXPECT_EQ(nodes, 1u);
    EXPECT_EQ(rec1.wsigs, 1u);
    EXPECT_FALSE(h.mem.l1Contains(1, lineOf(0x9000)));
    // Committer now owns the line per the directory.
    EXPECT_TRUE(h.mem.l1Contains(0, lineOf(0x9000), true));
}

TEST(MemorySystem, EmptyWCommitCompletesImmediately)
{
    Harness h;
    bool done = false;
    h.mem.bulkCommit(0, std::make_shared<Signature>(), LineSet{},
                     [&] { done = true; });
    EXPECT_TRUE(done);
}

TEST(MemorySystem, ReadsBouncedDuringCommit)
{
    Harness h;
    Recorder rec1;
    h.mem.setListener(1, &rec1);
    h.mem.access(1, 0xA000, MemCmd::Read, nullptr);
    h.mem.access(0, 0xA000, MemCmd::Read, nullptr);
    h.eq.run();
    h.mem.markDirty(0, lineOf(0xA000));

    auto w = std::make_shared<Signature>();
    w->insert(lineOf(0xA000));
    LineSet lines;
    lines.insert(lineOf(0xA000));
    h.mem.bulkCommit(0, w, lines, [] {});
    // Issue a read timed to land at the directory while the commit's
    // W is registered there: it must be bounced at least once.
    h.eq.schedule(h.eq.now() + 10, [&] {
        h.mem.access(2, 0xA000, MemCmd::Read, nullptr);
    });
    h.eq.run();
    EXPECT_GE(h.mem.bouncedReads(), 1u);
    // It still completes eventually.
    EXPECT_TRUE(h.mem.l1Contains(2, lineOf(0xA000)));
}

TEST(MemorySystem, DiscardSpeculativeDropsOnlyMembers)
{
    Harness h;
    h.mem.access(0, 0xB000, MemCmd::Read, nullptr);
    h.mem.access(0, 0xB040, MemCmd::Read, nullptr);
    h.eq.run();
    h.mem.markDirty(0, lineOf(0xB000));

    Signature w;
    w.insert(lineOf(0xB000));
    LineSet lines;
    lines.insert(lineOf(0xB000));
    h.mem.l1DiscardSpeculative(0, w, lines);
    EXPECT_FALSE(h.mem.l1Contains(0, lineOf(0xB000)));
    EXPECT_TRUE(h.mem.l1Contains(0, lineOf(0xB040)));
}

TEST(MemorySystem, RestoreLineReinsertsDirty)
{
    Harness h;
    h.mem.restoreLine(0, lineOf(0xC000));
    EXPECT_EQ(h.mem.l1State(0, lineOf(0xC000)), LineState::Dirty);
}

TEST(MemorySystem, WritebackLineKeepsL1Copy)
{
    Harness h;
    h.mem.access(0, 0xD000, MemCmd::ReadEx, nullptr);
    h.eq.run();
    std::uint64_t wb = h.mem.writebacks();
    h.mem.writebackLine(0, lineOf(0xD000));
    EXPECT_EQ(h.mem.writebacks(), wb + 1);
    EXPECT_TRUE(h.mem.l1Contains(0, lineOf(0xD000)));
}

TEST(MemorySystem, VictimFilterPreventsDisplacement)
{
    // Fill one L1 set completely with vetoed lines; the next fill to
    // that set must bypass (fillBypasses counts it).
    MemParams p;
    p.l1 = CacheGeometry{4 * 2 * 32, 2, 32}; // 4 sets, 2 ways
    Harness h(p);
    Recorder rec;
    h.mem.setListener(0, &rec);
    rec.vetoed = {lineOf(Addr{0} * 32), lineOf(Addr{4} * 32)};

    h.mem.access(0, 0 * 32, MemCmd::Read, nullptr);
    h.mem.access(0, 4 * 32, MemCmd::Read, nullptr);
    h.eq.run();
    std::uint64_t before = h.mem.fillBypasses();
    h.mem.access(0, 8 * 32, MemCmd::Read, nullptr);
    h.eq.run();
    EXPECT_EQ(h.mem.fillBypasses(), before + 1);
    EXPECT_TRUE(h.mem.l1Contains(0, 0));
    EXPECT_TRUE(h.mem.l1Contains(0, 4));
}

TEST(MemorySystem, RacingFillDoesNotResurrectInvalidatedLine)
{
    // Regression test for a protocol race: proc 1's read fill is in
    // flight when proc 0's chunk commits a write to the same line.
    // The bulk invalidation arrives before the fill; without fill
    // cancellation the fill would install a copy the directory no
    // longer tracks — and future commits would skip invalidating it
    // (a genuine SC hole, observed as a lost barrier increment).
    Harness h;
    h.mem.warmL1(0, lineOf(0xF100), /*dirty=*/false);
    h.mem.markDirty(0, lineOf(0xF100));

    auto w = std::make_shared<Signature>();
    w->insert(lineOf(0xF100));
    LineSet lines;
    lines.insert(lineOf(0xF100));

    // Issue the read and the commit into the same race window.
    h.mem.access(1, 0xF100, MemCmd::Read, nullptr);
    h.mem.bulkCommit(0, w, lines, [] {});
    h.eq.run();

    // Invariant: any cached copy must be visible to the directory.
    const DirEntry *e = h.mem.peekDir(lineOf(0xF100));
    ASSERT_NE(e, nullptr);
    if (h.mem.l1Contains(1, lineOf(0xF100)))
        EXPECT_TRUE(e->isSharer(1));
    else
        EXPECT_FALSE(e->isSharer(1));
}

TEST(MemorySystem, BaselineInvalRaceAlsoCancelled)
{
    // Same race through the baseline ReadEx invalidation path.
    Harness h;
    h.mem.warmL1(1, lineOf(0xF200), false);
    // Proc 1 refetches after losing the line, while proc 0 upgrades.
    h.mem.access(2, 0xF200, MemCmd::Read, nullptr); // extra sharer
    h.eq.run();
    h.mem.access(1, 0xF200, MemCmd::Read, nullptr);
    h.mem.access(0, 0xF200, MemCmd::ReadEx, nullptr);
    h.eq.run();
    const DirEntry *e = h.mem.peekDir(lineOf(0xF200));
    ASSERT_NE(e, nullptr);
    for (ProcId p = 0; p < 3; ++p) {
        if (h.mem.l1Contains(p, lineOf(0xF200))) {
            EXPECT_TRUE(e->isSharer(p)) << "proc " << p;
        }
    }
}

TEST(MemorySystem, StatsDumpContainsKeys)
{
    Harness h;
    h.mem.access(0, 0xE000, MemCmd::Read, nullptr);
    h.eq.run();
    StatGroup sg;
    h.mem.dumpStats(sg);
    EXPECT_TRUE(sg.has("mem.l1_hits"));
    EXPECT_TRUE(sg.has("mem.l1_misses"));
    EXPECT_TRUE(sg.has("mem.bounced_reads"));
}

} // namespace
} // namespace bulksc
