/**
 * @file
 * Tests for OpWindow, the processors' ring of in-flight memory ops:
 * order through wrap-around and growth, completion by op index, the
 * running completed count, and a differential run against the
 * std::deque-with-linear-scan window it replaced.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <deque>

#include "cpu/op_window.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

struct Entry
{
    std::size_t opIdx;
    bool completed;
};

using Window = OpWindow<Entry>;

TEST(OpWindow, StartsEmptyWithNothingCompleted)
{
    Window w;
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.size(), 0u);
    EXPECT_EQ(w.completedCount(), 0u);
    w.complete(3); // absent: no effect
    EXPECT_EQ(w.completedCount(), 0u);
}

TEST(OpWindow, KeepsProgramOrderAcrossWrapAndGrowth)
{
    Window w;
    std::size_t next = 0, oldest = 0;
    // Slide a window of 10 through 100 ops, so the ring wraps many
    // times, then let it grow while wrapped.
    for (int i = 0; i < 100; ++i) {
        w.push_back({next++, false});
        if (w.size() > 10) {
            EXPECT_EQ(w.front().opIdx, oldest);
            w.pop_front();
            ++oldest;
        }
    }
    for (int i = 0; i < 50; ++i)
        w.push_back({next++, false});
    ASSERT_EQ(w.size(), 60u);
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_EQ(w[i].opIdx, oldest + i);
    EXPECT_EQ(w.front().opIdx, oldest);
    EXPECT_EQ(w.back().opIdx, next - 1);
}

TEST(OpWindow, CompletesByOpIndexAndCountsOnce)
{
    Window w;
    for (std::size_t idx : {2, 5, 6, 9, 14})
        w.push_back({idx, false});
    w.complete(6);
    w.complete(6); // a repeat does not count twice
    w.complete(7); // not in the window (e.g. squashed)
    w.complete(1);
    w.complete(20);
    EXPECT_EQ(w.completedCount(), 1u);
    EXPECT_TRUE(w[2].completed);
    EXPECT_FALSE(w[1].completed);
    EXPECT_FALSE(w[3].completed);

    w.completeBack();
    EXPECT_TRUE(w.back().completed);
    EXPECT_EQ(w.completedCount(), 2u);

    // Popping a completed entry from either end uncounts it.
    w.pop_back();
    EXPECT_EQ(w.completedCount(), 1u);
    w.pop_front();
    w.pop_front();
    EXPECT_EQ(w.completedCount(), 1u);
    w.pop_front();
    EXPECT_EQ(w.completedCount(), 0u);

    // An entry pushed already completed counts at once.
    w.push_back({30, true});
    EXPECT_EQ(w.completedCount(), 1u);
}

TEST(OpWindow, MatchesDequeWithLinearScan)
{
    Rng rng(0x0b1d0);
    Window w;
    std::deque<Entry> ref;
    std::size_t next = 0;
    for (int step = 0; step < 50000; ++step) {
        switch (rng.below(8)) {
          case 0: case 1: case 2: {
            // Gaps in op indices, as non-memory ops leave them.
            next += 1 + rng.below(3);
            Entry e{next, rng.below(4) == 0};
            w.push_back(e);
            ref.push_back(e);
            break;
          }
          case 3: case 4: {
            // Complete an index at or around the window's span.
            std::size_t lo = ref.empty() ? next : ref.front().opIdx;
            std::size_t idx = lo + rng.below(next - lo + 3);
            w.complete(idx);
            for (Entry &e : ref) {
                if (e.opIdx == idx)
                    e.completed = true;
            }
            break;
          }
          case 5:
            if (!ref.empty()) {
                w.pop_front();
                ref.pop_front();
            }
            break;
          case 6:
            // A squash drops the youngest entries.
            for (auto k = rng.below(4); k-- > 0 && !ref.empty();) {
                w.pop_back();
                ref.pop_back();
            }
            break;
          default:
            if (!ref.empty()) {
                w.completeBack();
                ref.back().completed = true;
            }
            break;
        }
        ASSERT_EQ(w.size(), ref.size());
        std::size_t done = 0;
        for (const Entry &e : ref)
            done += e.completed;
        ASSERT_EQ(w.completedCount(), done);
        if (step % 256 == 0) {
            for (std::size_t i = 0; i < ref.size(); ++i) {
                EXPECT_EQ(w[i].opIdx, ref[i].opIdx);
                EXPECT_EQ(w[i].completed, ref[i].completed);
            }
        }
    }
}

TEST(OpWindowDeathTest, RejectsOutOfOrderPush)
{
    Window w;
    w.push_back({4, false});
    EXPECT_DEATH(w.push_back({4, false}), "program order");
}

} // namespace
} // namespace bulksc
