/**
 * @file
 * Tests for LineSet, the flat line-address set: a differential run
 * against std::unordered_set under random insert/erase/lookup/clear,
 * and forced probe collisions, including runs that wrap past the end
 * of the table, to exercise backward-shift erase.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "sim/line_set.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

using Reference = std::unordered_set<LineAddr>;

/** Members of @p s, sorted (iteration compared as a multiset). */
std::vector<LineAddr>
sortedMembers(const LineSet &s)
{
    std::vector<LineAddr> out(s.begin(), s.end());
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<LineAddr>
sortedMembers(const Reference &s)
{
    std::vector<LineAddr> out(s.begin(), s.end());
    std::sort(out.begin(), out.end());
    return out;
}

void
expectSame(const LineSet &s, const Reference &ref)
{
    ASSERT_EQ(s.size(), ref.size());
    EXPECT_EQ(s.empty(), ref.empty());
    EXPECT_EQ(sortedMembers(s), sortedMembers(ref));
    for (LineAddr l : ref)
        EXPECT_TRUE(s.contains(l)) << l;
}

TEST(LineSet, StartsEmptyWithoutATable)
{
    LineSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.capacity(), 0u);
    EXPECT_FALSE(s.contains(0));
    EXPECT_FALSE(s.erase(0));
    EXPECT_EQ(s.begin(), s.end());
}

TEST(LineSet, InsertAndEraseReportMembership)
{
    LineSet s;
    EXPECT_TRUE(s.insert(7));
    EXPECT_FALSE(s.insert(7));
    EXPECT_TRUE(s.contains(7));
    EXPECT_EQ(s.size(), 1u);
    EXPECT_TRUE(s.erase(7));
    EXPECT_FALSE(s.erase(7));
    EXPECT_FALSE(s.contains(7));
    EXPECT_TRUE(s.empty());
}

TEST(LineSet, MatchesUnorderedSetUnderRandomOperations)
{
    // Small key ranges give dense tables and many duplicate hits;
    // the wide range mixes in high address bits.
    for (LineAddr range : {LineAddr{40}, LineAddr{600}, LineAddr{1} << 40}) {
        SCOPED_TRACE(range);
        Rng rng(0x11e5e7 + range);
        LineSet s;
        Reference ref;
        for (int step = 0; step < 20000; ++step) {
            LineAddr l = rng.below(range);
            switch (rng.below(10)) {
              case 0: case 1: case 2: case 3:
                EXPECT_EQ(s.insert(l), ref.insert(l).second);
                break;
              case 4: case 5: case 6:
                EXPECT_EQ(s.erase(l), ref.erase(l) != 0);
                break;
              case 7: case 8:
                EXPECT_EQ(s.contains(l), ref.count(l) != 0);
                break;
              default:
                if (rng.below(200) == 0) {
                    s.clear();
                    ref.clear();
                }
                break;
            }
            ASSERT_EQ(s.size(), ref.size());
            EXPECT_LE(s.size() * 2, s.capacity());
            if (step % 512 == 0)
                expectSame(s, ref);
        }
        expectSame(s, ref);
    }
}

TEST(LineSet, ClearKeepsCapacity)
{
    LineSet s;
    for (LineAddr l = 0; l < 100; ++l)
        s.insert(l * 1024);
    std::size_t cap = s.capacity();
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.capacity(), cap);
    EXPECT_EQ(s.begin(), s.end());
    for (LineAddr l = 0; l < 100; ++l)
        EXPECT_FALSE(s.contains(l * 1024));
}

TEST(LineSet, ReinsertingMembersOfAHalfFullTableDoesNotGrowIt)
{
    LineSet s;
    for (LineAddr l = 0; l < 8; ++l)
        s.insert(l * 1024);
    ASSERT_EQ(s.capacity(), 16u); // exactly half full
    for (LineAddr l = 0; l < 8; ++l)
        EXPECT_FALSE(s.insert(l * 1024));
    EXPECT_EQ(s.capacity(), 16u);
    EXPECT_TRUE(s.insert(8 * 1024)); // a new member does grow it
    EXPECT_EQ(s.capacity(), 32u);
    EXPECT_EQ(s.size(), 9u);
}

TEST(LineSet, CopiesAreIndependent)
{
    LineSet a;
    for (LineAddr l = 1; l <= 20; ++l)
        a.insert(l);
    LineSet b = a;
    b.erase(5);
    b.insert(99);
    EXPECT_TRUE(a.contains(5));
    EXPECT_FALSE(a.contains(99));
    EXPECT_FALSE(b.contains(5));
    EXPECT_TRUE(b.contains(99));
}

TEST(LineSet, MovedFromSetIsEmptyAndUsable)
{
    LineSet a;
    for (LineAddr l = 1; l <= 20; ++l)
        a.insert(l);
    LineSet b = std::move(a);
    EXPECT_EQ(b.size(), 20u);
    EXPECT_TRUE(b.contains(7));
    EXPECT_TRUE(a.empty()); // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(a.contains(7));
    EXPECT_EQ(a.begin(), a.end());
    EXPECT_TRUE(a.insert(7));
    EXPECT_EQ(a.size(), 1u);

    LineSet c;
    c.insert(99);
    c = std::move(b);
    EXPECT_EQ(c.size(), 20u);
    EXPECT_FALSE(c.contains(99));
    EXPECT_TRUE(b.empty()); // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(b.erase(7));
}

/**
 * Keys whose probe starts in the last two slots of a 64-slot table:
 * their runs collide and wrap around to slot 0. Erasing from such a
 * run in random order must keep every remaining key reachable.
 */
TEST(LineSet, BackwardShiftEraseAcrossCollidingWrappedRuns)
{
    LineSet s;
    // Grow to 64 slots (growth happens past half full), then empty it.
    for (LineAddr l = 0; l < 20; ++l)
        s.insert(l);
    ASSERT_EQ(s.capacity(), 64u);
    s.clear();

    std::vector<LineAddr> keys;
    std::vector<LineAddr> fillers; // homes elsewhere, interleaved
    for (LineAddr l = 1; keys.size() < 24 || fillers.size() < 8; ++l) {
        std::size_t home = s.homeSlot(l);
        if (home >= 62 && keys.size() < 24)
            keys.push_back(l);
        else if (home < 8 && fillers.size() < 8)
            fillers.push_back(l);
    }

    Rng rng(0xc011);
    for (int round = 0; round < 50; ++round) {
        LineSet t = s;
        Reference ref;
        std::vector<LineAddr> all = keys;
        all.insert(all.end(), fillers.begin(), fillers.end());
        for (std::size_t i = all.size(); i > 1; --i)
            std::swap(all[i - 1], all[rng.below(i)]);
        for (LineAddr l : all) {
            EXPECT_TRUE(t.insert(l));
            ref.insert(l);
        }
        ASSERT_EQ(t.capacity(), 64u); // no growth: 32 members
        for (std::size_t i = all.size(); i > 1; --i)
            std::swap(all[i - 1], all[rng.below(i)]);
        for (LineAddr l : all) {
            EXPECT_TRUE(t.erase(l));
            ref.erase(l);
            expectSame(t, ref);
            EXPECT_FALSE(t.contains(l));
        }
        EXPECT_TRUE(t.empty());
    }
}

} // namespace
} // namespace bulksc
