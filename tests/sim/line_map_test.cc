/**
 * @file
 * Tests for LineMap<V>, the keyed form of the flat line-address table:
 * a differential run against std::unordered_map, values that travel
 * with their keys through growth and backward-shift erase (colliding
 * runs that wrap past the end of the table included), and the
 * moved-from state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/line_set.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

using Map = LineMap<std::uint64_t>;
using Reference = std::unordered_map<LineAddr, std::uint64_t>;
using Pairs = std::vector<std::pair<LineAddr, std::uint64_t>>;

/** (key, value) pairs of @p m, sorted by key. */
Pairs
sortedPairs(const Map &m)
{
    Pairs out;
    for (const auto &slot : m)
        out.emplace_back(slot.key, slot.value);
    std::sort(out.begin(), out.end());
    return out;
}

Pairs
sortedPairs(const Reference &m)
{
    Pairs out(m.begin(), m.end());
    std::sort(out.begin(), out.end());
    return out;
}

void
expectSame(const Map &m, const Reference &ref)
{
    ASSERT_EQ(m.size(), ref.size());
    EXPECT_EQ(m.empty(), ref.empty());
    EXPECT_EQ(sortedPairs(m), sortedPairs(ref));
    for (const auto &[k, v] : ref) {
        const std::uint64_t *found = m.find(k);
        ASSERT_NE(found, nullptr) << k;
        EXPECT_EQ(*found, v) << k;
    }
}

TEST(LineMap, StartsEmptyWithoutATable)
{
    Map m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), 0u);
    EXPECT_EQ(m.find(0), nullptr);
    EXPECT_FALSE(m.contains(0));
    EXPECT_FALSE(m.erase(0));
    EXPECT_EQ(m.begin(), m.end());
}

TEST(LineMap, TryEmplaceKeepsAnExistingValue)
{
    Map m;
    auto [v, fresh] = m.try_emplace(7, 70);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(*v, 70u);
    *v = 71;
    auto [again, fresh_again] = m.try_emplace(7, 99);
    EXPECT_FALSE(fresh_again);
    EXPECT_EQ(again, v);
    EXPECT_EQ(*m.find(7), 71u);
    EXPECT_EQ(m.size(), 1u);

    // A value-initialised entry, as std::unordered_map::operator[].
    EXPECT_EQ(*m.try_emplace(8).first, 0u);
}

TEST(LineMap, ReusedSlotTakesTheNewValue)
{
    Map m;
    m.try_emplace(5, 50);
    ASSERT_TRUE(m.erase(5));
    EXPECT_EQ(m.find(5), nullptr);
    auto [v, fresh] = m.try_emplace(5, 51);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(*v, 51u);
}

TEST(LineMap, MatchesUnorderedMapUnderRandomOperations)
{
    for (LineAddr range : {LineAddr{40}, LineAddr{600}, LineAddr{1} << 40}) {
        SCOPED_TRACE(range);
        Rng rng(0x3a9 + range);
        Map m;
        Reference ref;
        for (int step = 0; step < 20000; ++step) {
            LineAddr k = rng.below(range);
            std::uint64_t v = rng.next();
            switch (rng.below(10)) {
              case 0: case 1: case 2: {
                auto [p, fresh] = m.try_emplace(k, v);
                auto [it, ref_fresh] = ref.try_emplace(k, v);
                EXPECT_EQ(fresh, ref_fresh);
                EXPECT_EQ(*p, it->second);
                break;
              }
              case 3: case 4: {
                // Update in place through find().
                std::uint64_t *p = m.find(k);
                auto it = ref.find(k);
                ASSERT_EQ(p != nullptr, it != ref.end());
                if (p) {
                    *p = v;
                    it->second = v;
                }
                break;
              }
              case 5: case 6: case 7:
                EXPECT_EQ(m.erase(k), ref.erase(k) != 0);
                break;
              case 8:
                EXPECT_EQ(m.contains(k), ref.count(k) != 0);
                break;
              default:
                if (rng.below(200) == 0) {
                    m.clear();
                    ref.clear();
                }
                break;
            }
            ASSERT_EQ(m.size(), ref.size());
            EXPECT_LE(m.size() * 2, m.capacity());
            if (step % 512 == 0)
                expectSame(m, ref);
        }
        expectSame(m, ref);
    }
}

TEST(LineMap, GrowthKeepsEveryValue)
{
    Map m;
    std::size_t last_cap = 0;
    unsigned growths = 0;
    for (LineAddr k = 0; k < 1000; ++k) {
        m.try_emplace(k * 4096 + 3, k * k);
        if (m.capacity() != last_cap) {
            ++growths;
            last_cap = m.capacity();
            // Capacity stays a power of two, at least twice the size.
            EXPECT_EQ(last_cap & (last_cap - 1), 0u);
            EXPECT_LE(m.size() * 2, last_cap);
            for (LineAddr j = 0; j <= k; ++j)
                ASSERT_EQ(*m.find(j * 4096 + 3), j * j) << j;
        }
    }
    EXPECT_EQ(growths, 8u); // 16 -> 2048 slots
    EXPECT_EQ(m.capacity(), 2048u);

    // Re-emplacing present keys of a full-as-allowed table is no growth.
    Map half;
    for (LineAddr k = 0; k < 8; ++k)
        half.try_emplace(k, k);
    ASSERT_EQ(half.capacity(), 16u);
    for (LineAddr k = 0; k < 8; ++k)
        EXPECT_FALSE(half.try_emplace(k, 0).second);
    EXPECT_EQ(half.capacity(), 16u);
}

/**
 * Keys whose probe starts in the last two slots of a 64-slot table
 * collide and wrap around to slot 0; erasing them in random order
 * shifts later keys back, and each value must move with its key.
 */
TEST(LineMap, BackwardShiftEraseMovesValuesWithKeys)
{
    Map m;
    for (LineAddr k = 0; k < 20; ++k)
        m.try_emplace(k, 0);
    ASSERT_EQ(m.capacity(), 64u);
    m.clear();

    std::vector<LineAddr> keys;
    std::vector<LineAddr> fillers; // homes at the start, interleaved
    for (LineAddr k = 1; keys.size() < 24 || fillers.size() < 8; ++k) {
        std::size_t home = m.homeSlot(k);
        if (home >= 62 && keys.size() < 24)
            keys.push_back(k);
        else if (home < 8 && fillers.size() < 8)
            fillers.push_back(k);
    }

    Rng rng(0xb5e);
    for (int round = 0; round < 50; ++round) {
        Map t = m;
        Reference ref;
        std::vector<LineAddr> all = keys;
        all.insert(all.end(), fillers.begin(), fillers.end());
        for (std::size_t i = all.size(); i > 1; --i)
            std::swap(all[i - 1], all[rng.below(i)]);
        for (LineAddr k : all) {
            EXPECT_TRUE(t.try_emplace(k, k * 31 + round).second);
            ref.emplace(k, k * 31 + round);
        }
        ASSERT_EQ(t.capacity(), 64u); // 32 keys: no growth
        for (std::size_t i = all.size(); i > 1; --i)
            std::swap(all[i - 1], all[rng.below(i)]);
        for (LineAddr k : all) {
            EXPECT_TRUE(t.erase(k));
            ref.erase(k);
            expectSame(t, ref);
            EXPECT_EQ(t.find(k), nullptr);
        }
        EXPECT_TRUE(t.empty());
    }
}

TEST(LineMap, MovedFromMapIsEmptyAndUsable)
{
    Map a;
    for (LineAddr k = 1; k <= 20; ++k)
        a.try_emplace(k, k + 100);
    Map b = std::move(a);
    EXPECT_EQ(b.size(), 20u);
    EXPECT_EQ(*b.find(7), 107u);
    EXPECT_TRUE(a.empty()); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.capacity(), 0u);
    EXPECT_EQ(a.find(7), nullptr);
    EXPECT_EQ(a.begin(), a.end());
    EXPECT_TRUE(a.try_emplace(7, 1).second);
    EXPECT_EQ(a.size(), 1u);

    Map c;
    c.try_emplace(99, 9);
    c = std::move(b);
    EXPECT_EQ(c.size(), 20u);
    EXPECT_EQ(c.find(99), nullptr);
    EXPECT_EQ(*c.find(20), 120u);
    EXPECT_TRUE(b.empty()); // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(b.erase(7));
}

TEST(LineMap, CopiesAreIndependent)
{
    Map a;
    for (LineAddr k = 1; k <= 20; ++k)
        a.try_emplace(k, k);
    Map b = a;
    *b.find(5) = 500;
    b.erase(6);
    EXPECT_EQ(*a.find(5), 5u);
    EXPECT_EQ(*a.find(6), 6u);
    EXPECT_EQ(*b.find(5), 500u);
    EXPECT_EQ(b.find(6), nullptr);
}

} // namespace
} // namespace bulksc
