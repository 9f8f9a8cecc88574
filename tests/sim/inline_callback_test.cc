/**
 * @file
 * Tests for InlineCallback's empty states: default- and
 * nullptr-constructed callbacks are empty, and stay so through moves.
 */

#include <gtest/gtest.h>

#include <array>

#include "sim/inline_callback.hh"

namespace bulksc {
namespace {

TEST(InlineCallback, NullptrConstructsAnEmptyCallback)
{
    InlineCallback none = nullptr;
    EXPECT_FALSE(none);
    EXPECT_FALSE(InlineCallback{});

    // As an argument, nullptr reads as "no continuation".
    auto is_set = [](InlineCallback cb) { return static_cast<bool>(cb); };
    EXPECT_FALSE(is_set(nullptr));
    EXPECT_TRUE(is_set([] {}));

    InlineCallback moved = std::move(none);
    EXPECT_FALSE(moved);
}

TEST(InlineCallback, AssigningNullptrEmptiesASetCallback)
{
    int calls = 0;
    std::array<std::uint64_t, 16> big{}; // beyond the inline budget
    InlineCallback small = [&calls] { ++calls; };
    InlineCallback heap = [&calls, big] { calls += 1 + int(big[0]); };
    small();
    heap();
    EXPECT_EQ(calls, 2);

    small = nullptr;
    heap = nullptr;
    EXPECT_FALSE(small);
    EXPECT_FALSE(heap);
}

} // namespace
} // namespace bulksc
