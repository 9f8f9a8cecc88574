/**
 * @file
 * Property test for SpecLineCounts, the incremental per-L1-set counts
 * of the live chunks' speculative write lines. Random stores, commits
 * and squashes over a list of chunks, maintained as BulkProcessor
 * does, must leave the counts equal to a full rescan of the chunks,
 * and the overflow rule equal to the rescan BulkProcessor used before
 * the counts existed (kept here as the oracle).
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>

#include "core/bdm.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

constexpr std::uint32_t kSets = 8;
constexpr LineAddr kLines = 64; // 8 candidate lines per set

using Chunks = std::deque<std::unique_ptr<Chunk>>;

std::uint32_t
setOf(LineAddr l)
{
    return static_cast<std::uint32_t>(l % kSets);
}

/** The pre-count overflow check: rescan every live chunk's W and
 *  Wpriv lines, counting each distinct line of the set once. */
bool
rescanWouldOverflow(const Chunks &chunks, LineAddr line, unsigned assoc)
{
    for (const auto &ch : chunks) {
        if (ch->wLines.contains(line) || ch->wprivLines.contains(line))
            return false;
    }
    const std::uint32_t set = setOf(line);
    // A line may sit in several live write sets; count it only in the
    // first one (chunk order, W before W_priv) that holds it.
    auto held_earlier = [&](std::size_t ci, bool priv, LineAddr l) {
        if (priv && chunks[ci]->wLines.contains(l))
            return true;
        for (std::size_t k = 0; k < ci; ++k) {
            if (chunks[k]->wLines.contains(l) ||
                chunks[k]->wprivLines.contains(l))
                return true;
        }
        return false;
    };
    unsigned others = 0;
    for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
        for (bool priv : {false, true}) {
            const auto &lines =
                priv ? chunks[ci]->wprivLines : chunks[ci]->wLines;
            for (LineAddr l : lines) {
                if (setOf(l) == set && !held_earlier(ci, priv, l) &&
                    ++others >= assoc - 1)
                    return true;
            }
        }
    }
    return others >= assoc - 1;
}

void
expectMatchesRescan(const SpecLineCounts &counts, const Chunks &chunks)
{
    std::set<LineAddr> held;
    for (const auto &ch : chunks) {
        held.insert(ch->wLines.begin(), ch->wLines.end());
        held.insert(ch->wprivLines.begin(), ch->wprivLines.end());
    }
    ASSERT_EQ(counts.heldLines(), held.size());
    std::uint32_t per_set[kSets] = {};
    for (LineAddr l : held)
        ++per_set[setOf(l)];
    for (std::uint32_t s = 0; s < kSets; ++s)
        ASSERT_EQ(counts.inSet(s), per_set[s]) << "set " << s;
    for (LineAddr l = 0; l < kLines; ++l) {
        ASSERT_EQ(counts.held(l), held.count(l) != 0) << l;
        for (unsigned assoc : {1u, 2u, 4u}) {
            ASSERT_EQ(counts.wouldOverflow(l, setOf(l), assoc),
                      rescanWouldOverflow(chunks, l, assoc))
                << "line " << l << " assoc " << assoc;
        }
    }
}

TEST(SpecLineCounts, StartsEmptyWithoutATable)
{
    SpecLineCounts counts(kSets);
    EXPECT_EQ(counts.heldLines(), 0u);
    EXPECT_EQ(counts.inSet(3), 0u);
    EXPECT_FALSE(counts.held(3));
    EXPECT_FALSE(counts.wouldOverflow(3, 3, 4));
    EXPECT_TRUE(counts.wouldOverflow(3, 3, 1)); // no way to spare
}

TEST(SpecLineCounts, MatchesRescanUnderRandomStoresCommitsAndSquashes)
{
    const SignatureConfig cfg;
    for (std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(seed);
        Rng rng(0x5bec + seed);
        SpecLineCounts counts(kSets);
        Chunks chunks;
        std::uint64_t next_seq = 0;
        auto release = [&](const Chunk &c) {
            counts.removeChunk(c, setOf);
        };
        for (int step = 0; step < 6000; ++step) {
            switch (rng.below(10)) {
              case 0:
                if (chunks.size() < 4) {
                    chunks.push_back(
                        std::make_unique<Chunk>(next_seq++, 0, 0, cfg));
                }
                break;
              case 1:
                // Commit: the oldest chunk leaves the live list.
                if (!chunks.empty()) {
                    release(*chunks.front());
                    chunks.pop_front();
                }
                break;
              case 2:
                // Squash: a chunk and every younger one leave it.
                if (!chunks.empty() && rng.below(3) == 0) {
                    std::size_t idx = rng.below(chunks.size());
                    for (std::size_t j = idx; j < chunks.size(); ++j)
                        release(*chunks[j]);
                    chunks.erase(chunks.begin() +
                                     static_cast<long>(idx),
                                 chunks.end());
                }
                break;
              default: {
                // Store, usually by the youngest chunk; one line can
                // sit in W and Wpriv of the same or several chunks.
                if (chunks.empty())
                    break;
                Chunk &c = rng.below(4)
                               ? *chunks.back()
                               : *chunks[rng.below(chunks.size())];
                LineAddr l = rng.below(kLines);
                bool fresh = rng.below(3) ? c.addW(l) : c.addWpriv(l);
                if (fresh)
                    counts.add(l, setOf(l));
                break;
              }
            }
            expectMatchesRescan(counts, chunks);
        }
    }
}

} // namespace
} // namespace bulksc
