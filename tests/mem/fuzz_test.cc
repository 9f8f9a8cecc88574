/**
 * @file
 * Randomized differential tests: the cache tag array and the
 * directory are driven with long random operation sequences and
 * checked, step by step, against simple reference models.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <unordered_map>

#include "mem/cache_array.hh"
#include "mem/directory.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

/** Reference model: per-set LRU list with the clean-first policy. */
class RefCache
{
  public:
    RefCache(unsigned sets, unsigned assoc) : sets(sets), assoc(assoc)
    {
        data.resize(sets);
    }

    struct Entry
    {
        LineAddr line;
        LineState state;
    };

    const Entry *
    find(LineAddr line) const
    {
        const auto &set = data[line % sets];
        for (const auto &e : set) {
            if (e.line == line)
                return &e;
        }
        return nullptr;
    }

    void
    touch(LineAddr line)
    {
        auto &set = data[line % sets];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->line == line) {
                Entry e = *it;
                set.erase(it);
                set.push_back(e); // back = MRU
                return;
            }
        }
    }

    /** @return displaced line, or kNoLine. */
    static constexpr LineAddr kNoLine = ~LineAddr{0};

    LineAddr
    insert(LineAddr line, LineState st)
    {
        auto &set = data[line % sets];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->line == line) {
                it->state = st;
                touch(line);
                return kNoLine;
            }
        }
        LineAddr victim = kNoLine;
        if (set.size() >= assoc) {
            // Clean-first LRU: oldest clean entry, else oldest dirty.
            auto pick = set.end();
            for (auto it = set.begin(); it != set.end(); ++it) {
                if (it->state != LineState::Dirty) {
                    pick = it;
                    break;
                }
            }
            if (pick == set.end())
                pick = set.begin();
            victim = pick->line;
            set.erase(pick);
        }
        set.push_back({line, st});
        return victim;
    }

    void
    invalidate(LineAddr line)
    {
        auto &set = data[line % sets];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->line == line) {
                set.erase(it);
                return;
            }
        }
    }

  private:
    unsigned sets;
    unsigned assoc;
    std::vector<std::list<Entry>> data;
};

TEST(FuzzCacheArray, MatchesReferenceModel)
{
    const unsigned kSets = 8, kAssoc = 4;
    CacheArray dut(CacheGeometry{kSets * kAssoc * 32, kAssoc, 32});
    RefCache ref(kSets, kAssoc);
    Rng rng(2026);

    for (int step = 0; step < 20000; ++step) {
        LineAddr line = rng.below(64);
        switch (rng.below(4)) {
          case 0: { // lookup
            const CacheLine *d = dut.lookup(line);
            const RefCache::Entry *r = ref.find(line);
            ASSERT_EQ(d != nullptr, r != nullptr)
                << "step " << step << " line " << line;
            if (d) {
                ASSERT_EQ(d->state, r->state);
                ref.touch(line);
            }
            break;
          }
          case 1: { // insert shared
            std::optional<Victim> vic;
            dut.insert(line, LineState::Shared, nullptr, vic);
            LineAddr rv = ref.insert(line, LineState::Shared);
            ASSERT_EQ(vic.has_value(), rv != RefCache::kNoLine)
                << "step " << step;
            if (vic) {
                ASSERT_EQ(vic->line, rv) << "step " << step;
            }
            break;
          }
          case 2: { // insert dirty
            std::optional<Victim> vic;
            dut.insert(line, LineState::Dirty, nullptr, vic);
            LineAddr rv = ref.insert(line, LineState::Dirty);
            ASSERT_EQ(vic.has_value(), rv != RefCache::kNoLine);
            if (vic) {
                ASSERT_EQ(vic->line, rv);
            }
            break;
          }
          case 3: // invalidate
            dut.invalidate(line);
            ref.invalidate(line);
            break;
        }
    }
}

/** Reference directory: exact per-line sharer sets. */
struct RefDir
{
    struct E
    {
        std::uint32_t sharers = 0;
        bool dirty = false;
        ProcId owner = 0;
    };
    std::map<LineAddr, E> entries;
};

TEST(FuzzDirectory, MatchesReferenceModel)
{
    const unsigned kProcs = 8;
    // Exact signatures: expansion then touches only the truly written
    // line, so the reference stays in lockstep (aliasing behaviour is
    // covered by the directory and signature unit tests).
    SignatureConfig exact_cfg;
    exact_cfg.exact = true;
    Directory dut(exact_cfg, kProcs);
    RefDir ref;
    Rng rng(777);
    std::vector<DirDisplacement> disp;

    for (int step = 0; step < 20000; ++step) {
        LineAddr line = rng.below(256);
        ProcId p = static_cast<ProcId>(rng.below(kProcs));
        switch (rng.below(5)) {
          case 0: {
            dut.recordRead(line, p, disp);
            auto &e = ref.entries[line];
            e.sharers |= 1u << p;
            break;
          }
          case 1: {
            std::uint32_t inval = dut.recordReadEx(line, p, disp);
            auto &e = ref.entries[line];
            std::uint32_t expect = e.sharers & ~(1u << p);
            ASSERT_EQ(inval, expect) << "step " << step;
            e.sharers = 1u << p;
            e.dirty = true;
            e.owner = p;
            break;
          }
          case 2: {
            dut.recordWriteback(line, p);
            auto it = ref.entries.find(line);
            if (it != ref.entries.end() && it->second.dirty &&
                it->second.owner == p) {
                it->second.dirty = false;
            }
            break;
          }
          case 3: {
            dut.dropSharer(line, p);
            auto it = ref.entries.find(line);
            if (it != ref.entries.end()) {
                it->second.sharers &= ~(1u << p);
                if (it->second.dirty && it->second.owner == p)
                    it->second.dirty = false;
            }
            break;
          }
          case 4: { // expansion of a single-line W
            Signature w(exact_cfg);
            w.insert(line);
            ExpansionResult res = dut.expand(w, p);
            auto it = ref.entries.find(line);
            // Table 1 reference semantics for the truly-written line.
            std::uint32_t expect_inval = 0;
            if (it != ref.entries.end() && !it->second.dirty &&
                (it->second.sharers >> p) & 1) {
                expect_inval = it->second.sharers & ~(1u << p);
                it->second.sharers = 1u << p;
                it->second.dirty = true;
                it->second.owner = p;
            }
            // Aliased candidates can only ADD invalidation targets.
            ASSERT_EQ(res.invalidationList & expect_inval,
                      expect_inval)
                << "step " << step;
            break;
          }
        }

        // Spot-check a random line's state against the reference.
        LineAddr probe = rng.below(256);
        const DirEntry *d = dut.peek(probe);
        auto it = ref.entries.find(probe);
        if (it != ref.entries.end()) {
            ASSERT_NE(d, nullptr);
            ASSERT_EQ(d->sharers, it->second.sharers)
                << "step " << step << " line " << probe;
            ASSERT_EQ(d->dirty, it->second.dirty);
            if (d->dirty) {
                ASSERT_EQ(d->owner, it->second.owner);
            }
        }
    }
}

} // namespace
} // namespace bulksc
