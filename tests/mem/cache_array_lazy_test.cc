/**
 * @file
 * Differential test of the lazily initialised tag array: a CacheArray
 * and an eagerly zeroed reference model (the plain vector-of-lines
 * semantics the lazy sets must reproduce) are driven with the same
 * random operation sequences, and every return value, victim, digest,
 * counter and visit order is compared after each step.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "mem/cache_array.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

/** Eager reference: every way zeroed up front, full scans throughout. */
class EagerArray
{
  public:
    explicit EagerArray(const CacheGeometry &g)
        : geom(g), lines(g.numLines(), CacheLine{0, LineState::Invalid, 0})
    {}

    const CacheLine *
    lookup(LineAddr line)
    {
        CacheLine *l = find(line);
        if (l) {
            l->lruStamp = ++lru;
            ++hits;
        } else {
            ++misses;
        }
        return l;
    }

    const CacheLine *peek(LineAddr line) { return find(line); }

    const CacheLine *
    insert(LineAddr line, LineState state,
           const CacheArray::VictimFilter &filter,
           std::optional<Victim> &victim)
    {
        victim.reset();
        CacheLine *base = set(setOf(line));
        CacheLine *target = find(line);
        for (unsigned w = 0; !target && w < geom.assoc; ++w) {
            if (!base[w].valid())
                target = &base[w];
        }
        if (!target) {
            CacheLine *clean = nullptr, *dirty = nullptr;
            for (unsigned w = 0; w < geom.assoc; ++w) {
                CacheLine &l = base[w];
                if (filter && !filter(l.line))
                    continue;
                CacheLine *&best =
                    l.state == LineState::Dirty ? dirty : clean;
                if (!best || l.lruStamp < best->lruStamp)
                    best = &l;
            }
            target = clean ? clean : dirty;
            if (!target)
                return nullptr;
            victim = Victim{target->line, target->state == LineState::Dirty};
        }
        target->line = line;
        target->state = state;
        target->lruStamp = ++lru;
        return target;
    }

    LineState
    invalidate(LineAddr line)
    {
        CacheLine *l = find(line);
        if (!l)
            return LineState::Invalid;
        LineState prev = l->state;
        l->state = LineState::Invalid;
        return prev;
    }

    void
    setState(LineAddr line, LineState state)
    {
        if (CacheLine *l = find(line))
            l->state = state;
    }

    unsigned
    countVetoed(LineAddr line, const CacheArray::VictimFilter &filter)
    {
        const CacheLine *base = set(setOf(line));
        unsigned n = 0;
        for (unsigned w = 0; w < geom.assoc; ++w) {
            if (base[w].valid() && filter && !filter(base[w].line))
                ++n;
        }
        return n;
    }

    /** Recomputed from scratch, unlike CacheArray's running sum. */
    std::uint64_t
    fingerprint() const
    {
        std::uint64_t d = 0;
        for (const CacheLine &l : lines) {
            if (l.valid())
                d += mix64(l.line * 4 + static_cast<std::uint64_t>(l.state));
        }
        return d;
    }

    CacheGeometry geom;
    std::vector<CacheLine> lines;
    std::uint64_t lru = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    CacheLine *
    set(std::uint32_t idx)
    {
        return &lines[std::size_t{idx} * geom.assoc];
    }

    /** Set of @p line by division, independent of the array's mask. */
    std::uint32_t
    setOf(LineAddr line) const
    {
        return static_cast<std::uint32_t>(line % geom.numSets());
    }

    CacheLine *
    find(LineAddr line)
    {
        CacheLine *base = set(setOf(line));
        for (unsigned w = 0; w < geom.assoc; ++w) {
            if (base[w].valid() && base[w].line == line)
                return &base[w];
        }
        return nullptr;
    }
};

using Visit = std::tuple<LineAddr, LineState, std::uint64_t>;

Visit
visitOf(const CacheLine &l)
{
    return {l.line, l.state, l.lruStamp};
}

std::optional<Visit>
entryOf(const CacheLine *l)
{
    if (!l)
        return std::nullopt;
    return visitOf(*l);
}

std::vector<Visit>
visitsOf(const std::vector<CacheLine> &lines, std::size_t first,
         std::size_t count)
{
    std::vector<Visit> out;
    for (std::size_t i = first; i < first + count; ++i) {
        if (lines[i].valid())
            out.push_back(visitOf(lines[i]));
    }
    return out;
}

void
expectSameContents(const CacheArray &lazy, const EagerArray &ref,
                   const std::vector<std::uint32_t> &sets,
                   bool whole_array)
{
    ASSERT_EQ(lazy.fingerprint(), ref.fingerprint());
    ASSERT_EQ(lazy.hits(), ref.hits);
    ASSERT_EQ(lazy.misses(), ref.misses);
    const unsigned assoc = ref.geom.assoc;
    for (std::uint32_t s : sets) {
        std::vector<Visit> got;
        lazy.forEachInSet(s,
                          [&](const CacheLine &l) { got.push_back(visitOf(l)); });
        ASSERT_EQ(got, visitsOf(ref.lines, std::size_t{s} * assoc, assoc))
            << "set " << s;
    }
    if (whole_array) {
        std::vector<Visit> got;
        lazy.forEach([&](const CacheLine &l) { got.push_back(visitOf(l)); });
        ASSERT_EQ(got, visitsOf(ref.lines, 0, ref.lines.size()));
    }
}

/**
 * Insert a valid line into every way of @p g's sets and destroy the
 * array, so the next array of that geometry starts on recycled
 * storage full of stale valid-looking lines.
 */
void
leaveStaleStorage(const CacheGeometry &g)
{
    CacheArray prev(g);
    std::optional<Victim> vic;
    for (LineAddr tag = 0; tag < g.assoc; ++tag) {
        for (LineAddr s = 0; s < g.numSets(); ++s)
            prev.insert(tag * g.numSets() + s, LineState::Dirty, nullptr, vic);
    }
}

/**
 * Drive both arrays with @p steps random operations, the lazy one on
 * recycled storage. Lines are drawn from a few tags in a handful of
 * sets (the first and last set, both sides of each 64-set bitmap word
 * boundary, and random ones), so sets fill, evict and get vetoed.
 */
void
runDifferential(const CacheGeometry &g, unsigned steps,
                unsigned whole_array_every, std::uint64_t seed)
{
    leaveStaleStorage(g);
    CacheArray lazy(g);
    EagerArray ref(g);
    Rng rng(seed);
    const std::uint32_t num_sets = static_cast<std::uint32_t>(g.numSets());

    std::vector<std::uint32_t> sets{0, num_sets - 1};
    for (std::uint32_t s : {63u, 64u, 127u, 128u})
        if (s < num_sets)
            sets.push_back(s);
    for (int i = 0; i < 4; ++i)
        sets.push_back(static_cast<std::uint32_t>(rng.below(num_sets)));
    const unsigned tags = g.assoc + 3;

    auto pick_line = [&] {
        std::uint32_t s = sets[rng.below(sets.size())];
        return static_cast<LineAddr>(rng.below(tags)) * num_sets + s;
    };
    auto pick_state = [&] {
        return rng.below(2) ? LineState::Dirty : LineState::Shared;
    };

    for (unsigned step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const LineAddr line = pick_line();
        // A fresh veto predicate each step: rejects about a third of
        // the tags (all of them now and then).
        const std::uint64_t salt = rng.next();
        const bool veto_all = rng.below(16) == 0;
        CacheArray::VictimFilter filter = [=](LineAddr l) {
            return !veto_all && mix64(l ^ salt) % 3 != 0;
        };

        switch (rng.below(8)) {
          case 0:
            ASSERT_EQ(entryOf(lazy.lookup(line)), entryOf(ref.lookup(line)));
            break;
          case 1:
            ASSERT_EQ(entryOf(lazy.peek(line)), entryOf(ref.peek(line)));
            break;
          case 2:
          case 3: {
            const LineState st = pick_state();
            const bool filtered = rng.below(2);
            const CacheArray::VictimFilter &f =
                filtered ? filter : CacheArray::VictimFilter{};
            std::optional<Victim> vl, vr;
            auto got = entryOf(lazy.insert(line, st, f, vl));
            auto want = entryOf(ref.insert(line, st, f, vr));
            ASSERT_EQ(got, want);
            ASSERT_EQ(vl.has_value(), vr.has_value());
            if (vl) {
                ASSERT_EQ(vl->line, vr->line);
                ASSERT_EQ(vl->dirty, vr->dirty);
            }
            break;
          }
          case 4:
            ASSERT_EQ(lazy.invalidate(line), ref.invalidate(line));
            break;
          case 5: {
            const LineState st = pick_state();
            lazy.setState(line, st);
            ref.setState(line, st);
            break;
          }
          case 6:
            ASSERT_EQ(lazy.countVetoed(line, filter),
                      ref.countVetoed(line, filter));
            break;
          default:
            // Reads of sets no operation ever touches.
            ASSERT_EQ(entryOf(lazy.peek(line + 1)),
                      entryOf(ref.peek(line + 1)));
            ASSERT_EQ(lazy.countVetoed(line + 1, filter),
                      ref.countVetoed(line + 1, filter));
            break;
        }
        expectSameContents(lazy, ref, sets,
                           step % whole_array_every == 0 ||
                               step + 1 == steps);
    }
}

TEST(CacheArrayLazy, MatchesEagerTable2L1)
{
    runDifferential(CacheGeometry{32 * 1024, 4, 32}, 4000, 1, 1);
}

TEST(CacheArrayLazy, MatchesEagerTable2L2)
{
    // forEach over 262,144 reference lines is the slow part, so the
    // whole-array order is compared every 16th step here.
    runDifferential(CacheGeometry{8 * 1024 * 1024, 8, 32}, 2000, 16, 2);
}

TEST(CacheArrayLazy, MatchesEagerFullyAssociative)
{
    runDifferential(CacheGeometry{8 * 32, 8, 32}, 4000, 1, 3);
}

TEST(CacheArrayLazy, MatchesEagerTwoSets)
{
    runDifferential(CacheGeometry{2 * 4 * 32, 4, 32}, 4000, 1, 4);
}

TEST(CacheArrayLazy, MatchesEager128Sets)
{
    runDifferential(CacheGeometry{128 * 2 * 32, 2, 32}, 4000, 1, 5);
}

TEST(CacheArrayLazy, FreshArrayReadsEmpty)
{
    const CacheGeometry g{8 * 1024 * 1024, 8, 32};
    CacheArray c(g);
    auto veto_all = [](LineAddr) { return false; };
    unsigned visits = 0;
    auto count = [&](const CacheLine &) { ++visits; };
    for (std::uint32_t s = 0; s < g.numSets(); ++s) {
        // Two tags per set: tag 0 matches a zeroed way's line field.
        for (LineAddr line : {LineAddr{s}, LineAddr{s} + g.numSets()}) {
            ASSERT_EQ(c.lookup(line), nullptr);
            ASSERT_EQ(c.peek(line), nullptr);
            ASSERT_EQ(c.countVetoed(line, veto_all), 0u);
            ASSERT_EQ(c.invalidate(line), LineState::Invalid);
            c.setState(line, LineState::Dirty);
            ASSERT_EQ(c.peek(line), nullptr);
        }
        c.forEachInSet(s, count);
    }
    c.forEach(count);
    EXPECT_EQ(visits, 0u);
    EXPECT_EQ(c.fingerprint(), 0u);
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 2 * g.numSets());
}

TEST(CacheArrayLazy, RecycledStorageReadsEmpty)
{
    // A destroyed array's storage goes to the next array of its size,
    // stale lines and all: none of them may show through.
    const CacheGeometry g{8 * 1024 * 1024, 8, 32};
    const CacheLine *old_way = nullptr;
    {
        CacheArray prev(g);
        std::optional<Victim> vic;
        old_way = prev.insert(5, LineState::Dirty, nullptr, vic);
    }
    leaveStaleStorage(g);
    CacheArray c(g);
    auto veto_all = [](LineAddr) { return false; };
    unsigned visits = 0;
    auto count = [&](const CacheLine &) { ++visits; };
    for (std::uint32_t s = 0; s < g.numSets(); ++s) {
        for (LineAddr line : {LineAddr{s}, LineAddr{s} + g.numSets()}) {
            ASSERT_EQ(c.peek(line), nullptr);
            ASSERT_EQ(c.lookup(line), nullptr);
            ASSERT_EQ(c.countVetoed(line, veto_all), 0u);
            ASSERT_EQ(c.invalidate(line), LineState::Invalid);
            c.setState(line, LineState::Shared);
        }
        c.forEachInSet(s, count);
    }
    c.forEach(count);
    EXPECT_EQ(visits, 0u);
    EXPECT_EQ(c.fingerprint(), 0u);

    // The storage really is recycled: line 5 lands in the same way.
    std::optional<Victim> vic;
    EXPECT_EQ(c.insert(5, LineState::Shared, nullptr, vic), old_way);
    EXPECT_FALSE(vic.has_value());
}

} // namespace
} // namespace bulksc
