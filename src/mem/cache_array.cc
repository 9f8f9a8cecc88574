#include "mem/cache_array.hh"

#include "sim/rng.hh"

namespace bulksc {

namespace {

/** One valid line's term of the fingerprint sum. */
std::uint64_t
lineDigest(LineAddr line, LineState state)
{
    return mix64(line * 4 + static_cast<std::uint64_t>(state));
}

} // namespace

CacheArray::CacheArray(const CacheGeometry &g)
    : geom(g)
{
    geom.validate();
    lines.resize(geom.numLines());
}

CacheLine *
CacheArray::findWay(LineAddr line)
{
    std::uint32_t set = geom.setIndex(line);
    CacheLine *base = &lines[std::size_t{set} * geom.assoc];
    for (unsigned w = 0; w < geom.assoc; ++w) {
        if (base[w].valid() && base[w].line == line)
            return &base[w];
    }
    return nullptr;
}

const CacheLine *
CacheArray::lookup(LineAddr line)
{
    CacheLine *entry = findWay(line);
    if (entry) {
        entry->lruStamp = ++lruCounter;
        ++nHits;
    } else {
        ++nMisses;
    }
    return entry;
}

const CacheLine *
CacheArray::peek(LineAddr line) const
{
    std::uint32_t set = geom.setIndex(line);
    const CacheLine *base = &lines[std::size_t{set} * geom.assoc];
    for (unsigned w = 0; w < geom.assoc; ++w) {
        if (base[w].valid() && base[w].line == line)
            return &base[w];
    }
    return nullptr;
}

const CacheLine *
CacheArray::insert(LineAddr line, LineState state,
                   const VictimFilter &filter,
                   std::optional<Victim> &victim)
{
    victim.reset();
    std::uint32_t set = geom.setIndex(line);
    CacheLine *base = &lines[std::size_t{set} * geom.assoc];

    // Reuse the existing way if the line is already present.
    CacheLine *target = nullptr;
    for (unsigned w = 0; w < geom.assoc; ++w) {
        if (base[w].valid() && base[w].line == line) {
            target = &base[w];
            break;
        }
    }

    // Otherwise take an invalid way, or the LRU way that may be evicted.
    if (!target) {
        for (unsigned w = 0; w < geom.assoc; ++w) {
            if (!base[w].valid()) {
                target = &base[w];
                break;
            }
        }
    }
    if (!target) {
        // Clean-first LRU: displacing a clean line costs only a
        // refetch, while a dirty victim needs a writeback — so prefer
        // the LRU clean line and fall back to the LRU dirty one.
        CacheLine *lru_clean = nullptr;
        CacheLine *lru_dirty = nullptr;
        for (unsigned w = 0; w < geom.assoc; ++w) {
            if (filter && !filter(base[w].line))
                continue;
            if (base[w].state == LineState::Dirty) {
                if (!lru_dirty ||
                    base[w].lruStamp < lru_dirty->lruStamp)
                    lru_dirty = &base[w];
            } else {
                if (!lru_clean ||
                    base[w].lruStamp < lru_clean->lruStamp)
                    lru_clean = &base[w];
            }
        }
        CacheLine *lru = lru_clean ? lru_clean : lru_dirty;
        if (!lru)
            return nullptr; // every way vetoed
        victim = Victim{lru->line, lru->state == LineState::Dirty};
        target = lru;
    }

    assign(*target, line, state);
    target->lruStamp = ++lruCounter;
    return target;
}

LineState
CacheArray::invalidate(LineAddr line)
{
    CacheLine *entry = findWay(line);
    if (!entry)
        return LineState::Invalid;
    LineState prev = entry->state;
    assign(*entry, line, LineState::Invalid);
    return prev;
}

void
CacheArray::setState(LineAddr line, LineState state)
{
    if (CacheLine *entry = findWay(line))
        assign(*entry, line, state);
}

void
CacheArray::assign(CacheLine &l, LineAddr line, LineState state)
{
    // Commutative sum, so way placement within a set is irrelevant.
    if (l.valid())
        digest -= lineDigest(l.line, l.state);
    l.line = line;
    l.state = state;
    if (l.valid())
        digest += lineDigest(l.line, l.state);
}

unsigned
CacheArray::countVetoed(LineAddr line, const VictimFilter &filter) const
{
    std::uint32_t set = geom.setIndex(line);
    const CacheLine *base = &lines[std::size_t{set} * geom.assoc];
    unsigned vetoed = 0;
    for (unsigned w = 0; w < geom.assoc; ++w) {
        if (base[w].valid() && filter && !filter(base[w].line))
            ++vetoed;
    }
    return vetoed;
}

void
CacheArray::forEachInSet(std::uint32_t set_idx,
                         const std::function<void(const CacheLine &)> &fn)
    const
{
    const CacheLine *base = &lines[std::size_t{set_idx} * geom.assoc];
    for (unsigned w = 0; w < geom.assoc; ++w) {
        if (base[w].valid())
            fn(base[w]);
    }
}

void
CacheArray::forEach(const std::function<void(const CacheLine &)> &fn) const
{
    for (const auto &l : lines) {
        if (l.valid())
            fn(l);
    }
}

} // namespace bulksc
