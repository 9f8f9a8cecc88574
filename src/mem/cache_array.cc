#include "mem/cache_array.hh"

#include <mutex>
#include <utility>

#include "sim/rng.hh"

namespace bulksc {

namespace {

/**
 * Line storage of destroyed arrays, kept for the next array of the
 * same size. Freed instead, the L2's 6.3 MB tends to go back to the
 * kernel, and the next System's run would fault its pages in again
 * as it first touches each set. The list never holds more buffers of
 * one size than were alive at once.
 */
struct SpareLines
{
    std::mutex lock;
    //! (line count, storage), most recently returned last
    std::vector<std::pair<std::uint64_t, std::unique_ptr<CacheLine[]>>>
        buffers;
};

SpareLines &
spareLines()
{
    // Deliberately never destroyed, so an array destroyed during
    // static destruction can still hand its storage back.
    static auto *spare = new SpareLines;
    return *spare;
}

/** Storage for @p count lines, recycled if possible; unwritten. */
CacheLine *
takeLines(std::uint64_t count)
{
    SpareLines &spare = spareLines();
    std::lock_guard<std::mutex> guard(spare.lock);
    for (auto it = spare.buffers.rbegin(); it != spare.buffers.rend();
         ++it) {
        if (it->first == count) {
            CacheLine *storage = it->second.release();
            spare.buffers.erase(std::next(it).base());
            return storage;
        }
    }
    return std::make_unique_for_overwrite<CacheLine[]>(count).release();
}

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
    setMask = geom.numSets() - 1;
    // Not cleared on purpose: insert() readies each set on first use.
    lines = {takeLines(geom.numLines()), RecycleLines{geom.numLines()}};
    readySets.resize((numSets() + 63) / 64);
}

void
CacheArray::RecycleLines::operator()(CacheLine *storage) const
{
    SpareLines &spare = spareLines();
    std::lock_guard<std::mutex> guard(spare.lock);
    spare.buffers.emplace_back(count, storage);
}

CacheLine *
CacheArray::findWay(LineAddr line)
{
    std::uint32_t set = setIndex(line);
    if (!isReady(set))
        return nullptr;
    CacheLine *base = setBase(set);
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
    std::uint32_t set = setIndex(line);
    if (!isReady(set))
        return nullptr;
    const CacheLine *base = setBase(set);
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
    std::uint32_t set = setIndex(line);
    CacheLine *base = setBase(set);
    if (!isReady(set)) {
        for (unsigned w = 0; w < geom.assoc; ++w)
            base[w] = CacheLine{0, LineState::Invalid, 0};
        readySets[set / 64] |= std::uint64_t{1} << (set % 64);
    }

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
    std::uint32_t set = setIndex(line);
    if (!isReady(set))
        return 0;
    const CacheLine *base = setBase(set);
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
    if (!isReady(set_idx))
        return;
    const CacheLine *base = setBase(set_idx);
    for (unsigned w = 0; w < geom.assoc; ++w) {
        if (base[w].valid())
            fn(base[w]);
    }
}

void
CacheArray::forEach(const std::function<void(const CacheLine &)> &fn) const
{
    for (std::uint64_t set = 0; set <= setMask; ++set)
        forEachInSet(static_cast<std::uint32_t>(set), fn);
}

} // namespace bulksc
