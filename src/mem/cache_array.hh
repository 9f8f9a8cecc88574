/**
 * @file
 * A set-associative tag array with LRU replacement.
 *
 * As in the paper, the tag/data arrays know nothing about speculation:
 * lines carry only a coherence state. Speculative-line protection is
 * imposed from outside through the victim filter passed to insert(),
 * which is how the BDM prevents displacement of speculatively written
 * lines (Section 4.1.1).
 */

#ifndef BULKSC_MEM_CACHE_ARRAY_HH
#define BULKSC_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "mem/cache_geometry.hh"
#include "sim/types.hh"

namespace bulksc {

/** Coherence state of a cached line (MSI with a dirty/owned state). */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Dirty, //!< Modified/owned (may be speculative; the array can't tell)
};

/**
 * One cache line's tag-array entry. Deliberately without default
 * member initialisers, so CacheArray can allocate its storage without
 * writing it; CacheArray initialises a set's ways on first insert.
 */
struct CacheLine
{
    LineAddr line;
    LineState state;
    std::uint64_t lruStamp;

    bool valid() const { return state != LineState::Invalid; }
};

/** A victim displaced by an insertion. */
struct Victim
{
    LineAddr line;
    bool dirty;
};

/**
 * Generic set-associative cache tag array.
 *
 * Every coherence-state change goes through insert(), invalidate() or
 * setState(), which keep the running fingerprint() digest current;
 * callers only ever see const lines.
 *
 * Sets are initialised lazily, so a large array costs nothing until a
 * run touches it: the line storage is never cleared as a whole (it is
 * fresh from the allocator, or recycled from a destroyed array of the
 * same size), and one ready bit per set records whether the set's ways
 * hold meaningful entries. An unready set reads as all-Invalid on
 * every path, and only insert() readies a set (setting its ways to
 * Invalid/0 first), so the observable contents, LRU order and visit
 * order are exactly those of an eagerly zeroed array.
 */
class CacheArray
{
  public:
    /** Predicate deciding whether a line may be chosen as a victim. */
    using VictimFilter = std::function<bool(LineAddr)>;

    explicit CacheArray(const CacheGeometry &geom);

    /** Look up @p line, updating LRU on hit. @return entry or nullptr. */
    const CacheLine *lookup(LineAddr line);

    /** Look up @p line without touching LRU state. */
    const CacheLine *peek(LineAddr line) const;

    /**
     * Insert @p line with @p state, evicting the LRU victim of its set
     * that passes @p filter.
     *
     * @param[out] victim The displaced valid line, if any.
     * @return the inserted entry, or nullptr if every candidate way was
     *         vetoed by the filter (the caller must handle bypass).
     */
    const CacheLine *insert(LineAddr line, LineState state,
                            const VictimFilter &filter,
                            std::optional<Victim> &victim);

    /** Invalidate @p line if present. @return its state beforehand. */
    LineState invalidate(LineAddr line);

    /** Change the state of @p line, if present, without touching LRU
     *  state (owner downgrades, speculative stores). */
    void setState(LineAddr line, LineState state);

    /**
     * Number of ways of @p line's set currently vetoed by @p filter.
     * Used by chunk-overflow checks.
     */
    unsigned countVetoed(LineAddr line, const VictimFilter &filter) const;

    /** Apply @p fn to every valid line of set @p set_idx. */
    void forEachInSet(std::uint32_t set_idx,
                      const std::function<void(const CacheLine &)> &fn)
        const;

    /** Apply @p fn to every valid line in the array. */
    void forEach(const std::function<void(const CacheLine &)> &fn) const;

    const CacheGeometry &geometry() const { return geom; }

    /** Number of sets (a power of two; validated at construction). */
    std::uint64_t numSets() const { return setMask + 1; }

    /** Set index of a line address: its low-order bits. */
    std::uint32_t
    setIndex(LineAddr line) const
    {
        return static_cast<std::uint32_t>(line & setMask);
    }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }

    /**
     * Order-insensitive digest of the coherence-visible contents: a
     * sum of one term per valid line (tag and state), kept current by
     * every state change so reading it is O(1). LRU stamps and
     * hit/miss counters are deliberately excluded: they are
     * performance bookkeeping, and folding them in would make every
     * explorer fingerprint unique, defeating revisit pruning.
     */
    std::uint64_t fingerprint() const { return digest; }

  private:
    /**
     * Deleter that hands the line storage to a process-wide spare
     * list instead of freeing it, so the next array of the same size
     * reuses pages that are already resident.
     */
    struct RecycleLines
    {
        std::uint64_t count; //!< lines in the storage
        void operator()(CacheLine *storage) const;
    };

    CacheLine *findWay(LineAddr line);

    /** First way of set @p set_idx. */
    CacheLine *
    setBase(std::uint32_t set_idx) const
    {
        return &lines[std::size_t{set_idx} * geom.assoc];
    }

    bool
    isReady(std::uint32_t set_idx) const
    {
        return (readySets[set_idx / 64] >> (set_idx % 64)) & 1;
    }

    /** Overwrite @p l's tag and state, moving its fingerprint term. */
    void assign(CacheLine &l, LineAddr line, LineState state);

    CacheGeometry geom;
    std::uint64_t setMask = 0; //!< numSets() - 1
    //! numLines() entries, set-major; unready sets hold garbage
    std::unique_ptr<CacheLine[], RecycleLines> lines;
    std::vector<std::uint64_t> readySets; //!< one bit per set
    std::uint64_t lruCounter = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t digest = 0;
};

} // namespace bulksc

#endif // BULKSC_MEM_CACHE_ARRAY_HH
