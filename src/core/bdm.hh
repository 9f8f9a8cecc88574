/**
 * @file
 * Per-processor Bulk Disambiguation Module state: the chunk descriptor
 * (R / W / Wpriv signature set, speculative values, execution
 * bookkeeping) and the Private Buffer of the dynamically-private data
 * optimization (Section 5.2).
 *
 * The BDM is deliberately decoupled from the cache: the tag/data arrays
 * never learn what is speculative. All speculation bookkeeping lives
 * here, and interacts with the cache only through victim filters and
 * bulk operations.
 */

#ifndef BULKSC_CORE_BDM_HH
#define BULKSC_CORE_BDM_HH

#include <cstdint>
#include <vector>

#include "analysis/access_log.hh"
#include "signature/signature.hh"
#include "sim/line_set.hh"
#include "sim/types.hh"

namespace bulksc {

/**
 * The Private Buffer: holds the pre-update version of dirty
 * non-speculative lines whose writes were diverted to Wpriv. ~24
 * entries, not on any critical path (Section 5.2). Only membership is
 * modelled; data contents live in the simulator's value store.
 */
class PrivateBuffer
{
  public:
    explicit PrivateBuffer(unsigned capacity = 24) : cap(capacity) {}

    bool full() const { return lines.size() >= cap; }

    bool contains(LineAddr l) const { return lines.contains(l); }

    /** @return false if the buffer is full (caller must fall back to
     *  writeback + W insertion). */
    bool
    insert(LineAddr l)
    {
        if (lines.contains(l))
            return true;
        if (full())
            return false;
        lines.insert(l);
        if (lines.size() > highWater)
            highWater = static_cast<unsigned>(lines.size());
        return true;
    }

    void erase(LineAddr l) { lines.erase(l); }

    void clear() { lines.clear(); }

    std::size_t size() const { return lines.size(); }

    unsigned highWatermark() const { return highWater; }

  private:
    unsigned cap;
    unsigned highWater = 0;
    LineSet lines;
};

/**
 * One in-flight chunk: a dynamically-built group of consecutive
 * instructions executing speculatively with its own signature set and
 * checkpoint (Section 4.1).
 */
struct Chunk
{
    Chunk(std::uint64_t seq_, std::size_t start_pos, unsigned target,
          const SignatureConfig &cfg)
        : seq(seq_), startPos(start_pos), targetSize(target), r(cfg),
          w(cfg), wpriv(cfg)
    {}

    /** Monotonic chunk id (the hardware's Chunk ID bits). */
    std::uint64_t seq;

    /** Trace position of the checkpoint (rollback target). */
    std::size_t startPos;

    /** Instructions after which the chunk ends (shrinks on squash). */
    unsigned targetSize;

    /** Instructions executed so far (including spin iterations). */
    std::uint64_t execInstrs = 0;

    Signature r;     //!< read signature
    Signature w;     //!< write signature (consistency-visible)
    Signature wpriv; //!< private-write signature (Section 5)

    /**
     * Exact speculative write lines of this chunk, the model of the
     * per-line chunk-id bits the BDM keeps in the L1. Unlike the
     * signatures' optional exact mirror (stats metadata), these sets
     * are functional state: L1 way-overflow checks, squash discard,
     * and directory selection at commit read them, so they are
     * maintained in every mode. Writes only — loads stay mirror-free.
     */
    LineSet wLines;
    LineSet wprivLines;

    /** Insert into W and its exact line set. @return true iff the
     *  line is new to wLines. */
    bool
    addW(LineAddr l)
    {
        w.insert(l);
        return wLines.insert(l);
    }

    /** Insert into Wpriv and its exact line set. @return true iff the
     *  line is new to wprivLines. */
    bool
    addWpriv(LineAddr l)
    {
        wpriv.insert(l);
        return wprivLines.insert(l);
    }

    /** This chunk's stores to one address, as a load sees them. */
    struct SpecStore
    {
        std::uint64_t value;  //!< latest tracked value, if hasValue
        std::uint32_t logIdx; //!< accessLog index of the latest store
        bool hasValue;        //!< some store here tracked a value
    };

    /**
     * This chunk's stores by word address: the speculative values
     * (tracked stores) and, with an analysis engine attached, the
     * latest store of every address as an index into accessLog, the
     * per-chunk half of the load instrumentation's writer-tag lookup.
     * Dies with the chunk on squash, so tags never reference
     * discarded work.
     */
    LineMap<SpecStore> specStores;

    /** Program-ordered access log for the SC verifier and the
     *  analysis engine (only filled when one is attached). */
    std::vector<LoggedAccess> accessLog;

    /** Lines whose old version this chunk parked in the Private
     *  Buffer. */
    std::vector<LineAddr> privBufLines;

    /** Store lines not yet present in the L1 (commit must wait). */
    LineSet outstandingStoreLines;

    /** Forwarding-log entries not yet drained into R (the window of
     *  vulnerability of Section 3.2.1). */
    unsigned pendingFwd = 0;

    /** Loads issued for this chunk and not yet completed. */
    unsigned inflightLoads = 0;

    /** The chunk has reached its boundary (size/overflow/trace end). */
    bool endReached = false;

    /** Transaction nesting depth at the checkpoint (restored on
     *  squash so re-execution re-enters transactions correctly). */
    unsigned txnDepthAtStart = 0;

    /** A permission-to-commit request is outstanding. */
    bool arbitrating = false;

    /** Tick of the first commit request (arbitration-latency stat;
     *  kTickNever until the chunk first arbitrates). */
    Tick firstArbTick = kTickNever;

    bool
    readyToArbitrate() const
    {
        return endReached && !arbitrating && inflightLoads == 0 &&
               outstandingStoreLines.empty() && pendingFwd == 0;
    }
};

/**
 * The live chunks' speculative write lines, counted per L1 set: the
 * state behind the Section 4.1.2 overflow rule ("would this store's
 * line find no free L1 way?"), answered in constant time.
 *
 * Every membership of a line in a live chunk's wLines or wprivLines is
 * one reference; a line is held while it has any. The per-set count is
 * the number of distinct held lines in that set. The owner adds a
 * reference when a line first enters one of a chunk's two sets and
 * drops all of a chunk's references when the chunk leaves the live
 * list (commit or squash).
 */
class SpecLineCounts
{
  public:
    /** @param num_sets L1 sets; the per-set table is allocated on the
     *  first add(). */
    explicit SpecLineCounts(std::size_t num_sets) : numSets(num_sets) {}

    /** One more membership of @p line, which maps to L1 set @p set. */
    void
    add(LineAddr line, std::uint32_t set)
    {
        if (!(*refs.try_emplace(line, 0).first)++) {
            if (perSet.empty())
                perSet.resize(numSets);
            ++perSet[set];
        }
    }

    /** Drop one membership of held @p line (in L1 set @p set). */
    void
    remove(LineAddr line, std::uint32_t set)
    {
        std::uint32_t *n = refs.find(line);
        if (!--*n) {
            refs.erase(line);
            --perSet[set];
        }
    }

    /** Drop every membership @p c holds (@p set_of maps a line to its
     *  L1 set). */
    template <typename SetOf>
    void
    removeChunk(const Chunk &c, SetOf &&set_of)
    {
        for (LineAddr l : c.wLines)
            remove(l, set_of(l));
        for (LineAddr l : c.wprivLines)
            remove(l, set_of(l));
    }

    /** Is @p line speculative in some live chunk? */
    bool held(LineAddr line) const { return refs.contains(line); }

    /**
     * Section 4.1.2's overflow rule: would a store to @p line, which
     * maps to L1 set @p set of associativity @p assoc, find no way?
     * True when the line is not yet speculative and the live chunks
     * already hold assoc-1 or more other lines in its set.
     */
    bool
    wouldOverflow(LineAddr line, std::uint32_t set, unsigned assoc) const
    {
        return !held(line) && inSet(set) >= assoc - 1;
    }

    /** Distinct held lines in L1 set @p set. */
    std::uint32_t
    inSet(std::uint32_t set) const
    {
        return perSet.empty() ? 0 : perSet[set];
    }

    /** Distinct held lines, all sets. */
    std::size_t heldLines() const { return refs.size(); }

  private:
    std::size_t numSets;
    LineMap<std::uint32_t> refs;        //!< held line -> memberships
    std::vector<std::uint32_t> perSet;  //!< empty until the first add
};

} // namespace bulksc

#endif // BULKSC_CORE_BDM_HH
