/**
 * @file
 * Directory state plus the DirBDM bulk operations (Section 4.3).
 *
 * The directory keeps, per line, a full bit-vector of sharers and a
 * dirty/owner indication (Lenoski et al. [22]). The DirBDM extends it to
 * work with the inexact information of signatures:
 *
 *  - signature expansion of an incoming W signature finds candidate
 *    entries (via the bank-0 decode buckets), applies the paper's
 *    Table 1 action matrix to each, and builds the Invalidation List;
 *  - incoming reads are membership-tested against the W signatures of
 *    currently-committing chunks and bounced on a hit (Section 4.3.2);
 *  - an optional directory cache (Section 4.3.3) limits entries and, on
 *    a displacement, produces a one-line signature that the memory
 *    system broadcasts for bulk disambiguation.
 *
 * Entries live in a dense slab, and a flat LineMap indexes it by line;
 * a displaced entry's slot goes to a free list for the next new line.
 * Expansion reaches its candidates through buckets indexed by bank-0
 * index (the low bits of the line). Each bucket is a flat, unordered
 * vector of (line, slot) pairs: expansion scans contiguous memory and
 * updates each entry in place, and a displaced entry leaves its bucket
 * by swap-and-pop. Order within a bucket, like the slot an entry gets,
 * is immaterial, because an expansion's results are ORs and sums over
 * independent entries.
 *
 * This class holds protocol *state and decisions* only; message timing
 * lives in MemorySystem.
 */

#ifndef BULKSC_MEM_DIRECTORY_HH
#define BULKSC_MEM_DIRECTORY_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "signature/signature.hh"
#include "sim/line_set.hh"
#include "sim/types.hh"

namespace bulksc {

/** Per-line directory entry: full bit-vector plus dirty/owner. */
struct DirEntry
{
    std::uint32_t sharers = 0; //!< bit i set => proc i has the line
    bool dirty = false;        //!< some proc owns a modified copy
    ProcId owner = 0;          //!< valid iff dirty

    bool
    isSharer(ProcId p) const
    {
        return (sharers >> p) & 1;
    }

    void addSharer(ProcId p) { sharers |= 1u << p; }
};

/** Outcome of expanding one W signature at a directory module. */
struct ExpansionResult
{
    /** Processors that must receive W for disambiguation/invalidation. */
    std::uint32_t invalidationList = 0;

    /** Directory entries examined during expansion. */
    std::uint64_t lookups = 0;

    /** Lookups caused purely by signature aliasing (false positives). */
    std::uint64_t aliasLookups = 0;

    /** Entries whose state was changed. */
    std::uint64_t updates = 0;

    /** State changes caused purely by aliasing (Table 1 case 2 hit by a
     *  false-positive line; harmless but counted, cf. Table 4). */
    std::uint64_t aliasUpdates = 0;
};

/** One displaced directory-cache entry (Section 4.3.3). */
struct DirDisplacement
{
    LineAddr line;
    std::uint32_t sharers;
    bool dirty;
    ProcId owner;
};

/**
 * A directory module (one per address range in a distributed machine).
 */
class Directory
{
  public:
    /**
     * @param sig_cfg Signature geometry; the DirBDM decode function is
     *        derived from it.
     * @param num_procs Width of the sharer bit-vector.
     * @param max_entries 0 for a full-mapped directory; otherwise the
     *        capacity of the directory cache.
     */
    Directory(const SignatureConfig &sig_cfg, unsigned num_procs,
              std::size_t max_entries = 0);

    /**
     * Record a demand read by @p p (all BulkSC demand misses are read
     * requests, Section 4.3). Creates the entry if needed; may displace
     * a directory-cache entry.
     *
     * @param[out] displaced Filled with the displaced entry, if any.
     */
    void recordRead(LineAddr line, ProcId p,
                    std::vector<DirDisplacement> &displaced);

    /**
     * Record an exclusive (ReadEx) access by @p p: used by the SC/RC/
     * SC++ baselines. @return sharers (excluding @p p) that must be
     * invalidated.
     */
    std::uint32_t recordReadEx(LineAddr line, ProcId p,
                               std::vector<DirDisplacement> &displaced);

    /** A dirty, non-speculative line was written back by @p p. */
    void recordWriteback(LineAddr line, ProcId p);

    /** Processor @p p dropped its copy of @p line (L1 displacement). */
    void dropSharer(LineAddr line, ProcId p);

    /**
     * DirBDM signature expansion of a committing chunk's W signature
     * (Table 1 action matrix). Updates state, returns the Invalidation
     * List and the lookup/update statistics of Table 4.
     */
    ExpansionResult expand(const Signature &w, ProcId committer);

    /**
     * @return the entry for @p line, or nullptr. The pointer dies at
     * the next entry creation or displacement (the slab may move), so
     * read what you need from it before recording a new access.
     */
    const DirEntry *peek(LineAddr line) const;

    /** @return number of directory entries currently allocated. */
    std::size_t entryCount() const { return index.size(); }

    /** Order-insensitive digest of the directory state (per-line
     *  sharer vectors and dirty/owner), for explorer fingerprints.
     *  A running sum that every entry change keeps current, so
     *  reading it is O(1). */
    std::uint64_t fingerprint() const { return digest; }

  private:
    /** One entry's term of the fingerprint() sum. */
    static std::uint64_t entryDigest(LineAddr line, const DirEntry &e);

    /** Apply @p change to @p line's entry @p e, moving its term of the
     *  digest. Every mutation of an existing entry goes through here. */
    template <typename Fn>
    void
    update(LineAddr line, DirEntry &e, Fn &&change)
    {
        digest -= entryDigest(line, e);
        change(e);
        digest += entryDigest(line, e);
    }

    DirEntry &getOrCreate(LineAddr line,
                          std::vector<DirDisplacement> &displaced);

    /** @return @p line's entry, or nullptr. */
    DirEntry *
    find(LineAddr line)
    {
        const std::uint32_t *slot = index.find(line);
        return slot ? &slab[*slot] : nullptr;
    }

    /** Remove the entry of a resident @p line, freeing its slot. */
    void displace(LineAddr line, std::uint32_t slot);

    std::uint32_t bucketOf(LineAddr line) const;

    SignatureConfig sigCfg;
    unsigned numProcs;
    std::size_t maxEntries;

    /** Entry storage; a slot not named by @ref index is on
     *  @ref freeSlots. */
    std::vector<DirEntry> slab;
    std::vector<std::uint32_t> freeSlots;

    /** Resident line -> its slot in @ref slab. */
    LineMap<std::uint32_t> index;

    std::uint64_t digest = 0; //!< see fingerprint()

    /** Resident lines and their slots, bucketed by signature bank-0
     *  index: the hardware analogue is the delta-decode directed tag
     *  probe of signature expansion. */
    std::vector<std::vector<std::pair<LineAddr, std::uint32_t>>> buckets;

    /** FIFO order for directory-cache displacement. */
    std::vector<LineAddr> fifo;
    std::size_t fifoHead = 0;
};

} // namespace bulksc

#endif // BULKSC_MEM_DIRECTORY_HH
