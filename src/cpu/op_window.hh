/**
 * @file
 * OpWindow: a processor's instruction window of in-flight memory ops,
 * held in one contiguous ring.
 *
 * Entries are appended in program order, so their trace positions
 * (opIdx) strictly increase from front to back; a completion finds
 * its entry by binary search. The window also keeps the number of
 * completed entries, so asking how many ops have performed out of
 * order (SC++'s SHiQ occupancy) costs nothing. Completion goes
 * through complete()/completeBack() only, which keeps that count
 * exact; entries are otherwise read-only.
 *
 * The ring starts without storage and doubles when full, so a window
 * that never holds more than the configured number of ops allocates
 * once.
 */

#ifndef BULKSC_CPU_OP_WINDOW_HH
#define BULKSC_CPU_OP_WINDOW_HH

#include <cstddef>
#include <vector>

#include "sim/logging.hh"

namespace bulksc {

/**
 * @tparam Entry has `std::size_t opIdx` (the op's trace position) and
 *         `bool completed`.
 */
template <typename Entry>
class OpWindow
{
  public:
    bool empty() const { return n == 0; }

    std::size_t size() const { return n; }

    /** Entries whose op has completed. */
    std::size_t completedCount() const { return nCompleted; }

    /** The @p i-th entry from the front (oldest). */
    const Entry &operator[](std::size_t i) const { return at(i); }

    const Entry &front() const { return at(0); }

    const Entry &back() const { return at(n - 1); }

    /** Append @p e; its opIdx must exceed every entry's. */
    void
    push_back(const Entry &e)
    {
        panic_if(n && e.opIdx <= back().opIdx,
                 "OpWindow entries must be in program order");
        if (n == ring.size())
            grow();
        ring[(head + n) & mask] = e;
        ++n;
        if (e.completed)
            ++nCompleted;
    }

    void
    pop_front()
    {
        if (front().completed)
            --nCompleted;
        head = (head + 1) & mask;
        --n;
    }

    void
    pop_back()
    {
        if (back().completed)
            --nCompleted;
        --n;
    }

    /** Mark the entry of op @p op_idx completed, if it is in the
     *  window (a squash may have dropped it). */
    void
    complete(std::size_t op_idx)
    {
        std::size_t lo = 0, hi = n;
        while (lo < hi) {
            std::size_t mid = lo + (hi - lo) / 2;
            if (at(mid).opIdx < op_idx)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo < n && at(lo).opIdx == op_idx)
            markCompleted(at(lo));
    }

    /** Mark the youngest entry completed. */
    void completeBack() { markCompleted(at(n - 1)); }

  private:
    Entry &at(std::size_t i) { return ring[(head + i) & mask]; }

    const Entry &at(std::size_t i) const { return ring[(head + i) & mask]; }

    void
    markCompleted(Entry &e)
    {
        if (!e.completed) {
            e.completed = true;
            ++nCompleted;
        }
    }

    /** Double the ring (or create it), moving the entries to its
     *  start in order. */
    void
    grow()
    {
        std::vector<Entry> bigger(ring.empty() ? 16 : ring.size() * 2);
        for (std::size_t i = 0; i < n; ++i)
            bigger[i] = at(i);
        ring.swap(bigger);
        mask = ring.size() - 1;
        head = 0;
    }

    std::vector<Entry> ring; //!< capacity: 0 or a power of two
    std::size_t mask = 0;    //!< ring.size() - 1, once allocated
    std::size_t head = 0;    //!< ring slot of the front entry
    std::size_t n = 0;
    std::size_t nCompleted = 0;
};

} // namespace bulksc

#endif // BULKSC_CPU_OP_WINDOW_HH
