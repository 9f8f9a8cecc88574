/**
 * @file
 * A flat hash set of cache-line addresses.
 *
 * The simulator keeps many small sets of line addresses on its hot
 * path: the signatures' exact mirrors, each chunk's written lines
 * (the model of the BDM's per-line chunk-id bits), the lines a chunk
 * still waits for, and the Private Buffer. LineSet stores them in one
 * open-addressing array with linear probing, so an insert allocates
 * only when the table grows and a lookup touches one or two adjacent
 * slots. Erase uses backward-shift deletion (no tombstones), so a set
 * that churns never degrades.
 *
 * Iteration order is the slot order, which depends on the hash and the
 * insertion history; callers whose results could depend on it must
 * sort or fold commutatively (as MemorySystem::bulkCommit and the
 * fingerprints do).
 */

#ifndef BULKSC_SIM_LINE_SET_HH
#define BULKSC_SIM_LINE_SET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace bulksc {

class LineSet
{
  public:
    /** Forward iterator over the members, in slot order. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = LineAddr;
        using difference_type = std::ptrdiff_t;
        using reference = const LineAddr &;

        const_iterator() = default;

        reference operator*() const { return *slot; }

        const_iterator &
        operator++()
        {
            ++slot;
            skipFree();
            return *this;
        }

        bool operator==(const const_iterator &o) const = default;

      private:
        friend class LineSet;

        const_iterator(const LineAddr *s, const LineAddr *e)
            : slot(s), end(e)
        {
            skipFree();
        }

        void
        skipFree()
        {
            while (slot != end && *slot == kEmpty)
                ++slot;
        }

        const LineAddr *slot = nullptr;
        const LineAddr *end = nullptr;
    };

    LineSet() = default;
    LineSet(const LineSet &) = default;
    LineSet &operator=(const LineSet &) = default;

    /** A moved-from set is empty and has no table; the member-wise
     *  default would leave it a stale size() over no slots. */
    LineSet(LineSet &&o) noexcept { *this = std::move(o); }

    LineSet &
    operator=(LineSet &&o) noexcept
    {
        if (this != &o) {
            slots = std::move(o.slots);
            o.slots.clear();
            count = std::exchange(o.count, 0);
            shift = std::exchange(o.shift, 64);
        }
        return *this;
    }

    /** Add @p line. @return true iff it was not yet a member. */
    bool
    insert(LineAddr line)
    {
        panic_if(line == kEmpty, "LineSet cannot hold its free marker");
        std::size_t i = 0;
        if (!slots.empty()) {
            for (i = homeSlot(line); slots[i] != kEmpty;
                 i = (i + 1) & mask()) {
                if (slots[i] == line)
                    return false;
            }
        }
        // Grow only for a new member: re-inserting one (as the exact
        // mirror does on every repeated access) must not double a
        // half-full table.
        if ((count + 1) * 2 > slots.size()) {
            grow();
            i = freeSlotFor(line);
        }
        slots[i] = line;
        ++count;
        return true;
    }

    /** Remove @p line. @return true iff it was a member. */
    bool
    erase(LineAddr line)
    {
        std::size_t hole = find(line);
        if (hole == kNotFound)
            return false;
        // Backward-shift deletion: pull later members of the probe
        // run into the hole unless that would move one before its
        // home slot, so every member stays reachable from its home
        // without tombstones.
        for (std::size_t j = (hole + 1) & mask(); slots[j] != kEmpty;
             j = (j + 1) & mask()) {
            std::size_t home = homeSlot(slots[j]);
            if (((j - home) & mask()) >= ((j - hole) & mask())) {
                slots[hole] = slots[j];
                hole = j;
            }
        }
        slots[hole] = kEmpty;
        --count;
        return true;
    }

    bool contains(LineAddr line) const { return find(line) != kNotFound; }

    std::size_t size() const { return count; }

    bool empty() const { return count == 0; }

    /** Remove every member; keeps the table's capacity. */
    void
    clear()
    {
        if (count) {
            std::fill(slots.begin(), slots.end(), kEmpty);
            count = 0;
        }
    }

    const_iterator begin() const { return {slots.data(), slotsEnd()}; }
    const_iterator end() const { return {slotsEnd(), slotsEnd()}; }

    /** Slots in the table: 0, or a power of two at least twice
     *  size(). */
    std::size_t capacity() const { return slots.size(); }

    /** Slot where the probe for @p line starts (Fibonacci hashing:
     *  the top bits of line * 2^64/phi); needs capacity() > 0.
     *  Public so tests can build colliding and wrapping probe runs. */
    std::size_t
    homeSlot(LineAddr line) const
    {
        return static_cast<std::size_t>(
            (line * 0x9e37'79b9'7f4a'7c15ULL) >> shift);
    }

  private:
    /** Marks a free slot; never a member (no simulated line address
     *  comes near it). */
    static constexpr LineAddr kEmpty = ~LineAddr{0};

    static constexpr std::size_t kNotFound = ~std::size_t{0};
    static constexpr std::size_t kMinSlots = 16;

    std::size_t mask() const { return slots.size() - 1; }

    const LineAddr *slotsEnd() const { return slots.data() + slots.size(); }

    std::size_t
    find(LineAddr line) const
    {
        if (count == 0)
            return kNotFound;
        for (std::size_t i = homeSlot(line); slots[i] != kEmpty;
             i = (i + 1) & mask()) {
            if (slots[i] == line)
                return i;
        }
        return kNotFound;
    }

    /** Double the table (or create it) and re-place every member. */
    void
    grow()
    {
        std::vector<LineAddr> old(
            std::max(kMinSlots, slots.size() * 2), kEmpty);
        old.swap(slots);
        shift = 64 - floorLog2(slots.size());
        for (LineAddr line : old) {
            if (line != kEmpty)
                slots[freeSlotFor(line)] = line;
        }
    }

    /** First free slot of @p line's probe run (a non-member). */
    std::size_t
    freeSlotFor(LineAddr line) const
    {
        std::size_t i = homeSlot(line);
        while (slots[i] != kEmpty)
            i = (i + 1) & mask();
        return i;
    }

    std::vector<LineAddr> slots; //!< kEmpty or a member
    std::size_t count = 0;
    unsigned shift = 64; //!< 64 - log2(capacity())
};

} // namespace bulksc

#endif // BULKSC_SIM_LINE_SET_HH
