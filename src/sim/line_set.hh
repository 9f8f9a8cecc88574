/**
 * @file
 * Flat hash tables keyed by cache-line (or word) address: LineSet and
 * LineMap<V>.
 *
 * The simulator keeps many small sets and maps of addresses on its hot
 * path: the signatures' exact mirrors, each chunk's written lines (the
 * model of the BDM's per-line chunk-id bits), the lines a chunk still
 * waits for, the Private Buffer, the live chunks' speculative-line
 * counts, the directory index and the committed value store. One
 * open-addressing table serves them all: LineMap<V> stores (key,
 * value) slots, and LineSet is LineMap<void>, whose slots hold the key
 * alone. Probing is linear, so an insert allocates only when the table
 * grows and a lookup touches one or two adjacent slots. Erase uses
 * backward-shift deletion (no tombstones), so a table that churns never
 * degrades.
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
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace bulksc {

namespace detail {

/** One table slot: a key and, for a map, its value. */
template <typename V>
struct LineSlot
{
    LineAddr key;
    V value;
};

template <>
struct LineSlot<void>
{
    LineAddr key;
};

} // namespace detail

/**
 * Open-addressing map from an address to a @p V (a set when @p V is
 * void). Pointers to values stay valid until the next insert of a new
 * key or the next erase.
 */
template <typename V>
class LineMap
{
    static constexpr bool kIsSet = std::is_void_v<V>;
    using Slot = detail::LineSlot<V>;

  public:
    /** What iteration yields: the key of a set, the slot of a map. */
    using value_type = std::conditional_t<kIsSet, LineAddr, Slot>;

    /** Forward iterator over the members, in slot order. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = LineMap::value_type;
        using difference_type = std::ptrdiff_t;
        using reference = const value_type &;

        const_iterator() = default;

        reference
        operator*() const
        {
            if constexpr (kIsSet)
                return slot->key;
            else
                return *slot;
        }

        const_iterator &
        operator++()
        {
            ++slot;
            skipFree();
            return *this;
        }

        bool operator==(const const_iterator &o) const = default;

      private:
        friend class LineMap;

        const_iterator(const Slot *s, const Slot *e) : slot(s), end(e)
        {
            skipFree();
        }

        void
        skipFree()
        {
            while (slot != end && slot->key == kEmpty)
                ++slot;
        }

        const Slot *slot = nullptr;
        const Slot *end = nullptr;
    };

    LineMap() = default;
    LineMap(const LineMap &) = default;
    LineMap &operator=(const LineMap &) = default;

    /** A moved-from table is empty and has no slots; the member-wise
     *  default would leave it a stale size() over no slots. */
    LineMap(LineMap &&o) noexcept { *this = std::move(o); }

    LineMap &
    operator=(LineMap &&o) noexcept
    {
        if (this != &o) {
            slots = std::move(o.slots);
            o.slots.clear();
            count = std::exchange(o.count, 0);
            shift = std::exchange(o.shift, 64);
        }
        return *this;
    }

    /** Add @p line (sets only). @return true iff it was not yet a
     *  member. */
    bool
    insert(LineAddr line)
        requires kIsSet
    {
        return place(line).second;
    }

    /**
     * Map @p line to V(@p args...) unless it is already a key (maps
     * only; as std::unordered_map, @p args are unused for a present
     * key). @return the key's value and whether it was inserted.
     */
    template <typename... Args>
    std::pair<V *, bool>
    try_emplace(LineAddr line, Args &&...args)
        requires(!kIsSet)
    {
        auto [i, fresh] = place(line);
        if (fresh)
            slots[i].value = V(std::forward<Args>(args)...);
        return {&slots[i].value, fresh};
    }

    /** @return @p line's value, or nullptr (maps only). */
    V *
    find(LineAddr line)
        requires(!kIsSet)
    {
        std::size_t i = indexOf(line);
        return i == kNotFound ? nullptr : &slots[i].value;
    }

    const V *
    find(LineAddr line) const
        requires(!kIsSet)
    {
        std::size_t i = indexOf(line);
        return i == kNotFound ? nullptr : &slots[i].value;
    }

    /** Remove @p line. @return true iff it was a member. */
    bool
    erase(LineAddr line)
    {
        std::size_t hole = indexOf(line);
        if (hole == kNotFound)
            return false;
        // Backward-shift deletion: pull later members of the probe
        // run into the hole unless that would move one before its
        // home slot, so every member stays reachable from its home
        // without tombstones.
        for (std::size_t j = (hole + 1) & mask(); slots[j].key != kEmpty;
             j = (j + 1) & mask()) {
            std::size_t home = homeSlot(slots[j].key);
            if (((j - home) & mask()) >= ((j - hole) & mask())) {
                slots[hole] = std::move(slots[j]);
                hole = j;
            }
        }
        slots[hole].key = kEmpty;
        --count;
        return true;
    }

    bool contains(LineAddr line) const { return indexOf(line) != kNotFound; }

    std::size_t size() const { return count; }

    bool empty() const { return count == 0; }

    /** Remove every member; keeps the table's capacity. */
    void
    clear()
    {
        if (count) {
            for (Slot &s : slots)
                s.key = kEmpty;
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
    /** Marks a free slot; never a key (no simulated address comes
     *  near it). */
    static constexpr LineAddr kEmpty = ~LineAddr{0};

    static constexpr std::size_t kNotFound = ~std::size_t{0};
    static constexpr std::size_t kMinSlots = 16;

    std::size_t mask() const { return slots.size() - 1; }

    const Slot *slotsEnd() const { return slots.data() + slots.size(); }

    std::size_t
    indexOf(LineAddr line) const
    {
        if (count == 0)
            return kNotFound;
        for (std::size_t i = homeSlot(line); slots[i].key != kEmpty;
             i = (i + 1) & mask()) {
            if (slots[i].key == line)
                return i;
        }
        return kNotFound;
    }

    /** Find @p line's slot, claiming a free one if it is new.
     *  @return the slot and whether the key is new. */
    std::pair<std::size_t, bool>
    place(LineAddr line)
    {
        panic_if(line == kEmpty, "LineMap cannot hold its free marker");
        std::size_t i = 0;
        if (!slots.empty()) {
            for (i = homeSlot(line); slots[i].key != kEmpty;
                 i = (i + 1) & mask()) {
                if (slots[i].key == line)
                    return {i, false};
            }
        }
        // Grow only for a new key: re-inserting one (as the exact
        // mirror does on every repeated access) must not double a
        // half-full table.
        if ((count + 1) * 2 > slots.size()) {
            grow();
            i = freeSlotFor(line);
        }
        slots[i].key = line;
        ++count;
        return {i, true};
    }

    /** Double the table (or create it) and re-place every member. */
    void
    grow()
    {
        std::vector<Slot> old(std::max(kMinSlots, slots.size() * 2));
        for (Slot &s : old)
            s.key = kEmpty;
        old.swap(slots);
        shift = 64 - floorLog2(slots.size());
        for (Slot &s : old) {
            if (s.key != kEmpty)
                slots[freeSlotFor(s.key)] = std::move(s);
        }
    }

    /** First free slot of @p line's probe run (a non-member). */
    std::size_t
    freeSlotFor(LineAddr line) const
    {
        std::size_t i = homeSlot(line);
        while (slots[i].key != kEmpty)
            i = (i + 1) & mask();
        return i;
    }

    std::vector<Slot> slots; //!< key kEmpty, or a member
    std::size_t count = 0;
    unsigned shift = 64; //!< 64 - log2(capacity())
};

/** A flat set of line addresses. */
using LineSet = LineMap<void>;

} // namespace bulksc

#endif // BULKSC_SIM_LINE_SET_HH
