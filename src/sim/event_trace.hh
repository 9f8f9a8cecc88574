/**
 * @file
 * Structured event tracing: the one record path for every
 * instrumentation site.
 *
 * Each site records a *typed* event (chunk start/commit/squash,
 * arbitration request/grant/deny, commit begin/end, directory
 * expansions and bounces, bulk invalidations, barrier arrivals,
 * checker findings, faults, watchdog actions) once, through
 * EVENT_TRACE. The event goes to two sinks, each with its own
 * TraceCat category mask:
 *
 *  - the ring: a fixed-capacity buffer of the most recent events with
 *    tick timestamps (`--trace-out`/`--trace-cats`), exportable as
 *    Chrome `trace_event` JSON — one track per processor plus arbiter
 *    and directory tracks — for chrome://tracing or
 *    https://ui.perfetto.dev;
 *  - the text sink: one line per event on stderr, built from the
 *    event's fields (categories from the BULKSC_TRACE environment
 *    variable, read once at start-up, e.g. BULKSC_TRACE=chunk,squash).
 *
 * Recording is globally gated: with both masks empty (the default),
 * every instrumentation site costs a single predicted branch.
 *
 * Per-type totals are counted for the ring, independently of its
 * capacity (the ring keeps the most recent `capacity` events; the
 * counters never drop), which lets tests cross-check event counts
 * against the statistics counters.
 */

#ifndef BULKSC_SIM_EVENT_TRACE_HH
#define BULKSC_SIM_EVENT_TRACE_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace bulksc {

/** Event categories (bitmask); each sink filters by a mask of them. */
enum class TraceCat : std::uint32_t
{
    Chunk = 1u << 0,   //!< chunk start/end
    Commit = 1u << 1,  //!< arbitration and commit flow
    Squash = 1u << 2,  //!< squashes and rollbacks
    Coherence = 1u << 3, //!< directory / invalidation actions
    Sync = 1u << 4,    //!< barriers
    Analysis = 1u << 6, //!< SC violations and data races found
    Fault = 1u << 7,   //!< fault injections and resends
    Watchdog = 1u << 8, //!< forward-progress watchdog actions
};

/** A category and its name in category lists. */
struct TraceCatName
{
    TraceCat cat;
    const char *name;
};

/** Every category, in the order help text lists them: the one table
 *  the parser, the help text and the warnings read. */
constexpr TraceCatName kTraceCats[] = {
    {TraceCat::Chunk, "chunk"},         {TraceCat::Commit, "commit"},
    {TraceCat::Squash, "squash"},       {TraceCat::Coherence, "coherence"},
    {TraceCat::Sync, "sync"},           {TraceCat::Analysis, "analysis"},
    {TraceCat::Fault, "fault"},         {TraceCat::Watchdog, "watchdog"},
};

/** Short printable name of a category. */
const char *traceCatName(TraceCat cat);

/** The category names, comma-separated, followed by "all". */
std::string traceCatList();

/**
 * Parse a comma-separated category list ("chunk,squash" or "all").
 * Matching is case-insensitive; the first unknown name encountered in
 * the process triggers a one-time warning on stderr.
 */
std::uint32_t parseTraceCategories(const std::string &spec);

namespace detail {
/** Re-arm the unknown-category warning (testing hook). */
void resetUnknownTraceCatWarning();
} // namespace detail

/** Typed events. */
enum class TraceEventType : std::uint8_t
{
    ChunkStart,  //!< chunk opened (proc track; arg = target size,
                 //!< aux = first op)
    ChunkCommit, //!< chunk left the pipeline by commit (arg = instrs,
                 //!< aux = W lines)
    ChunkSquash, //!< chunk discarded by a squash (arg = instrs)
    Squash,      //!< one squash occurrence (arg = chunks squashed,
                 //!< aux = rollback op)
    ArbRequest,  //!< commit request sent (proc track)
    ArbGrant,    //!< grant received at the processor
    ArbDeny,     //!< denial received at the processor
    ArbDecision, //!< decision made at the arbiter (arg = pending W
                 //!< list; aux = requester; cause 0 = deny,
                 //!< 1 = grant, 2 = fault-injected grant)
    CommitBegin, //!< W handed to the memory system (proc track)
    CommitEnd,   //!< all directory acks collected (proc track)
    DirBounce,   //!< read bounced off a committing W (dir track)
    BulkInval,   //!< W delivered to a cache for bulk invalidation
    DirExpand,   //!< a module expanded a commit W (dir track;
                 //!< arg = lookups, aux = committer)
    BarrierArrive, //!< barrier count incremented (proc track;
                   //!< arg = arrivals so far, aux = barrier index)
    ScViolation, //!< axiomatic checker found a cycle (arg = address)
    RaceDetected, //!< happens-before race (arg = address; cause =
                  //!< 1 for a racing write)
    FaultInject,  //!< fault plane fired (arg = FaultKind index)
    Resend,       //!< protocol retransmission (arg = attempt number)
    DirNack,      //!< directory refused a commit W delivery
    WatchdogRescue, //!< watchdog forced a starved proc's chunk small
    WatchdogTrip, //!< watchdog verdict reached (arg = verdict code)
    ResendGiveUp, //!< the channel stopped resending (arg = attempts,
                  //!< aux = txn id; cause 1 = commit request,
                  //!< 0 = commit W)
    NumTypes,
};

/** Why a squash happened, from the exact address sets. */
enum class SquashCause : std::uint8_t
{
    None = 0,
    TrueConflict,  //!< the exact R/W sets really intersect W
    FalsePositive, //!< only the Bloom encodings intersect (aliasing)
    Unattributed,  //!< exact mirrors off — cause unknown
};

/** Short printable name of an event type. */
const char *traceEventTypeName(TraceEventType t);

/** Short printable name of a squash cause. */
const char *squashCauseName(SquashCause c);

/** The TraceCat family an event type belongs to (for mask filtering). */
TraceCat traceEventCat(TraceEventType t);

/** One recorded event (32 bytes; the ring is a flat array of these). */
struct TraceEvent
{
    Tick tick;
    std::uint64_t seq; //!< chunk sequence number, or 0
    std::uint64_t arg; //!< type-specific payload
    std::uint16_t track;
    TraceEventType type;
    std::uint8_t cause; //!< SquashCause, or grant/deny flag
    std::uint32_t aux;  //!< second payload, text sink only
};
static_assert(sizeof(TraceEvent) == 32, "aux must fit the padding");

// --- track identifiers ---------------------------------------------------
// Tracks are small integers: processors from 0, directory modules from
// kTrackDirBase, arbiter modules from kTrackArbBase.

constexpr std::uint16_t kTrackDirBase = 0x100;
constexpr std::uint16_t kTrackArbBase = 0x200;

constexpr std::uint16_t
trackProc(ProcId p)
{
    return static_cast<std::uint16_t>(p);
}

constexpr std::uint16_t
trackDir(unsigned d)
{
    return static_cast<std::uint16_t>(kTrackDirBase + d);
}

constexpr std::uint16_t
trackArb(unsigned a)
{
    return static_cast<std::uint16_t>(kTrackArbBase + a);
}

/** Human-readable track name ("cpu3", "dir0", "arbiter0"). */
std::string trackName(std::uint16_t track);

/**
 * The process-global event sink. Enable it before building a System;
 * every instrumented component records through the singleton.
 */
class EventTrace
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

    static EventTrace &instance();

    /**
     * Start recording events whose family is in @p cat_mask into the
     * ring, keeping the most recent @p capacity events. Clears
     * previous contents.
     */
    void enable(std::uint32_t cat_mask,
                std::size_t capacity = kDefaultCapacity);

    /** Stop recording into the ring (contents stay available for
     *  export). The text sink is unaffected. */
    void disable();

    /** True iff the ring is recording some category. */
    bool ringEnabled() const { return ringMask != 0; }

    /** Print events whose family is in @p cat_mask on stderr (starts
     *  as parseTraceCategories($BULKSC_TRACE)). */
    void setTextCategories(std::uint32_t cat_mask);

    /** The text sink's category mask. */
    std::uint32_t textCategories() const { return textMask; }

    /** Drop all recorded events and counters. */
    void clear();

    /** Record one event (called through the EVENT_TRACE macro). */
    void record(TraceEventType type, Tick tick, std::uint16_t track,
                std::uint64_t seq = 0, std::uint64_t arg = 0,
                std::uint8_t cause = 0, std::uint32_t aux = 0);

    /** Total events of @p type the ring recorded (not reduced by ring
     *  drops). */
    std::uint64_t count(TraceEventType type) const;

    /** Total events recorded across all types. */
    std::uint64_t recorded() const { return total; }

    /** Events pushed out of the ring by newer ones. */
    std::uint64_t dropped() const { return nDropped; }

    /** Events currently held in the ring. */
    std::size_t size() const;

    /** Ring contents in chronological (record) order. */
    std::vector<TraceEvent> snapshot() const;

    /**
     * Export the ring as Chrome trace_event JSON. Chunk, arbitration,
     * and commit start/end pairs become complete ("X") spans; squashes,
     * arbiter decisions, bounces, and bulk invalidations become instant
     * ("i") events. One tick maps to one microsecond of trace time.
     */
    void writeChromeTrace(std::ostream &os) const;

    /** writeChromeTrace() to @p path. @return false on I/O error. */
    bool exportChromeTrace(const std::string &path) const;

  private:
    EventTrace();

    /** Mirror the masks into the global gate. */
    void updateGate();

    std::uint32_t ringMask = 0;
    std::uint32_t textMask = 0;
    std::vector<TraceEvent> ring;
    std::size_t cap = 0;
    std::size_t head = 0; //!< next slot to write
    std::uint64_t total = 0;
    std::uint64_t nDropped = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(TraceEventType::NumTypes)>
        counts{};
};

namespace detail {
/** Fast global gate: true iff either sink's mask is non-empty. */
extern bool eventTraceOn;
} // namespace detail

/** True iff some sink takes events. */
inline bool
eventTraceEnabled()
{
    return detail::eventTraceOn;
}

/**
 * Record an event if tracing is enabled: a single predicted branch
 * when disabled. Usage:
 *   EVENT_TRACE(TraceEventType::ChunkStart, curTick(), trackProc(pid),
 *               seq, target);
 */
#define EVENT_TRACE(type, tick, track, ...)                             \
    do {                                                                \
        if (::bulksc::eventTraceEnabled()) {                            \
            ::bulksc::EventTrace::instance().record(                    \
                type, tick, track __VA_OPT__(, ) __VA_ARGS__);          \
        }                                                               \
    } while (0)

} // namespace bulksc

#endif // BULKSC_SIM_EVENT_TRACE_HH
