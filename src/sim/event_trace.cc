#include "sim/event_trace.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "sim/stats.hh"

namespace bulksc {

namespace {

/** One row per event type: its names for both sinks. */
struct TypeInfo
{
    const char *name;
    TraceCat cat;
    const char *argName; //!< text-sink label of `arg`
    const char *auxName; //!< label of `aux`, or nullptr if unused
};

constexpr TypeInfo kTypeInfo[] = {
    {"chunk-start", TraceCat::Chunk, "target", "op"},
    {"chunk-commit", TraceCat::Chunk, "instrs", "w_lines"},
    {"chunk-squash", TraceCat::Squash, "instrs", nullptr},
    {"squash", TraceCat::Squash, "chunks", "rollback_op"},
    {"arb-request", TraceCat::Commit, "instrs", nullptr},
    {"arb-grant", TraceCat::Commit, "arg", nullptr},
    {"arb-deny", TraceCat::Commit, "arg", nullptr},
    {"arb-decision", TraceCat::Commit, "pending_w", "proc"},
    {"commit-begin", TraceCat::Commit, "w_lines", nullptr},
    {"commit-end", TraceCat::Commit, "arg", nullptr},
    {"dir-bounce", TraceCat::Coherence, "line", nullptr},
    {"bulk-inval", TraceCat::Coherence, "arg", nullptr},
    {"dir-expand", TraceCat::Coherence, "lookups", "proc"},
    {"barrier-arrive", TraceCat::Sync, "arrived", "barrier"},
    {"sc-violation", TraceCat::Analysis, "addr", nullptr},
    {"race-detected", TraceCat::Analysis, "addr", nullptr},
    {"fault-inject", TraceCat::Fault, "kind", nullptr},
    {"resend", TraceCat::Fault, "attempt", nullptr},
    {"dir-nack", TraceCat::Fault, "arg", nullptr},
    {"watchdog-rescue", TraceCat::Watchdog, "chunk_size", nullptr},
    {"watchdog-trip", TraceCat::Watchdog, "verdict", nullptr},
    {"resend-give-up", TraceCat::Fault, "attempts", "txn"},
};
static_assert(std::size(kTypeInfo) ==
                  static_cast<std::size_t>(TraceEventType::NumTypes),
              "one kTypeInfo row per TraceEventType");

const TypeInfo &
info(TraceEventType t)
{
    return kTypeInfo[static_cast<std::size_t>(t)];
}

bool unknownCatWarned = false;

} // namespace

namespace detail {
bool eventTraceOn = EventTrace::instance().textCategories() != 0;

void
resetUnknownTraceCatWarning()
{
    unknownCatWarned = false;
}
} // namespace detail

const char *
traceCatName(TraceCat cat)
{
    for (const TraceCatName &c : kTraceCats) {
        if (c.cat == cat)
            return c.name;
    }
    return "?";
}

std::string
traceCatList()
{
    std::string out;
    for (const TraceCatName &c : kTraceCats)
        out += std::string(c.name) + ",";
    return out + "all";
}

std::uint32_t
parseTraceCategories(const std::string &spec)
{
    std::uint32_t m = 0;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string name = spec.substr(pos, comma - pos);
        pos = comma + 1;
        for (char &ch : name)
            ch = static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        if (name.empty())
            continue;
        if (name == "all") {
            m = ~std::uint32_t{0};
            continue;
        }
        bool matched = false;
        for (const TraceCatName &c : kTraceCats) {
            if (name == c.name) {
                m |= static_cast<std::uint32_t>(c.cat);
                matched = true;
            }
        }
        if (!matched && !unknownCatWarned) {
            unknownCatWarned = true;
            std::fprintf(stderr,
                         "warning: unknown trace category '%s' "
                         "(known: %s)\n",
                         name.c_str(), traceCatList().c_str());
        }
    }
    return m;
}

const char *
traceEventTypeName(TraceEventType t)
{
    return t < TraceEventType::NumTypes ? info(t).name : "?";
}

const char *
squashCauseName(SquashCause c)
{
    switch (c) {
      case SquashCause::TrueConflict:
        return "true-conflict";
      case SquashCause::FalsePositive:
        return "false-positive";
      case SquashCause::Unattributed:
        return "unattributed";
      default:
        return "none";
    }
}

TraceCat
traceEventCat(TraceEventType t)
{
    return info(t).cat;
}

std::string
trackName(std::uint16_t track)
{
    if (track < kTrackDirBase)
        return "cpu" + std::to_string(track);
    if (track < kTrackArbBase)
        return "dir" + std::to_string(track - kTrackDirBase);
    return "arbiter" + std::to_string(track - kTrackArbBase);
}

namespace {

/** Name of @p cause for an event of type @p t, or nullptr where the
 *  cause is a plain number (or unused). */
const char *
traceCauseName(TraceEventType t, std::uint8_t cause)
{
    switch (t) {
      case TraceEventType::ChunkSquash:
      case TraceEventType::Squash:
        return squashCauseName(static_cast<SquashCause>(cause));
      case TraceEventType::ArbDecision:
        return cause == 0   ? "deny"
               : cause == 1 ? "grant"
                            : "fault-injected grant";
      case TraceEventType::RaceDetected:
        return cause ? "write" : "read";
      case TraceEventType::ResendGiveUp:
        return cause ? "commit request" : "commit W";
      default:
        return nullptr;
    }
}

/** The text sink's line for @p ev (no trailing newline). */
std::string
formatTraceEvent(const TraceEvent &ev)
{
    const TypeInfo &ti = info(ev.type);
    std::ostringstream os;
    os << std::setw(10) << ev.tick << ": [" << traceCatName(ti.cat)
       << "] " << trackName(ev.track) << " " << ti.name
       << " seq=" << ev.seq << " " << ti.argName << "=" << ev.arg;
    if (ti.auxName)
        os << " " << ti.auxName << "=" << ev.aux;
    if (const char *c = traceCauseName(ev.type, ev.cause))
        os << " (" << c << ")";
    else if (ev.cause)
        os << " cause=" << unsigned{ev.cause};
    return os.str();
}

} // namespace

EventTrace::EventTrace()
{
    const char *env = std::getenv("BULKSC_TRACE");
    textMask = env ? parseTraceCategories(env) : 0;
}

EventTrace &
EventTrace::instance()
{
    static EventTrace et;
    return et;
}

void
EventTrace::enable(std::uint32_t cat_mask, std::size_t capacity)
{
    clear();
    ringMask = cat_mask;
    cap = capacity ? capacity : 1;
    ring.clear();
    ring.reserve(cap < 4096 ? cap : 4096);
    updateGate();
}

void
EventTrace::disable()
{
    ringMask = 0;
    updateGate();
}

void
EventTrace::setTextCategories(std::uint32_t cat_mask)
{
    textMask = cat_mask;
    updateGate();
}

void
EventTrace::updateGate()
{
    detail::eventTraceOn = (ringMask | textMask) != 0;
}

void
EventTrace::clear()
{
    ring.clear();
    ring.shrink_to_fit();
    head = 0;
    total = 0;
    nDropped = 0;
    counts.fill(0);
}

void
EventTrace::record(TraceEventType type, Tick tick, std::uint16_t track,
                   std::uint64_t seq, std::uint64_t arg,
                   std::uint8_t cause, std::uint32_t aux)
{
    auto cat = static_cast<std::uint32_t>(traceEventCat(type));
    TraceEvent ev{tick, seq, arg, track, type, cause, aux};
    if (textMask & cat)
        std::fprintf(stderr, "%s\n", formatTraceEvent(ev).c_str());
    if ((ringMask & cat) == 0)
        return;
    if (ring.size() < cap) {
        ring.push_back(ev);
    } else {
        ring[head] = ev;
        head = (head + 1) % cap;
        ++nDropped;
    }
    ++counts[static_cast<std::size_t>(type)];
    ++total;
}

std::uint64_t
EventTrace::count(TraceEventType type) const
{
    return counts[static_cast<std::size_t>(type)];
}

std::size_t
EventTrace::size() const
{
    return ring.size();
}

std::vector<TraceEvent>
EventTrace::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring.size());
    // `head` is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < ring.size(); ++i)
        out.push_back(ring[(head + i) % ring.size()]);
    return out;
}

namespace {

/** A paired start/end interval ready for export. */
struct Span
{
    std::uint16_t track;
    unsigned kind; //!< 0 = chunk, 1 = arbitration, 2 = commit
    Tick start;
    Tick end;
    std::uint64_t seq;
    std::uint64_t arg;
    std::uint8_t cause;
    const char *outcome;
};

constexpr unsigned kChunkRowBase = 0;
constexpr unsigned kArbRowBase = 100;
constexpr unsigned kCommitRowBase = 200;

unsigned
rowBase(unsigned kind)
{
    switch (kind) {
      case 0:
        return kChunkRowBase;
      case 1:
        return kArbRowBase;
      default:
        return kCommitRowBase;
    }
}

const char *
rowLabel(unsigned kind)
{
    switch (kind) {
      case 0:
        return "chunks";
      case 1:
        return "arbitration";
      default:
        return "commit";
    }
}

} // namespace

void
EventTrace::writeChromeTrace(std::ostream &os) const
{
    std::vector<TraceEvent> evs = snapshot();
    Tick last_tick = 0;
    for (const TraceEvent &ev : evs) {
        if (ev.tick > last_tick)
            last_tick = ev.tick;
    }

    // Pair start/end events into spans; keep the rest as instants.
    std::vector<Span> spans;
    std::vector<TraceEvent> instants;
    std::map<std::pair<std::uint16_t, std::uint64_t>, TraceEvent> open[3];

    auto close = [&](unsigned kind, const TraceEvent &ev,
                     const char *outcome) {
        auto key = std::make_pair(ev.track, ev.seq);
        auto it = open[kind].find(key);
        if (it == open[kind].end())
            return; // start fell out of the ring
        spans.push_back({ev.track, kind, it->second.tick, ev.tick,
                         ev.seq, ev.arg, ev.cause, outcome});
        open[kind].erase(it);
    };

    for (const TraceEvent &ev : evs) {
        switch (ev.type) {
          case TraceEventType::ChunkStart:
            open[0][{ev.track, ev.seq}] = ev;
            break;
          case TraceEventType::ChunkCommit:
            close(0, ev, "commit");
            break;
          case TraceEventType::ChunkSquash:
            close(0, ev, "squash");
            break;
          case TraceEventType::ArbRequest:
            open[1][{ev.track, ev.seq}] = ev;
            break;
          case TraceEventType::ArbGrant:
            close(1, ev, "grant");
            break;
          case TraceEventType::ArbDeny:
            close(1, ev, "deny");
            break;
          case TraceEventType::CommitBegin:
            open[2][{ev.track, ev.seq}] = ev;
            break;
          case TraceEventType::CommitEnd:
            close(2, ev, "done");
            break;
          default:
            instants.push_back(ev);
            break;
        }
    }
    // Intervals still open at export time (live chunks, in-flight
    // requests) extend to the last observed tick.
    for (unsigned kind = 0; kind < 3; ++kind) {
        for (const auto &[key, ev] : open[kind]) {
            spans.push_back({ev.track, kind, ev.tick, last_tick, ev.seq,
                             ev.arg, ev.cause, "open"});
        }
    }

    // Greedy row allocation so overlapping spans (two live chunks,
    // overlapping commits) land on separate rows of the same track.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span &a, const Span &b) {
                         return a.start < b.start;
                     });
    std::map<std::pair<std::uint16_t, unsigned>, std::vector<Tick>> rows;
    std::vector<unsigned> span_tid(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &ends = rows[{s.track, s.kind}];
        unsigned row = 0;
        for (; row < ends.size(); ++row) {
            if (ends[row] <= s.start)
                break;
        }
        if (row == ends.size())
            ends.push_back(0);
        ends[row] = s.end;
        span_tid[i] = rowBase(s.kind) + row;
    }

    // Emit. pid = track + 1 (chrome dislikes pid 0).
    os << "{\n\"traceEvents\": [";
    bool first = true;
    auto emit = [&](const std::string &json) {
        os << (first ? "" : ",") << "\n" << json;
        first = false;
    };

    std::set<std::uint16_t> tracks;
    std::set<std::pair<std::uint16_t, unsigned>> tids;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        tracks.insert(spans[i].track);
        tids.insert({spans[i].track, span_tid[i]});
    }
    for (const TraceEvent &ev : instants) {
        tracks.insert(ev.track);
        tids.insert({ev.track, 0});
    }

    for (std::uint16_t t : tracks) {
        std::ostringstream m;
        m << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << t + 1
          << ",\"tid\":0,\"args\":{\"name\":\""
          << jsonEscape(trackName(t)) << "\"}}";
        emit(m.str());
    }
    for (const auto &[track, tid] : tids) {
        unsigned kind = tid >= kCommitRowBase ? 2
                        : tid >= kArbRowBase  ? 1
                                              : 0;
        std::ostringstream m;
        m << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
          << track + 1 << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
          << rowLabel(kind) << "-" << tid - rowBase(kind) << "\"}}";
        emit(m.str());
    }

    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const char *name = rowLabel(s.kind);
        std::ostringstream e;
        e << "{\"name\":\"" << (s.kind == 0   ? "chunk "
                                : s.kind == 1 ? "arb "
                                              : "commit ")
          << s.seq << "\",\"cat\":\"" << name << "\",\"ph\":\"X\""
          << ",\"ts\":" << s.start << ",\"dur\":" << s.end - s.start
          << ",\"pid\":" << s.track + 1 << ",\"tid\":" << span_tid[i]
          << ",\"args\":{\"seq\":" << s.seq << ",\"arg\":" << s.arg
          << ",\"outcome\":\"" << s.outcome << "\"}}";
        emit(e.str());
    }

    for (const TraceEvent &ev : instants) {
        std::ostringstream e;
        e << "{\"name\":\"" << traceEventTypeName(ev.type);
        if (ev.type == TraceEventType::Squash ||
            ev.type == TraceEventType::ChunkSquash ||
            ev.type == TraceEventType::ArbDecision) {
            e << " (" << traceCauseName(ev.type, ev.cause) << ")";
        }
        e << "\",\"cat\":\""
          << traceCatName(traceEventCat(ev.type)) << "\",\"ph\":\"i\""
          << ",\"ts\":" << ev.tick << ",\"pid\":" << ev.track + 1
          << ",\"tid\":0,\"s\":\"t\",\"args\":{\"seq\":" << ev.seq
          << ",\"arg\":" << ev.arg << "}}";
        emit(e.str());
    }

    os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
          "{\"recorded\": "
       << total << ", \"dropped\": " << nDropped << "}\n}\n";
}

bool
EventTrace::exportChromeTrace(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeChromeTrace(f);
    f.flush();
    return static_cast<bool>(f);
}

} // namespace bulksc
