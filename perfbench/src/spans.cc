#include "spans.hh"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

struct SpanRec
{
    const char *name;
    std::uint64_t id;
    std::uint64_t parent; //!< 0 = root
    std::uint64_t op;
    Clock::time_point start;
    Clock::time_point end;
};

/** One thread's spans and its stack of open ones (indices). */
struct ThreadLog
{
    unsigned tid = 0;
    std::vector<SpanRec> spans;
    std::vector<std::size_t> openStack;
};

std::mutex logsMutex;
std::vector<std::unique_ptr<ThreadLog>> logs; // guarded by logsMutex
std::atomic<std::uint64_t> nextId{1};
thread_local ThreadLog *threadLog = nullptr;

ThreadLog &
myLog()
{
    if (!threadLog) {
        std::lock_guard<std::mutex> lk(logsMutex);
        logs.push_back(std::make_unique<ThreadLog>());
        logs.back()->tid = static_cast<unsigned>(logs.size());
        threadLog = logs.back().get();
    }
    return *threadLog;
}

std::uint64_t
innermostOpen(const ThreadLog &log)
{
    return log.openStack.empty() ? 0
                                 : log.spans[log.openStack.back()].id;
}

std::string
layerOf(const char *name)
{
    std::string s(name);
    return s.substr(0, s.find('.'));
}

} // namespace

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

SpanRecorder::SpanRecorder() : epoch(Clock::now()) {}

SpanRecorder &
SpanRecorder::instance()
{
    static SpanRecorder r;
    return r;
}

void
SpanRecorder::setEnabled(bool enable)
{
    on = enable;
}

std::uint64_t
SpanRecorder::mark() const
{
    return nextId.load();
}

std::uint64_t
SpanRecorder::open(const char *name, std::uint64_t op,
                   Clock::time_point start)
{
    ThreadLog &log = myLog();
    std::uint64_t id = nextId.fetch_add(1);
    log.spans.push_back({name, id, innermostOpen(log), op, start, start});
    log.openStack.push_back(log.spans.size() - 1);
    return id;
}

void
SpanRecorder::close(std::uint64_t id)
{
    ThreadLog &log = myLog();
    // Spans are RAII scopes, so the innermost open span is this one.
    if (log.openStack.empty() || log.spans[log.openStack.back()].id != id)
        return;
    log.spans[log.openStack.back()].end = Clock::now();
    log.openStack.pop_back();
}

void
SpanRecorder::record(const char *name, std::uint64_t op,
                     Clock::time_point start, Clock::time_point end)
{
    if (!on)
        return;
    ThreadLog &log = myLog();
    log.spans.push_back(
        {name, nextId.fetch_add(1), innermostOpen(log), op, start, end});
}

std::map<std::string, double>
SpanRecorder::selfSecondsByLayer(std::uint64_t from, std::uint64_t to,
                                 std::size_t &count) const
{
    std::lock_guard<std::mutex> lk(logsMutex);
    // Children always run on their parent's thread, so one log at a
    // time suffices.
    std::map<std::string, double> out;
    count = 0;
    auto inRange = [&](std::uint64_t id) { return id >= from && id < to; };
    for (const auto &l : logs) {
        std::unordered_map<std::uint64_t, double> self;
        for (const SpanRec &s : l->spans) {
            if (!inRange(s.id))
                continue;
            self[s.id] += secondsBetween(s.start, s.end);
            if (inRange(s.parent))
                self[s.parent] -= secondsBetween(s.start, s.end);
        }
        for (const SpanRec &s : l->spans) {
            if (inRange(s.id)) {
                out[layerOf(s.name)] += self[s.id];
                ++count;
            }
        }
    }
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lk(logsMutex);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    bool first = true;
    for (const auto &l : logs) {
        std::fprintf(f,
                     "%s{\"name\": \"thread_name\", \"ph\": \"M\", "
                     "\"pid\": 1, \"tid\": %u, \"args\": {\"name\": "
                     "\"thread-%u\"}}",
                     first ? "" : ",\n", l->tid, l->tid);
        first = false;
        for (const SpanRec &s : l->spans) {
            double ts = 1e6 * secondsBetween(epoch, s.start);
            double dur = 1e6 * secondsBetween(s.start, s.end);
            std::fprintf(f,
                         ",\n{\"name\": \"%s\", \"cat\": \"%s\", "
                         "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                         "{\"id\": %llu, \"parent\": %llu, \"op\": "
                         "%llu}}",
                         s.name, layerOf(s.name).c_str(), l->tid, ts, dur,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.op));
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

Span::Span(const char *name, std::uint64_t op) : start(Clock::now())
{
    SpanRecorder &r = SpanRecorder::instance();
    if (r.enabled())
        id = r.open(name, op, start);
}

Span::~Span() { stop(); }

double
Span::stop()
{
    if (elapsed < 0) {
        elapsed = secondsBetween(start, Clock::now());
        if (id)
            SpanRecorder::instance().close(id);
    }
    return elapsed;
}

} // namespace perfbench
