/**
 * @file
 * Host-time spans recorded around the benchmark's calls into the
 * simulator's layers.
 *
 * A Span times one call with std::chrono::steady_clock. When the
 * recorder is enabled (the traced run) it also keeps the span in
 * memory: name, start, end, parent span and op id. Each thread keeps
 * its own buffer and stack of open spans, so recording takes no lock
 * after a thread's first span. The spans are written out once, at the
 * end of the run, as Chrome trace_event JSON (ui.perfetto.dev opens
 * it). A span's name is "<layer>.<call>"; a layer's self time is the
 * time its spans cover minus the time their child spans cover.
 *
 * The simulator itself is never instrumented: spans wrap public calls
 * made from the benchmark's own files.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady_clock points. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** The process-wide span store (disabled until enable()). */
class SpanRecorder
{
  public:
    static SpanRecorder &instance();

    /** Start or stop keeping spans. Call with no worker running. */
    void setEnabled(bool enable);
    bool enabled() const { return on; }

    /** The id the next span will get. Spans recorded between two
     *  marks have ids in [first mark, second mark). */
    std::uint64_t mark() const;

    /** Record a finished span whose parent is the innermost open span
     *  of the calling thread. */
    void record(const char *name, std::uint64_t op, Clock::time_point start,
                Clock::time_point end);

    /** Self seconds per layer (the name up to its first '.') of the
     *  spans with ids in [@p from, @p to); their number in @p count.
     *  Call with no worker running. */
    std::map<std::string, double>
    selfSecondsByLayer(std::uint64_t from, std::uint64_t to,
                       std::size_t &count) const;

    /** Write every span as Chrome trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    friend class Span;

    SpanRecorder();

    std::uint64_t open(const char *name, std::uint64_t op,
                       Clock::time_point start);
    void close(std::uint64_t id);

    bool on = false;
    Clock::time_point epoch;
};

/** Times one call; records it as a span when the recorder is on. */
class Span
{
  public:
    explicit Span(const char *name, std::uint64_t op = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span (idempotent) and return its length in seconds. */
    double stop();

  private:
    Clock::time_point start;
    double elapsed = -1;
    std::uint64_t id = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
