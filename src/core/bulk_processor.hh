/**
 * @file
 * The BulkSC processor (Sections 3 and 4): dynamically breaks the
 * instruction stream into chunks that execute speculatively with full
 * memory-access reordering, summarizes their addresses in R/W
 * signatures, and commits chunks through the arbiter so that SC is
 * enforced at chunk granularity.
 *
 * Variants (paper Table 2):
 *  - BSCbase:  this class with default BulkParams;
 *  - BSCdypvt: dynPrivOpt = true (Wpriv + Private Buffer, Section 5.2);
 *  - BSCstpvt: statPrivOpt = true (stack refs private, Section 5.1);
 *  - BSCexact: SignatureConfig::exact = true ("magic" alias-free).
 */

#ifndef BULKSC_CORE_BULK_PROCESSOR_HH
#define BULKSC_CORE_BULK_PROCESSOR_HH

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "analysis/analysis_engine.hh"
#include "core/arbiter.hh"
#include "core/bdm.hh"
#include "cpu/op_window.hh"
#include "cpu/processor_base.hh"
#include "sim/event_trace.hh"
#include "sim/stats.hh"

namespace bulksc {

/** BulkSC-specific configuration (defaults follow Table 2). */
struct BulkParams
{
    /** Target chunk size in dynamic instructions. */
    unsigned chunkSize = 1000;

    /** Signature pairs / simultaneous chunks per processor. */
    unsigned maxLiveChunks = 2;

    /** RSig commit bandwidth optimization (Section 4.2.2). */
    bool rsigOpt = true;

    /** Dynamically-private data optimization (Section 5.2). */
    bool dynPrivOpt = false;

    /** Statically-private data optimization (Section 5.1). */
    bool statPrivOpt = false;

    /** Private Buffer capacity, lines. */
    unsigned privBufferEntries = 24;

    /** Delay before retrying a denied commit request. */
    Tick commitRetryDelay = 30;

    /** Consecutive squashes before pre-arbitration kicks in. */
    unsigned preArbThreshold = 6;

    /** Floor for exponential chunk shrinking. */
    unsigned minChunkSize = 16;

    /** Cycles for a forwarding-log entry to drain into the successor's
     *  R signature (window of vulnerability, Section 3.2.1). */
    Tick fwdLogDelay = 3;

    /**
     * End the current chunk when a synchronization operation is
     * reached (the paper's Section 4.1.2 notes that checkpoint-
     * triggering events can double as chunk boundaries). This shrinks
     * the window during which two critical sections overlap in one
     * chunk (Figure 6(a)/(b) scenarios) at the cost of smaller
     * chunks around synchronization.
     */
    bool endChunkOnSync = false;

    /** Signature geometry (exact = true gives BSCexact). */
    SignatureConfig sigCfg;
};

/** Per-processor BulkSC statistics (feeds Tables 3 and 4). */
struct BulkStats
{
    std::uint64_t commits = 0;
    std::uint64_t emptyWCommits = 0;
    std::uint64_t deniedCommits = 0;
    std::uint64_t abortedGrants = 0;
    double rSizeSum = 0;     //!< sum of exact R set sizes at commit
    double wSizeSum = 0;     //!< sum of exact W set sizes at commit
    double wprivSizeSum = 0; //!< sum of exact Wpriv set sizes at commit
    std::uint64_t specReadDisplacements = 0;
    std::uint64_t specWriteDisplacements = 0;
    std::uint64_t privBufferSupplies = 0;
    std::uint64_t privBufferOverflows = 0;
    std::uint64_t baseWritebacks = 0; //!< dirty-line writebacks forced
                                      //!< by the base protocol
    unsigned invalNodes = 0;          //!< procs sent W, total
    std::uint64_t preArbRequests = 0;

    /** Squash attribution: triggers whose exact address sets really
     *  intersected the committing W. */
    std::uint64_t trueConflictSquashes = 0;

    /** Squash attribution: triggers where only the Bloom encodings
     *  intersected (signature aliasing). */
    std::uint64_t falsePositiveSquashes = 0;

    /** Squashes that could not be attributed because the exact
     *  mirrors were disabled (signature.track-exact=0). */
    std::uint64_t unattributedSquashes = 0;

    /** First commit request to grant, per committed chunk (cycles). */
    Histogram arbLatency;

    /** Squash to next chunk open, per squash (cycles). */
    Histogram squashRestart;

    /** Executed instructions of each squashed chunk. */
    Histogram squashChunkSize;
};

/**
 * A processor that executes chunks all the time (Figure 5).
 */
class BulkProcessor : public ProcessorBase
{
  public:
    BulkProcessor(EventQueue &eq, const std::string &name, ProcId pid,
                  MemorySystem &mem, const Trace &trace,
                  const CpuParams &cpu_params,
                  const BulkParams &bulk_params, Arbiter &arb,
                  ReliableChannel &chan);

    // CacheListener
    void onRemoteWSig(const Signature &w) override;
    void onLineDisplaced(LineAddr line, bool dirty) override;
    bool mayVictimize(LineAddr line) override;
    void onExternalOwnerFetch(LineAddr line) override;

    const BulkStats &bulkStats() const { return bstats; }

    /** Attach an analysis engine: every access (tracked or not) is
     *  logged, loads bind writer tags, and committed chunks report
     *  in commit order. */
    void setAnalysis(AnalysisEngine *a) { analysis = a; }

    // --- forward-progress watchdog hooks ---

    /** Squashes since the last commit. */
    unsigned consecutiveSquashCount() const
    {
        return consecutiveSquashes;
    }

    /** Tick of the last committed chunk (0 if none yet). */
    Tick lastCommitTick() const { return lastCommit; }

    /** Target size the next chunk will open with. */
    unsigned nextTarget() const { return nextChunkTarget; }

    /** The configured chunk-shrink floor. */
    unsigned minChunkSize() const { return bprm.minChunkSize; }

    /**
     * Watchdog rescue (graceful degradation): clamp the live chunks'
     * targets to minChunkSize so they end quickly, and reserve the
     * arbiter via pre-arbitration so the shrunken chunk commits ahead
     * of the contention that starved it. No-op if pre-arbitration is
     * already pending or the trace finished.
     */
    void rescueBoost();

    /** One-line-per-chunk state dump for watchdog diagnostics. */
    std::string chunkStateDump() const;

    std::uint64_t fingerprint() const override;

  protected:
    void advance() override;

    void syncDone() override;
    void syncLoad(Addr addr) override;
    void syncStore(Addr addr, std::uint64_t value) override;
    void syncRmw(Addr addr, RmwOp op) override;
    void execIo() override;
    void chargeInstrs(unsigned n) override;

  private:
    struct WinEntry
    {
        std::size_t opIdx;
        std::uint64_t chunkSeq;
        bool completed;
    };

    /** Current (youngest, still-open) chunk; opens one if a signature
     *  pair is free. nullptr when stalled on chunk slots. */
    Chunk *currentChunk();

    Chunk *findChunk(std::uint64_t seq);

    void finishOp();

    void retireWindow();
    bool windowFull() const;

    void issueLoad(Chunk &c, const Op &op);
    void issueStore(Chunk &c, const Op &op);

    /**
     * Would storing to @p line leave no L1 way for it? True when the
     * live chunks already hold assoc-1 or more *other* speculative
     * lines in its set (Section 4.1.2's overflow condition). Constant
     * time, from @ref specLines.
     */
    bool wouldOverflowSet(LineAddr line) const;

    /** Drop @p c's lines from @ref specLines; called exactly when
     *  the chunk leaves @ref chunks (commit or squash). */
    void releaseSpecLines(const Chunk &c);

    /** Shared load bookkeeping (R signature, forwarding log). */
    void loadToChunk(Chunk &c, LineAddr line, bool stack_ref);

    /** Shared store bookkeeping: W / Wpriv classification, Private
     *  Buffer, base-protocol writeback, presence request, overflow
     *  check. */
    void storeToChunk(Chunk &c, Addr addr, bool stack_ref, bool tracked,
                      std::uint64_t value);

    /** What a load binds to: its value and the store it came from. */
    struct LoadBinding
    {
        std::uint64_t value = 0;
        WriterRef writer{}; //!< meaningful only with an analysis engine
    };

    /**
     * Bind a load of @p addr now, in one walk over the live chunks,
     * youngest first. The value is the youngest tracked store's, else
     * the committed one. The writer tag is the youngest store's (even
     * an untracked one: it mirrors the machine's forwarding structure),
     * else the committed writer.
     */
    LoadBinding bindLoad(Addr addr) const;

    /** Append a load of @p addr bound to @p b to @p c's access log
     *  (analysis instrumentation; call at value-bind time). */
    void logLoad(Chunk &c, Addr addr, const LoadBinding &b,
                 bool tracked);

    /** Keep @p c's access-log buffer for the next chunk; called when
     *  the chunk leaves @ref chunks. */
    void recycleLog(Chunk &c);

    bool anyLiveW(LineAddr line) const;
    bool anyLiveWExact(LineAddr line) const;
    bool anyLiveWpriv(LineAddr line) const;

    void maybeArbitrate();
    void onGranted(std::uint64_t seq, std::shared_ptr<Signature> w);
    void squashFrom(std::size_t idx, SquashCause cause);

    /** The arbiter's decision on chunk @p seq (first reply only). */
    void onArbReply(std::uint64_t seq, const std::shared_ptr<Signature> &w,
                    bool granted);

    /**
     * Run @p fn with the current chunk, retrying every 10 cycles while
     * stalled on chunk slots, until a squash intervenes. @p fn should
     * capture only scalars: it rides in each retry event.
     */
    template <typename F>
    void withChunk(F fn);

    /**
     * A sync load, or with @p rmw a read-modify-write: the line enters
     * R now, and the value binds (and the RMW's store joins a chunk)
     * when the data arrives.
     */
    void syncRead(Addr addr, std::optional<RmwOp> rmw);

    /** Retry an I/O op every 10 cycles until every chunk drained,
     *  then perform it. */
    void ioPoll();

    BulkParams bprm;
    Arbiter &arb;

    /** Carries the commit-permission requests and replies. */
    ReliableChannel &chan;

    std::deque<std::unique_ptr<Chunk>> chunks;
    std::uint64_t nextSeq = 0;
    unsigned nextChunkTarget;
    unsigned consecutiveSquashes = 0;
    Tick lastCommit = 0;

    OpWindow<WinEntry> window;
    Tick fetchAvail = 0;
    bool gapCharged = false;

    PrivateBuffer privBuf;

    /** Per-L1-set counts of the live chunks' W/Wpriv lines. */
    SpecLineCounts specLines;

    unsigned committingCount = 0;

    bool preArbPending = false;
    bool preArbWaiting = false;

    /** Tick of the last squash with no chunk opened since (feeds the
     *  squash-to-restart histogram). */
    Tick lastSquashTick = kTickNever;

    /** Transaction nesting depth (Section 8 extension): while > 0
     *  the chunk is pinned open so the whole transaction commits
     *  atomically as one chunk. */
    unsigned txnDepth = 0;

    AnalysisEngine *analysis = nullptr;

    /** Emptied access-log buffers of dead chunks, reused by new ones. */
    std::vector<std::vector<LoggedAccess>> spareLogs;

    BulkStats bstats;
};

} // namespace bulksc

#endif // BULKSC_CORE_BULK_PROCESSOR_HH
