/**
 * @file
 * Common machinery for all processor models: front-end (fetch/issue
 * rate) accounting, load-value recording, statistics, and the
 * synchronization engine that executes lock/barrier operations on top
 * of load/store/RMW primitives (the baselines' copy here, BulkSC's in
 * its processor).
 *
 * Timing is modelled at memory-op granularity: non-memory instructions
 * advance the front-end clock at the issue width; memory and
 * synchronization operations are subject to each consistency model's
 * ordering rules. This keeps the relative behaviour of SC / RC / SC++ /
 * BulkSC (the paper's comparison axis) while staying fast enough to run
 * the full evaluation.
 */

#ifndef BULKSC_CPU_PROCESSOR_BASE_HH
#define BULKSC_CPU_PROCESSOR_BASE_HH

#include <string>
#include <vector>

#include "cpu/op.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace bulksc {

/** Processor timing parameters (defaults follow the paper's Table 2). */
struct CpuParams
{
    /** Non-memory instructions issued per cycle. */
    unsigned issueWidth = 4;

    /** Maximum memory ops in flight (load/store queue). */
    unsigned windowOps = 56;

    /** Instruction window (ROB) size; bounds lookahead. */
    unsigned robInstrs = 176;

    /** Cycles to restore a checkpoint / recover from a squash. */
    Tick squashPenalty = 15;

    /** Spin-loop poll interval, cycles. */
    Tick spinPoll = 25;

    /** Instructions charged per spin-loop iteration. */
    unsigned spinLoopInstrs = 8;

    /** Latency of an uncached (I/O) operation. */
    Tick ioLatency = 100;

    /** Processors participating in barriers. */
    unsigned numBarrierProcs = 8;

    /** Cache line size (locates the barrier generation word). */
    unsigned lineBytes = kDefaultLineBytes;

    /** Maximum ticks of L1-hit work batched into one event. */
    Tick batchWindow = 64;
};

/** The atomic read-modify-writes of the synchronization engine. */
enum class RmwOp : std::uint8_t
{
    TestAndSet, //!< lock acquire: 0 becomes 1, anything else stays
    Increment,  //!< barrier arrival: v becomes v + 1
};

/** The value @p op leaves behind after reading @p v. */
constexpr std::uint64_t
applyRmw(RmwOp op, std::uint64_t v)
{
    if (op == RmwOp::Increment)
        return v + 1;
    return v == 0 ? 1 : v;
}

/**
 * Abstract base of all processor models.
 */
class ProcessorBase : public SimObject, public CacheListener
{
  public:
    ProcessorBase(EventQueue &eq, const std::string &name, ProcId pid,
                  MemorySystem &mem, const Trace &trace,
                  const CpuParams &params);

    /** Begin executing the trace. */
    void start();

    bool finished() const { return finishedFlag; }

    /** Tick at which the trace completed (valid once finished()). */
    Tick finishTick() const { return finishTick_; }

    ProcId procId() const { return pid; }

    /** Values observed by recording loads, indexed by slot. */
    const std::vector<std::uint64_t> &loadResults() const
    {
        return results;
    }

    // --- statistics ---
    std::uint64_t retiredInstrs() const { return nRetired; }
    std::uint64_t wastedInstrs() const { return nWasted; }
    std::uint64_t squashes() const { return nSquashes; }
    std::uint64_t spinInstrs() const { return nSpin; }

    /**
     * Digest of the model-visible execution state (trace position,
     * recorded load values, model-specific chunk machinery) for
     * explorer revisit pruning. Timing state is excluded on purpose:
     * two runs in "the same" protocol state at different ticks should
     * fingerprint equal.
     */
    virtual std::uint64_t fingerprint() const;

  protected:
    /** Model-specific execution engine; re-entered on every wakeup. */
    virtual void advance() = 0;

    /**
     * Charge @p instrs instructions to the front end.
     * @return the tick at which the last of them has issued.
     */
    Tick fetchAdvance(std::uint32_t instrs);

    /** Mark the trace complete and record its finish tick. */
    void markFinished();

    /** Schedule an advance() wakeup at absolute tick @p when. */
    void scheduleAdvance(Tick when);

    /**
     * In-order read/exclusive prefetching (SC and TSO): prefetch every
     * load and store within a ROB's worth of instructions past @ref
     * pos, each once.
     */
    void issuePrefetches();

    // --- synchronization engine ---

    /**
     * Start the synchronization or I/O op @p op. At most one is in
     * flight (@ref syncBusy); its state lives in @ref sync, and every
     * scheduled step captures only `this`, the epoch it was issued in
     * and a few scalars, so a spin poll allocates nothing. syncDone()
     * runs when the op completes.
     */
    void execSync(const Op &op);

    /**
     * The in-flight sync op completed. @ref syncBusy is already clear
     * and the engine no longer reads @ref sync, so the model may start
     * the next sync op from here.
     */
    virtual void syncDone() = 0;

    /**
     * Timed load of a tracked value. Completes by calling syncResume()
     * with the value, unless a squash (epoch bump) came in between.
     * The baseline performs the access non-speculatively.
     */
    virtual void syncLoad(Addr addr);

    /** Timed store of a tracked value; completes like syncLoad(). */
    virtual void syncStore(Addr addr, std::uint64_t value);

    /**
     * Atomic read-modify-write; completes like syncLoad() with the old
     * value. The baseline makes it atomic at the completion event;
     * BulkSC makes it a speculative load + store pair whose atomicity
     * comes from the chunk.
     */
    virtual void syncRmw(Addr addr, RmwOp op);

    /** Uncached I/O; completes like syncStore(). Overridden by BulkSC
     *  to drain chunks first (Section 4.1.3). */
    virtual void execIo();

    /**
     * Continue the in-flight sync op with the value its last step read
     * (0 after a store or I/O). Called only by the primitives above,
     * and only while the epoch they were issued in is current.
     */
    void syncResume(std::uint64_t v);

    /** Charge spin-loop instructions (models extend, e.g. to grow the
     *  current chunk). */
    virtual void chargeInstrs(unsigned n);

    /** Record a load's observed value if it has a result slot. */
    void
    recordLoad(const Op &op, std::uint64_t v)
    {
        if (op.aux != kNoSlot && op.aux < results.size())
            results[op.aux] = v;
    }

    ProcId pid;
    MemorySystem &mem;
    const Trace &trace;
    CpuParams prm;

    /** Next op index to execute. */
    std::size_t pos = 0;

    /** Next op index issuePrefetches() has not prefetched. */
    std::size_t prefetchPos = 0;

    /** Squash epoch: callbacks from before a squash are stale. */
    std::uint64_t epoch = 0;

    /** A sync op is in flight. A squash clears it and bumps the
     *  epoch, which strands the old op's pending steps. */
    bool syncBusy = false;

    // statistics (maintained by subclasses)
    std::uint64_t nRetired = 0;
    std::uint64_t nWasted = 0;
    std::uint64_t nSquashes = 0;
    std::uint64_t nSpin = 0;

  private:
    /** Issue one attempt of a spinning op: the test-and-set of an
     *  Acquire, the generation load of a BarrierWait. */
    void syncPoll();

    /** Charge one spin-loop iteration and poll again @p delay cycles
     *  from now, unless a squash intervenes. */
    void spinAgain(Tick delay);

    /** The in-flight sync op (valid while @ref syncBusy). */
    struct SyncState
    {
        OpType kind = OpType::Acquire;
        Addr addr = 0;          //!< lock word, or barrier count word
        std::uint64_t want = 0; //!< barrier generation to publish/await
        unsigned attempts = 0;  //!< failed test-and-sets (backoff)
        std::uint8_t step = 0;  //!< BarrierArrive: 0 increment, 1 count
                                //!< reset, 2 generation publish
    };
    SyncState sync;

    Tick fetchTick = 0;
    std::uint32_t fetchCarry = 0;

    bool finishedFlag = false;
    Tick finishTick_ = 0;

    std::vector<std::uint64_t> results;

    bool advancePending = false;
    Tick advanceAt = 0;
};

} // namespace bulksc

#endif // BULKSC_CPU_PROCESSOR_BASE_HH
