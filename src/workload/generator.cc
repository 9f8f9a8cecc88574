#include "workload/generator.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bulksc {

namespace {

/**
 * Per-region access cursor. Real code touches several words of a line
 * before moving on (spatial locality), and revisits hot lines
 * (temporal locality); the cursor models both with a dwell counter on
 * top of a zipf-ish line picker and sequential runs.
 */
struct RegionCursor
{
    static constexpr unsigned kRecent = 24;

    std::uint64_t line = 0;
    unsigned dwell = 0;
    bool valid = false;
    std::uint64_t recent[kRecent] = {};
    unsigned recentCount = 0;
    unsigned recentHead = 0;

    std::uint64_t
    pick(Rng &rng, std::uint64_t lines, double locality, double seq_run,
         unsigned dwell_len)
    {
        if (valid && dwell > 0) {
            --dwell;
            return line;
        }
        // Temporal reuse: revisit the recent working set most of the
        // time; otherwise move on (sequential run or a fresh pick).
        double p_revisit = 0.30 + 0.45 * locality;
        if (recentCount > 0 && rng.chance(p_revisit)) {
            line = recent[rng.below(recentCount)];
        } else if (valid && rng.chance(seq_run)) {
            line = (line + 1) % lines;
            remember(line);
        } else {
            line = rng.zipfish(lines, locality);
            remember(line);
        }
        valid = true;
        dwell = dwell_len ? dwell_len - 1 : 0;
        return line;
    }

    void
    remember(std::uint64_t l)
    {
        recent[recentHead] = l;
        recentHead = (recentHead + 1) % kRecent;
        if (recentCount < kRecent)
            ++recentCount;
    }
};

/** Geometric-ish non-memory gap with the given mean. */
std::uint32_t
sampleGap(Rng &rng, double mean)
{
    double u = rng.uniform();
    if (u < 1e-12)
        u = 1e-12;
    double g = -std::log(u) * mean;
    if (g > 400.0)
        g = 400.0;
    return static_cast<std::uint32_t>(g);
}

/** The per-iteration probabilities and means generateTraces draws
 *  from, derived once from the profile. */
struct Rates
{
    double gapMean;       //!< mean non-memory gap before an op
    unsigned swBurst;     //!< stores per shared-write burst
    double pSharedWrite;  //!< per ordinary op: a shared-write burst
    double barrierPeriod; //!< instructions between barriers (0: none)
    double pLock;         //!< per iteration: a critical section
    double pStream;       //!< per iteration: a streaming burst

    explicit Rates(const AppProfile &prof)
    {
        gapMean = prof.memFrac > 0 ? (1.0 - prof.memFrac) / prof.memFrac
                                   : 50.0;
        swBurst = prof.sharedWriteBurst ? prof.sharedWriteBurst : 1;
        pSharedWrite = prof.memFrac > 0
                           ? prof.sharedWritesPer1k /
                                 (1000.0 * prof.memFrac * swBurst)
                           : 0.0;
        barrierPeriod = prof.barriersPer100k > 0
                            ? 100000.0 / prof.barriersPer100k
                            : 0.0;
        pLock = prof.locksPer1k > 0
                    ? prof.locksPer1k / 1000.0 * (gapMean + 1.0)
                    : 0.0;
        pStream = prof.streamBurstsPer1k > 0
                      ? prof.streamBurstsPer1k / 1000.0 * (gapMean + 1.0)
                      : 0.0;
    }
};

/** E[sampleGap(mean)]: the floor of an exponential, capped at 400, is
 *  the sum over k = 1..400 of P(gap >= k) = e^(-k/mean). */
double
expectedGap(double mean)
{
    if (mean <= 0)
        return 0;
    const double q = std::exp(-1.0 / mean);
    return q * (1.0 - std::pow(q, 400.0)) / (1.0 - q);
}

} // namespace

std::size_t
traceOpsReserve(const AppProfile &prof, std::uint64_t instrs_per_proc)
{
    const Rates rt(prof);
    // Ops and instructions of one iteration of generateTraces's main
    // loop, in expectation, per kind: ordinary op (or shared-write
    // burst), critical section, streaming burst. Gaps truncate, so an
    // op costs about half an instruction less than 1/memFrac, and
    // bursts (half-mean gaps) are denser still.
    const double op_cost = expectedGap(rt.gapMean) + 1.0;
    const double burst_cost = expectedGap(rt.gapMean * 0.5) + 1.0;
    const double p_sw = std::min(rt.pSharedWrite, 1.0);
    const double p_lock = std::min(rt.pLock, 1.0);
    const double p_stream = std::min(rt.pStream, 1.0);
    const double cs_ops = 2.0 + prof.csMemOps;
    const double stream_ops = 4.0 * prof.streamBurstLines;
    const double sw_extra = p_sw * (rt.swBurst - 1);

    const double ops = p_lock * cs_ops +
                       (1 - p_lock) * (p_stream * stream_ops +
                                       (1 - p_stream) * (1 + sw_extra));
    const double instrs =
        p_lock * cs_ops * op_cost +
        (1 - p_lock) *
            (p_stream * stream_ops * burst_cost +
             (1 - p_stream) * (op_cost + sw_extra * burst_cost));
    const double barriers =
        rt.barrierPeriod > 0
            ? static_cast<double>(instrs_per_proc) / rt.barrierPeriod + 1
            : 0.0;
    // The last iteration may overrun the budget by a whole burst.
    const double last = std::max({cs_ops, stream_ops,
                                  static_cast<double>(rt.swBurst)});
    // A 5% margin covers the sampling spread: over 16 trace salts at
    // 20k to 1M instructions, no trace of the 13 profiles fills more
    // than 98% of the reservation (generator_test checks 60k and 200k).
    const double expected =
        static_cast<double>(instrs_per_proc) * ops / instrs;
    return static_cast<std::size_t>(expected * 1.05 + 2 * barriers +
                                    last + 64);
}

std::vector<Trace>
generateTraces(const AppProfile &prof, unsigned num_procs,
               std::uint64_t instrs_per_proc, std::uint64_t seed_salt)
{
    fatal_if(num_procs == 0, "need at least one processor");
    const unsigned lb = kDefaultLineBytes;

    std::vector<Trace> traces(num_procs);

    const Rates rt(prof);
    const std::size_t reserve = traceOpsReserve(prof, instrs_per_proc);

    for (unsigned p = 0; p < num_procs; ++p) {
        Rng rng(mix64(prof.seed * 0x9e3779b9ULL + p * 7919 +
                      seed_salt * 104729));
        Trace &t = traces[p];
        t.ops.reserve(reserve);

        // Skew the per-processor bases by an odd line count so that
        // same-offset lines of different processors differ in their
        // low address bits too (real allocators are not 64 MB-aligned
        // per thread; perfectly aligned bases would alias in the
        // signature slices).
        const Addr stack_base = layout::kStackBase +
                                Addr{p} * layout::kStackStride +
                                Addr{p} * 509 * lb;
        const Addr priv_base = layout::kPrivBase +
                               Addr{p} * layout::kPrivStride +
                               Addr{p} * 12347 * lb;
        const Addr stream_base =
            layout::kStreamBase + Addr{p} * layout::kStreamStride;

        RegionCursor stack_cur, priv_cur, priv_wr_cur, shared_rd_cur,
            shared_wr_cur;
        std::uint64_t stream_line = 0;

        std::uint64_t instrs = 0;
        double next_barrier = rt.barrierPeriod;
        std::uint32_t barrier_idx = 0;

        auto emit = [&](OpType type, Addr addr, std::uint32_t gap,
                        bool stack_ref) {
            Op op;
            op.type = type;
            op.addr = addr;
            op.gap = gap;
            op.stackRef = stack_ref;
            if (prof.trackAllValues) {
                op.tracked = true;
                if (type == OpType::Store) {
                    // Unique per (processor, position): the SC
                    // checker can tell every write apart.
                    op.storeValue =
                        mix64((Addr{p} << 32) + t.ops.size() + 1);
                }
            }
            t.ops.push_back(op);
            instrs += gap + 1;
        };

        auto word = [&] { return rng.below(lb / 8) * 8; };

        // Shared reads dwell on lines like private data; shared writes
        // use their own cursor so write runs stay spatially compact.
        // Hot (contended) lines are scattered through their region
        // like real shared structures; a dense hot array would alias
        // wholesale in the signature slices.
        auto hot_line = [&]() -> Addr {
            std::uint64_t h = rng.below(prof.hotLines);
            return layout::kHotBase + (h * 769 % 65536) * lb + word();
        };
        // Each processor's shared-region work concentrates in its own
        // rotation of the region (threads process their own partition;
        // sharing happens through the hot set, lock data, and the
        // partition tails) — without this, every processor would camp
        // on the same zipf head and over-share the whole region.
        const std::uint64_t shared_rot =
            Addr{p} * prof.sharedLines / num_procs;
        auto shared_read_addr = [&]() -> Addr {
            if (prof.hotLines > 0 && rng.chance(prof.hotFrac))
                return hot_line();
            std::uint64_t line;
            if (prof.radixWritePattern) {
                // Readers consume the previous phase's data, slightly
                // ahead of the write frontier: the owning bucket's
                // writer will soon overwrite these lines, so its W
                // signature is regularly forwarded to the readers —
                // where it aliases against their dense position-window
                // R signatures without any true conflict.
                std::uint64_t bucket = rng.below(8);
                std::uint64_t pos = ((instrs >> 6) + 192 +
                                     rng.below(2048)) %
                                    16384;
                line = (bucket << 30) + pos;
            } else {
                line = shared_rd_cur.pick(rng, prof.sharedLines,
                                          prof.locality, prof.seqRun,
                                          7);
                line = (line + shared_rot) % prof.sharedLines;
            }
            return layout::kSharedBase + line * lb + word();
        };
        std::uint64_t stride_cursor = rng.below(1024);
        auto shared_write_addr = [&]() -> Addr {
            if (!prof.radixWritePattern && prof.hotLines > 0 &&
                rng.chance(prof.hotFrac)) {
                return hot_line();
            }
            std::uint64_t line;
            if (prof.radixWritePattern) {
                // Scatter phase: each processor owns a bucket, and
                // bucket-relative positions track execution progress,
                // so all processors write lines that agree in every
                // signature-covered bit and differ only in the bucket
                // bits — which lie beyond the address slice the
                // 2 Kbit signature hashes. The written sets are truly
                // disjoint yet collide in every Bloom bank: the
                // paper's radix aliasing pathology.
                std::uint64_t pos =
                    ((instrs >> 6) + rng.below(96)) % 16384;
                line = (Addr{p} << 30) + pos;
            } else if (prof.sharedWriteStride) {
                stride_cursor = (stride_cursor +
                                 prof.sharedWriteStride) %
                                prof.sharedLines;
                line = stride_cursor;
            } else {
                line = shared_wr_cur.pick(rng, prof.sharedLines, 0.3,
                                          prof.seqRun, 3);
                line = (line + shared_rot) % prof.sharedLines;
            }
            return layout::kSharedBase + line * lb + word();
        };

        while (instrs < instrs_per_proc) {
            // Barriers at fixed instruction thresholds so every
            // processor executes the same barrier sequence.
            if (rt.barrierPeriod > 0 &&
                static_cast<double>(instrs) >= next_barrier) {
                Op arrive;
                arrive.type = OpType::BarrierArrive;
                arrive.addr = layout::kBarrierBase;
                arrive.gap = 10;
                arrive.aux = barrier_idx;
                t.ops.push_back(arrive);
                Op wait = arrive;
                wait.type = OpType::BarrierWait;
                wait.gap = 2;
                t.ops.push_back(wait);
                instrs += 14;
                ++barrier_idx;
                next_barrier += rt.barrierPeriod;
                continue;
            }

            // Lock-protected critical section over the lock's data
            // (a few lines keyed by the lock id): true sharing happens
            // when two processors contend for the same lock region.
            if (rt.pLock > 0 && rng.chance(rt.pLock)) {
                std::uint32_t lock_id =
                    static_cast<std::uint32_t>(
                        rng.below(prof.numLocks));
                Op acq;
                acq.type = OpType::Acquire;
                acq.addr = layout::lockAddr(lock_id, lb);
                acq.gap = sampleGap(rng, rt.gapMean);
                t.ops.push_back(acq);
                instrs += acq.gap + 1;
                // 8 data lines per lock, in their own region.
                Addr data_base = layout::lockDataBase(lock_id, lb);
                for (std::uint32_t i = 0; i < prof.csMemOps; ++i) {
                    bool write = rng.chance(prof.csWriteFrac);
                    Addr a = data_base + rng.below(8) * lb + word();
                    emit(write ? OpType::Store : OpType::Load, a,
                         sampleGap(rng, rt.gapMean), false);
                }
                Op rel;
                rel.type = OpType::Release;
                rel.addr = acq.addr;
                rel.gap = sampleGap(rng, rt.gapMean);
                t.ops.push_back(rel);
                instrs += rel.gap + 1;
                continue;
            }

            // Streaming burst: a run of fresh lines touched once with
            // spatial locality. These are clustered memory misses —
            // overlappable by RC/SC++/BulkSC, serialized by SC.
            if (rt.pStream > 0 && rng.chance(rt.pStream)) {
                for (std::uint32_t l = 0; l < prof.streamBurstLines;
                     ++l) {
                    Addr line_base =
                        stream_base + (stream_line++) * lb;
                    for (unsigned k = 0; k < 4; ++k) {
                        bool write =
                            rng.chance(prof.streamStoreFrac);
                        emit(write ? OpType::Store : OpType::Load,
                             line_base + k * 8,
                             sampleGap(rng, rt.gapMean * 0.5), false);
                    }
                }
                continue;
            }

            std::uint32_t gap = sampleGap(rng, rt.gapMean);
            double r = rng.uniform();

            if (r < rt.pSharedWrite) {
                emit(OpType::Store, shared_write_addr(), gap, false);
                for (unsigned b = 1; b < rt.swBurst; ++b) {
                    emit(OpType::Store, shared_write_addr(),
                         sampleGap(rng, rt.gapMean * 0.5), false);
                }
            } else if (r < rt.pSharedWrite + prof.sharedReadFrac) {
                emit(OpType::Load, shared_read_addr(), gap, false);
            } else if (r < rt.pSharedWrite + prof.sharedReadFrac +
                               prof.stackFrac) {
                std::uint64_t line =
                    stack_cur.pick(rng, 48, 0.75, 0.5, 6);
                emit(rng.chance(0.45) ? OpType::Store : OpType::Load,
                     stack_base + line * lb + word(), gap, true);
            } else if (rng.chance(prof.privStoreFrac)) {
                // Private writes concentrate on a hot subset that
                // stays dirty in the L1 across chunks — the pattern
                // the dynamically-private optimization exploits.
                std::uint64_t line = priv_wr_cur.pick(
                    rng, prof.privWriteLines, 0.8, prof.seqRun, 6);
                emit(OpType::Store, priv_base + line * lb + word(),
                     gap, false);
            } else {
                std::uint64_t line =
                    priv_cur.pick(rng, prof.privLines, prof.locality,
                                  prof.seqRun, 7);
                emit(OpType::Load, priv_base + line * lb + word(),
                     gap, false);
            }
        }

        t.finalize();
    }
    return traces;
}

} // namespace bulksc
