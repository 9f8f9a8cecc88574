/**
 * @file
 * Spin polls allocate nothing: a barrier whose late arriver comes ten
 * times later makes the early one poll about ten times as often, and
 * must not make a single extra heap allocation, in any model.
 *
 * A separate executable, because it replaces the global operator new
 * to count allocations (and so stays out of the sanitizer build, whose
 * runtime owns operator new).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "system/system.hh"
#include "workload/generator.hh"

namespace {

std::atomic<std::uint64_t> gNews{0};

} // namespace

// GCC takes the malloc/free pairs below for a mismatch with the
// operator new they implement.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t n)
{
    gNews.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace bulksc {
namespace {

/** What one barrier run cost. */
struct BarrierRun
{
    std::uint64_t allocs;
    std::uint64_t spinInstrs;
};

Op
syncOp(OpType type, std::uint32_t gap = 2)
{
    Op op;
    op.type = type;
    op.addr = layout::kBarrierBase;
    op.gap = gap;
    op.aux = 0;
    return op;
}

/**
 * Two processors meet at one barrier. Processor 0 arrives at once and
 * spins; processor 1 first runs @p late instructions of other work.
 * Counts the allocations of the run itself (the System is built
 * first).
 *
 * The early arriver performs an I/O op between arriving and waiting:
 * under BulkSC that commits its arrival (Section 4.1.3), so the late
 * arriver sees the count without waiting for the spinning chunk to
 * fill. With chunks far larger than the spin, the number of chunks
 * and commits, and so the allocations of the commit path, is the
 * same at every lateness; only the polls scale with it.
 */
BarrierRun
lateBarrier(Model model, std::uint32_t late)
{
    Trace early;
    early.ops = {syncOp(OpType::BarrierArrive), syncOp(OpType::Io),
                 syncOp(OpType::BarrierWait)};
    early.finalize();
    Trace slow;
    Op work;
    work.type = OpType::Load;
    work.addr = 0x1000;
    work.gap = late;
    slow.ops = {work, syncOp(OpType::BarrierArrive),
                syncOp(OpType::BarrierWait)};
    slow.finalize();

    MachineConfig cfg;
    cfg.model = model;
    cfg.numProcs = 2;
    cfg.cpu.numBarrierProcs = 2;
    cfg.bulk.chunkSize = 100'000'000;
    System sys(cfg, {early, slow});
    const std::uint64_t before = gNews.load();
    Results r = sys.run(50'000'000);
    const std::uint64_t allocs = gNews.load() - before;
    EXPECT_TRUE(r.completed);
    return {allocs, sys.processor(0).spinInstrs()};
}

class SyncAlloc : public ::testing::TestWithParam<Model>
{};

TEST_P(SyncAlloc, LaterArrivalAddsNoAllocations)
{
    // At 100k instructions late the early arriver already polls about
    // 900 times, which touches every bucket of the event wheel once
    // (buckets keep their storage); ten times later it polls about
    // 9000 times: one allocation per poll would add thousands.
    BarrierRun base = lateBarrier(GetParam(), 100'000);
    BarrierRun later = lateBarrier(GetParam(), 1'000'000);
    EXPECT_GT(later.spinInstrs, 9 * base.spinInstrs);
    EXPECT_LE(later.allocs, base.allocs);
}

INSTANTIATE_TEST_SUITE_P(
    Models, SyncAlloc,
    ::testing::Values(Model::SC, Model::TSO, Model::RC, Model::SCpp,
                      Model::BSCbase, Model::BSCdypvt, Model::BSCstpvt,
                      Model::BSCexact),
    [](const auto &info) {
        std::string n = modelName(info.param);
        for (auto &c : n) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

} // namespace
} // namespace bulksc
