/**
 * @file
 * Microbenchmarks (google-benchmark) of the signature primitive
 * operations of the paper's Figure 2: insertion, membership,
 * intersection, union, decode, and compression — the operations the
 * BDM, arbiter, and DirBDM perform on every access/commit — plus a
 * chunk's signature construction and DirBDM signature expansion, and
 * the flat LineSet (exact mirrors, chunk line sets) against the
 * std::unordered_set it replaced, and its keyed form LineMap (the
 * directory index, the speculative-line counts, the value store)
 * against std::unordered_map; and the axiomatic SC checker's
 * per-commit cost (MemOrderGraph), the analysis layer's host time
 * measured apart from any simulation.
 */

#include <benchmark/benchmark.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/mem_order_graph.hh"
#include "mem/directory.hh"
#include "signature/signature.hh"
#include "sim/line_set.hh"
#include "sim/rng.hh"

using namespace bulksc;

namespace {

Signature
filledSig(unsigned n, std::uint64_t seed, bool exact = false)
{
    SignatureConfig cfg;
    cfg.exact = exact;
    Signature s(cfg);
    Rng rng(seed);
    for (unsigned i = 0; i < n; ++i)
        s.insert(rng.next() & 0xFFFFFF);
    return s;
}

void
BM_SignatureInsert(benchmark::State &state)
{
    // mirror:1 keeps the exact mirror (the default), mirror:0 sets
    // only the Bloom bits (--no-exact-stats).
    SignatureConfig cfg;
    cfg.trackExact = state.range(0) != 0;
    Rng rng(1);
    Signature s(cfg);
    unsigned inserted = 0;
    for (auto _ : state) {
        s.insert(rng.next() & 0xFFFFFF);
        if (++inserted == 4096) {
            state.PauseTiming();
            s.clear();
            inserted = 0;
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_SignatureInsert)->ArgName("mirror")->Arg(1)->Arg(0);

void
BM_SignatureMembership(benchmark::State &state)
{
    Signature s = filledSig(static_cast<unsigned>(state.range(0)), 2);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(s.contains(rng.next() & 0xFFFFFF));
}
BENCHMARK(BM_SignatureMembership)->Arg(8)->Arg(64)->Arg(512);

void
BM_SignatureIntersect(benchmark::State &state)
{
    Signature a = filledSig(static_cast<unsigned>(state.range(0)), 4);
    Signature b = filledSig(static_cast<unsigned>(state.range(0)), 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.intersects(b));
}
BENCHMARK(BM_SignatureIntersect)->Arg(8)->Arg(64)->Arg(512);

void
BM_SignatureIntersectExact(benchmark::State &state)
{
    Signature a =
        filledSig(static_cast<unsigned>(state.range(0)), 6, true);
    Signature b =
        filledSig(static_cast<unsigned>(state.range(0)), 7, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.intersects(b));
}
BENCHMARK(BM_SignatureIntersectExact)->Arg(8)->Arg(64)->Arg(512);

void
BM_SignatureUnion(benchmark::State &state)
{
    Signature a = filledSig(64, 8);
    Signature b = filledSig(64, 9);
    for (auto _ : state) {
        Signature c = a;
        c.unionWith(b);
        benchmark::DoNotOptimize(c.empty());
    }
}
BENCHMARK(BM_SignatureUnion);

void
BM_SignatureDecode(benchmark::State &state)
{
    Signature s = filledSig(static_cast<unsigned>(state.range(0)), 10);
    for (auto _ : state)
        benchmark::DoNotOptimize(s.decodeBank0());
}
BENCHMARK(BM_SignatureDecode)->Arg(8)->Arg(64)->Arg(512);

void
BM_SignatureCompressedBits(benchmark::State &state)
{
    Signature s = filledSig(static_cast<unsigned>(state.range(0)), 11);
    for (auto _ : state)
        benchmark::DoNotOptimize(s.compressedBits());
}
BENCHMARK(BM_SignatureCompressedBits)->Arg(4)->Arg(64);

void
BM_SignatureConstruct(benchmark::State &state)
{
    // A chunk's R, W and W_priv signatures (the Chunk constructor).
    SignatureConfig cfg;
    for (auto _ : state) {
        Signature r(cfg), w(cfg), wpriv(cfg);
        benchmark::DoNotOptimize(r);
        benchmark::DoNotOptimize(w);
        benchmark::DoNotOptimize(wpriv);
    }
}
BENCHMARK(BM_SignatureConstruct);

void
BM_DirectoryExpand(benchmark::State &state)
{
    // 64k distinct reads, into a full map (arg 0) or a directory cache
    // of arg entries, then expansions of 20-line W signatures drawn
    // from the same lines. The committer (proc 0) shares none of them,
    // so every expansion leaves the directory unchanged.
    SignatureConfig cfg;
    Directory dir(cfg, 8, static_cast<std::size_t>(state.range(0)));
    std::vector<DirDisplacement> disp;
    std::vector<LineAddr> lines;
    Rng rng(12);
    for (unsigned i = 0; i < 65536; ++i) {
        lines.push_back(rng.next() & 0xFFFFFF);
        dir.recordRead(lines.back(), 1 + i % 7, disp);
    }
    std::vector<Signature> ws;
    for (unsigned k = 0; k < 64; ++k) {
        Signature w(cfg);
        for (unsigned i = 0; i < 20; ++i)
            w.insert(lines[rng.below(lines.size())]);
        ws.push_back(w);
    }
    std::size_t k = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(dir.expand(ws[k++ % ws.size()], 0));
}
BENCHMARK(BM_DirectoryExpand)->Arg(0)->Arg(4096);

// LineSet against std::unordered_set<LineAddr>, at chunk-like sizes
// (the arg is the number of lines).

using UnorderedSet = std::unordered_set<LineAddr>;

std::vector<LineAddr>
randomLines(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<LineAddr> out(n);
    for (LineAddr &l : out)
        l = rng.next() & 0xFFFFFF;
    return out;
}

/** Build a set of arg lines from empty (as each new chunk does). */
template <typename Set>
void
BM_SetInsert(benchmark::State &state)
{
    const auto lines = randomLines(state.range(0), 13);
    for (auto _ : state) {
        Set s;
        for (LineAddr l : lines)
            s.insert(l);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(lines.size()));
}
BENCHMARK_TEMPLATE(BM_SetInsert, LineSet)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK_TEMPLATE(BM_SetInsert, UnorderedSet)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

/** Membership queries against arg lines, half of them hits. */
template <typename Set>
void
BM_SetCount(benchmark::State &state)
{
    const auto lines = randomLines(state.range(0), 14);
    const auto misses = randomLines(state.range(0), 15);
    Set s;
    for (LineAddr l : lines)
        s.insert(l);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.contains(lines[i]));
        benchmark::DoNotOptimize(s.contains(misses[i]));
        i = i + 1 == lines.size() ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK_TEMPLATE(BM_SetCount, LineSet)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK_TEMPLATE(BM_SetCount, UnorderedSet)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

/** Erase one member of a set of arg lines and put it back (the
 *  churn of a chunk's outstanding-store lines); one item per erase. */
template <typename Set>
void
BM_SetErase(benchmark::State &state)
{
    const auto lines = randomLines(state.range(0), 16);
    Set s;
    for (LineAddr l : lines)
        s.insert(l);
    std::size_t i = 0;
    for (auto _ : state) {
        s.erase(lines[i]);
        s.insert(lines[i]);
        i = i + 1 == lines.size() ? 0 : i + 1;
    }
    benchmark::DoNotOptimize(s);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_SetErase, LineSet)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK_TEMPLATE(BM_SetErase, UnorderedSet)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

// LineMap against std::unordered_map, with the directory index's
// 32-bit values, at the same sizes (the arg is the number of keys).

using LineMap32 = LineMap<std::uint32_t>;
using UnorderedMap = std::unordered_map<LineAddr, std::uint32_t>;

const std::uint32_t *
lookup(const LineMap32 &m, LineAddr l)
{
    return m.find(l);
}

const std::uint32_t *
lookup(const UnorderedMap &m, LineAddr l)
{
    auto it = m.find(l);
    return it == m.end() ? nullptr : &it->second;
}

/** Build a map of arg keys from empty. */
template <typename Map>
void
BM_MapInsert(benchmark::State &state)
{
    const auto lines = randomLines(state.range(0), 17);
    for (auto _ : state) {
        Map m;
        std::uint32_t v = 0;
        for (LineAddr l : lines)
            m.try_emplace(l, v++);
        benchmark::DoNotOptimize(m);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(lines.size()));
}
BENCHMARK_TEMPLATE(BM_MapInsert, LineMap32)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK_TEMPLATE(BM_MapInsert, UnorderedMap)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

/** Value lookups against arg keys, half of them hits. */
template <typename Map>
void
BM_MapFind(benchmark::State &state)
{
    const auto lines = randomLines(state.range(0), 18);
    const auto misses = randomLines(state.range(0), 19);
    Map m;
    for (LineAddr l : lines)
        m.try_emplace(l, 1);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lookup(m, lines[i]));
        benchmark::DoNotOptimize(lookup(m, misses[i]));
        i = i + 1 == lines.size() ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK_TEMPLATE(BM_MapFind, LineMap32)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK_TEMPLATE(BM_MapFind, UnorderedMap)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

/** Erase one key of a map of arg keys and put it back (the churn of
 *  the speculative-line counts); one item per erase. */
template <typename Map>
void
BM_MapErase(benchmark::State &state)
{
    const auto lines = randomLines(state.range(0), 20);
    Map m;
    for (LineAddr l : lines)
        m.try_emplace(l, 1);
    std::size_t i = 0;
    for (auto _ : state) {
        m.erase(lines[i]);
        m.try_emplace(lines[i], 1);
        i = i + 1 == lines.size() ? 0 : i + 1;
    }
    benchmark::DoNotOptimize(m);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_MapErase, LineMap32)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK_TEMPLATE(BM_MapErase, UnorderedMap)
    ->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

/**
 * The axiomatic checker on a synthetic commit stream: 8 processors
 * commit in turn, each chunk 64 accesses (a third of them stores) over
 * arg distinct words. Each load is tagged with one committedWriter()
 * probe just before its chunk commits, as the load instrumentation
 * does at bind time, so every read is fresh and the graph stays
 * acyclic. The graph restarts (untimed) every 2048 chunks; one item
 * per logged access.
 */
void
BM_GraphCommit(benchmark::State &state)
{
    constexpr unsigned kProcs = 8;
    constexpr unsigned kAccesses = 64;
    constexpr std::size_t kChunks = 2048;
    const auto words = static_cast<std::uint64_t>(state.range(0));
    Rng rng(21);
    std::vector<std::vector<LoggedAccess>> logs(kChunks);
    for (auto &log : logs) {
        for (unsigned i = 0; i < kAccesses; ++i)
            log.push_back({0x10000 + 8 * rng.below(words), i,
                           rng.below(3) == 0});
    }
    MemOrderGraph g;
    std::size_t next = 0;
    for (auto _ : state) {
        if (next == kChunks) {
            state.PauseTiming();
            g = MemOrderGraph();
            next = 0;
            state.ResumeTiming();
        }
        std::vector<LoggedAccess> &log = logs[next];
        for (LoggedAccess &a : log) {
            if (!a.isWrite)
                a.writer = g.committedWriter(a.addr);
        }
        g.chunkCommitted(next, static_cast<ProcId>(next % kProcs),
                         next / kProcs, log);
        ++next;
    }
    benchmark::DoNotOptimize(g.numEdges());
    state.SetItemsProcessed(state.iterations() * kAccesses);
}
BENCHMARK(BM_GraphCommit)->Arg(4096)->Arg(262144);

} // namespace

BENCHMARK_MAIN();
