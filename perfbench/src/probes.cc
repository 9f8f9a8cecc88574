#include "probes.hh"

#include <algorithm>

#include "mem/directory.hh"
#include "signature/signature.hh"
#include "spans.hh"

namespace perfbench {

using namespace bulksc;

namespace {

struct ChunkLines
{
    std::vector<LineAddr> r, w, wpriv;
};

/** Cut each processor's trace into chunks of @p chunk_size instrs. */
std::vector<std::vector<ChunkLines>>
chunkTraces(const std::vector<Trace> &traces, unsigned chunk_size,
            unsigned line_bytes)
{
    std::vector<std::vector<ChunkLines>> out(traces.size());
    for (std::size_t p = 0; p < traces.size(); ++p) {
        std::vector<ChunkLines> &chunks = out[p];
        chunks.emplace_back();
        std::uint64_t instrs = 0;
        for (const Op &op : traces[p].ops) {
            ChunkLines &c = chunks.back();
            LineAddr line = lineOf(op.addr, line_bytes);
            switch (op.type) {
              case OpType::Load:
                c.r.push_back(line);
                break;
              case OpType::Store:
                (op.stackRef ? c.wpriv : c.w).push_back(line);
                break;
              case OpType::Acquire:
              case OpType::BarrierArrive:
                c.r.push_back(line);
                c.w.push_back(line);
                break;
              case OpType::Release:
                c.w.push_back(line);
                break;
              case OpType::BarrierWait:
                c.r.push_back(lineOf(op.addr + line_bytes, line_bytes));
                break;
              default:
                break;
            }
            instrs += op.gap + 1;
            if (instrs >= chunk_size) {
                instrs = 0;
                chunks.emplace_back();
            }
        }
    }
    return out;
}

} // namespace

std::vector<Metric>
ProbeTotals::metrics() const
{
    auto per = [](double secs, std::uint64_t n, double scale) {
        return n ? scale * secs / static_cast<double>(n) : 0.0;
    };
    return {
        {"signature.ctor_us", per(ctorS, ctors, 1e6), "us"},
        {"signature.insert_ns", per(insertS, inserts, 1e9), "ns"},
        {"signature.contains_ns", per(queryS, queries, 1e9), "ns"},
        {"signature.intersects_ns", per(intersectS, intersections, 1e9),
         "ns"},
        {"directory.expand_us", per(expandS, expansions, 1e6), "us"},
    };
}

void
probeLayers(const std::vector<Trace> &traces, const MachineConfig &cfg_in,
            ProbeTotals &tot)
{
    MachineConfig cfg = cfg_in;
    cfg.numProcs = static_cast<unsigned>(traces.size());
    cfg.resolve();
    const SignatureConfig &sc = cfg.bulk.sigCfg;
    const auto chunks = chunkTraces(traces, cfg.bulk.chunkSize,
                                    cfg.mem.l1.lineBytes);
    const std::size_t np = chunks.size();

    // Flat index of (proc, chunk); 3 signatures per chunk: R, W, W_priv.
    std::vector<std::size_t> base(np + 1, 0);
    for (std::size_t p = 0; p < np; ++p)
        base[p + 1] = base[p] + chunks[p].size();
    auto sigAt = [&](std::vector<Signature> &s, std::size_t p,
                     std::size_t k, unsigned which) -> Signature & {
        return s[3 * (base[p] + k) + which];
    };

    std::vector<Signature> sigs;
    {
        Span span("signature.ctor");
        sigs.reserve(3 * base[np]);
        for (std::size_t i = 0; i < 3 * base[np]; ++i)
            sigs.emplace_back(sc);
        tot.ctorS += span.stop();
        tot.ctors += sigs.size();
    }
    {
        Span span("signature.insert");
        for (std::size_t p = 0; p < np; ++p) {
            for (std::size_t k = 0; k < chunks[p].size(); ++k) {
                const ChunkLines &c = chunks[p][k];
                for (LineAddr l : c.r)
                    sigAt(sigs, p, k, 0).insert(l);
                for (LineAddr l : c.w)
                    sigAt(sigs, p, k, 1).insert(l);
                for (LineAddr l : c.wpriv)
                    sigAt(sigs, p, k, 2).insert(l);
                tot.inserts += c.r.size() + c.w.size() + c.wpriv.size();
            }
        }
        tot.insertS += span.stop();
    }
    {
        Span span("signature.contains");
        for (std::size_t p = 0; p < np; ++p) {
            std::size_t q = (p + 1) % np;
            for (std::size_t k = 0;
                 k < chunks[p].size() && k < chunks[q].size(); ++k) {
                const Signature &w = sigAt(sigs, q, k, 1);
                for (LineAddr l : chunks[p][k].r)
                    (void)w.contains(l);
                tot.queries += chunks[p][k].r.size();
            }
        }
        tot.queryS += span.stop();
    }
    {
        Span span("signature.intersects");
        for (std::size_t p = 0; p < np; ++p) {
            for (std::size_t q = 0; q < np; ++q) {
                if (q == p)
                    continue;
                for (std::size_t k = 0;
                     k < chunks[p].size() && k < chunks[q].size(); ++k) {
                    const Signature &w = sigAt(sigs, p, k, 1);
                    (void)w.intersects(sigAt(sigs, q, k, 0));
                    (void)w.intersects(sigAt(sigs, q, k, 1));
                    tot.intersections += 2;
                }
            }
        }
        tot.intersectS += span.stop();
    }
    {
        Span span("directory.replay");
        Directory dir(sc, static_cast<unsigned>(np));
        std::vector<DirDisplacement> displaced;
        std::size_t maxChunks = 0;
        for (const auto &c : chunks)
            maxChunks = std::max(maxChunks, c.size());
        for (std::size_t k = 0; k < maxChunks; ++k) {
            for (std::size_t p = 0; p < np; ++p) {
                if (k >= chunks[p].size())
                    continue;
                for (LineAddr l : chunks[p][k].r)
                    dir.recordRead(l, static_cast<ProcId>(p), displaced);
                displaced.clear();
                Clock::time_point t0 = Clock::now();
                dir.expand(sigAt(sigs, p, k, 1), static_cast<ProcId>(p));
                Clock::time_point t1 = Clock::now();
                SpanRecorder::instance().record("directory.expand", k, t0,
                                                t1);
                tot.expandS += secondsBetween(t0, t1);
                ++tot.expansions;
            }
        }
    }
}

} // namespace perfbench
