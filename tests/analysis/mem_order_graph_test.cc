/**
 * @file
 * Unit tests for the memory-order graph: po/rf/co/fr edge derivation
 * from committed chunk logs, writer-tag resolution, stale-read
 * violation detection with attribution, and the committed-writer
 * directory the load instrumentation queries; and a differential run
 * against a reference model (the graph as it was built on hash maps,
 * one vector of history and of readers per address) over random
 * multi-processor commit logs.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/mem_order_graph.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

using EdgeKind = MemOrderGraph::EdgeKind;

constexpr Addr kX = 0x1000;
constexpr Addr kY = 0x2000;

LoggedAccess
storeOp(Addr a, std::uint64_t v)
{
    return {a, v, true};
}

LoggedAccess
loadFrom(Addr a, ProcId writer_proc, std::uint64_t writer_seq,
         std::uint32_t writer_idx = 0)
{
    LoggedAccess la{a, 0, false};
    la.writer = {writer_proc, writer_seq, writer_idx};
    return la;
}

LoggedAccess
loadInitial(Addr a)
{
    return {a, 0, false}; // default WriterRef = initial memory
}

TEST(MemOrderGraph, PoChainsChunksOfOneProcessor)
{
    MemOrderGraph g;
    g.chunkCommitted(10, 0, 0, {storeOp(kX, 1)});
    g.chunkCommitted(20, 0, 1, {storeOp(kX, 2)});
    g.chunkCommitted(30, 0, 2, {});
    EXPECT_TRUE(g.ok());
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.edgeCount(EdgeKind::Po), 2u);
    // The co edge between the two writes coincides with the po edge;
    // the graph keeps one edge per node pair (first witness wins).
    EXPECT_EQ(g.edgeCount(EdgeKind::Co), 0u);
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(MemOrderGraph, RfEdgeFromTaggedWriter)
{
    MemOrderGraph g;
    g.chunkCommitted(10, 0, 5, {storeOp(kX, 1)});
    g.chunkCommitted(20, 1, 9, {loadFrom(kX, 0, 5)});
    EXPECT_TRUE(g.ok());
    EXPECT_EQ(g.edgeCount(EdgeKind::Rf), 1u);
    EXPECT_EQ(g.unmatchedReads(), 0u);
}

TEST(MemOrderGraph, CommittedWriterTracksLatestStore)
{
    MemOrderGraph g;
    EXPECT_EQ(g.committedWriter(kX), WriterRef{});
    g.chunkCommitted(10, 0, 0, {storeOp(kX, 1)});
    g.chunkCommitted(20, 1, 4, {storeOp(kX, 2)});
    WriterRef w = g.committedWriter(kX);
    EXPECT_EQ(w.proc, 1u);
    EXPECT_EQ(w.seq, 4u);
    EXPECT_EQ(g.committedWriter(kY), WriterRef{});
}

TEST(MemOrderGraph, FreshReadGetsFrToNextWrite)
{
    // Reader observes the latest write; a later write to the same
    // address puts the reader before it (fr), not a violation.
    MemOrderGraph g;
    g.chunkCommitted(10, 0, 0, {storeOp(kX, 1)});
    g.chunkCommitted(20, 1, 0, {loadFrom(kX, 0, 0)});
    g.chunkCommitted(30, 2, 0, {storeOp(kX, 2)});
    EXPECT_TRUE(g.ok());
    EXPECT_EQ(g.edgeCount(EdgeKind::Fr), 1u);
    EXPECT_EQ(g.edgeCount(EdgeKind::Co), 1u);
}

TEST(MemOrderGraph, InitialReadBeforeAnyWriteGetsFrToFirstWrite)
{
    MemOrderGraph g;
    g.chunkCommitted(10, 0, 0, {loadInitial(kX)});
    g.chunkCommitted(20, 1, 0, {storeOp(kX, 1)});
    EXPECT_TRUE(g.ok());
    EXPECT_EQ(g.edgeCount(EdgeKind::Fr), 1u);
}

TEST(MemOrderGraph, StaleReadWriteBackCycleIsDetected)
{
    // The fault-injection shape: C1 (cpu0) writes x and commits; C2
    // (cpu1) read x *before* C1's commit (stale tag: initial memory)
    // and also writes x, committing after C1. co(C1 -> C2) plus
    // fr(C2 -> C1) is a 2-cycle: no serial chunk order exists.
    MemOrderGraph g;
    g.chunkCommitted(10, 0, 1, {storeOp(kX, 1)});
    g.chunkCommitted(20, 1, 2, {loadInitial(kX), storeOp(kX, 2)});
    EXPECT_FALSE(g.ok());
    EXPECT_EQ(g.cyclesDetected(), 1u);
    ASSERT_EQ(g.violations().size(), 1u);
    const MemOrderGraph::Violation &v = g.violations()[0];
    EXPECT_EQ(v.tick, 20u);
    ASSERT_EQ(v.edges.size(), 2u);
    // Attribution: both edges name x, the pair {co, fr}.
    bool saw_co = false, saw_fr = false;
    for (const auto &e : v.edges) {
        EXPECT_EQ(e.addr, kX);
        saw_co |= e.kind == EdgeKind::Co;
        saw_fr |= e.kind == EdgeKind::Fr;
    }
    EXPECT_TRUE(saw_co);
    EXPECT_TRUE(saw_fr);
    std::string desc = g.describe(v);
    EXPECT_NE(desc.find("cpu0#1"), std::string::npos) << desc;
    EXPECT_NE(desc.find("cpu1#2"), std::string::npos) << desc;
}

TEST(MemOrderGraph, StoreBufferingEscapeIsDetected)
{
    // Dekker under a broken arbiter: both chunks read the other's
    // variable as initial memory yet both commit. fr(C0 -> C1) on y
    // and fr(C1 -> C0) on x close a 2-cycle.
    MemOrderGraph g;
    g.chunkCommitted(10, 0, 0, {storeOp(kX, 1), loadInitial(kY)});
    g.chunkCommitted(20, 1, 0, {storeOp(kY, 1), loadInitial(kX)});
    EXPECT_FALSE(g.ok());
    EXPECT_EQ(g.cyclesDetected(), 1u);
    ASSERT_EQ(g.violations().size(), 1u);
    for (const auto &e : g.violations()[0].edges)
        EXPECT_EQ(e.kind, EdgeKind::Fr);
}

TEST(MemOrderGraph, CheckingContinuesAfterAViolation)
{
    MemOrderGraph g;
    g.chunkCommitted(10, 0, 1, {storeOp(kX, 1)});
    g.chunkCommitted(20, 1, 2, {loadInitial(kX), storeOp(kX, 2)});
    ASSERT_FALSE(g.ok());
    // Later well-formed commits still work and add no violations.
    // (The tag names the store at log index 1 of cpu1's chunk 2.)
    g.chunkCommitted(30, 0, 3, {loadFrom(kX, 1, 2, 1)});
    g.chunkCommitted(40, 1, 4, {storeOp(kY, 1)});
    EXPECT_EQ(g.cyclesDetected(), 1u);
    EXPECT_EQ(g.numNodes(), 4u);
}

TEST(MemOrderGraph, ViolationCapBoundsStorageNotCounting)
{
    MemOrderGraph g(1);
    // Two independent stale-read cycles on different addresses.
    g.chunkCommitted(10, 0, 0, {storeOp(kX, 1)});
    g.chunkCommitted(20, 1, 0, {loadInitial(kX), storeOp(kX, 2)});
    g.chunkCommitted(30, 0, 1, {storeOp(kY, 1)});
    g.chunkCommitted(40, 1, 1, {loadInitial(kY), storeOp(kY, 2)});
    EXPECT_EQ(g.cyclesDetected(), 2u);
    EXPECT_EQ(g.violations().size(), 1u);
}

TEST(MemOrderGraph, UnmatchedWriterTagIsCountedNotFatal)
{
    MemOrderGraph g;
    g.chunkCommitted(10, 0, 0, {storeOp(kX, 1)});
    // Tag references a writer that never existed.
    g.chunkCommitted(20, 1, 0, {loadFrom(kX, 5, 99)});
    EXPECT_EQ(g.unmatchedReads(), 1u);
    EXPECT_TRUE(g.ok());
}

TEST(MemOrderGraph, RepeatedReaderRetriesARejectedFrEdge)
{
    // cpu1's chunk reads x from cpu0 twice, so it is a reader of x's
    // current version twice. cpu2's chunk first reads y stale (fr to
    // cpu1's write of y), then writes x: fr(cpu1 -> cpu2) on x would
    // close a cycle. Each reader entry retries the rejected edge, and
    // each attempt counts.
    MemOrderGraph g;
    g.chunkCommitted(10, 0, 0, {storeOp(kX, 1)});
    g.chunkCommitted(20, 1, 0,
                     {loadFrom(kX, 0, 0), loadFrom(kX, 0, 0),
                      storeOp(kY, 1)});
    g.chunkCommitted(30, 2, 0, {loadInitial(kY), storeOp(kX, 2)});
    EXPECT_EQ(g.cyclesDetected(), 2u);
    ASSERT_EQ(g.violations().size(), 2u);
    EXPECT_EQ(g.describe(g.violations()[0]),
              "cpu2#0 -fr(0x2000)-> cpu1#0 -fr(0x1000)-> cpu2#0");
    EXPECT_EQ(g.describe(g.violations()[1]),
              g.describe(g.violations()[0]));
    EXPECT_EQ(g.edgeCount(EdgeKind::Fr), 1u);
    EXPECT_EQ(g.edgeCount(EdgeKind::Rf), 1u);
    EXPECT_EQ(g.edgeCount(EdgeKind::Co), 1u);
}

/**
 * Reference model: the memory-order graph as first written, with a
 * hash map of per-address history and reader vectors and a second
 * hash table for edge attribution. MemOrderGraph must agree with it
 * on every observable after every commit.
 */
class RefGraph
{
  public:
    using NodeId = CycleDetector::NodeId;

    explicit RefGraph(unsigned cap) : violationCap(cap) {}

    void
    chunkCommitted(Tick now, ProcId p, std::uint64_t seq,
                   const std::vector<LoggedAccess> &log)
    {
        NodeId n = det.addNode();
        nodes.push_back({p, seq, now});
        auto po = lastNode.find(p);
        if (po != lastNode.end())
            addEdge(now, po->second, n, EdgeKind::Po, 0);
        lastNode[p] = n;

        for (std::size_t i = 0; i < log.size(); ++i) {
            const LoggedAccess &a = log[i];
            auto &h = hist[a.addr];
            if (a.isWrite) {
                if (!h.empty() && h.back().node != n)
                    addEdge(now, h.back().node, n, EdgeKind::Co, a.addr);
                auto rs = readers.find(a.addr);
                if (rs != readers.end()) {
                    for (NodeId r : rs->second) {
                        if (r != n)
                            addEdge(now, r, n, EdgeKind::Fr, a.addr);
                    }
                    rs->second.clear();
                }
                h.push_back({WriterRef{p, seq,
                                       static_cast<std::uint32_t>(i)},
                             n});
                continue;
            }
            if (!a.writer.fromStore()) {
                if (h.empty())
                    readers[a.addr].push_back(n);
                else
                    addEdge(now, n, h.front().node, EdgeKind::Fr,
                            a.addr);
                continue;
            }
            std::size_t j = h.size();
            while (j-- > 0) {
                if (h[j].writer == a.writer)
                    break;
            }
            if (j >= h.size()) {
                ++nUnmatched;
                continue;
            }
            if (h[j].node != n)
                addEdge(now, h[j].node, n, EdgeKind::Rf, a.addr);
            if (j + 1 == h.size())
                readers[a.addr].push_back(n);
            else if (h[j + 1].node != n)
                addEdge(now, n, h[j + 1].node, EdgeKind::Fr, a.addr);
        }
    }

    WriterRef
    committedWriter(Addr a) const
    {
        auto it = hist.find(a);
        if (it == hist.end() || it->second.empty())
            return {};
        return it->second.back().writer;
    }

    std::string
    describe(std::size_t v) const
    {
        std::ostringstream os;
        const auto &edges = viols[v];
        for (const auto &e : edges) {
            const MemOrderGraph::NodeInfo &f = nodes[e.from];
            os << "cpu" << f.proc << "#" << f.seq << " -"
               << MemOrderGraph::edgeKindName(e.kind);
            if (e.kind != EdgeKind::Po)
                os << "(0x" << std::hex << e.addr << std::dec << ")";
            os << "-> ";
        }
        if (!edges.empty()) {
            const MemOrderGraph::NodeInfo &t = nodes[edges.back().to];
            os << "cpu" << t.proc << "#" << t.seq;
        }
        return os.str();
    }

    CycleDetector det;
    std::vector<MemOrderGraph::NodeInfo> nodes;
    std::uint64_t kindCounts[4] = {0, 0, 0, 0};
    std::uint64_t nCycles = 0;
    std::uint64_t nUnmatched = 0;
    std::vector<std::vector<MemOrderGraph::CycleEdge>> viols;
    std::vector<Tick> violTicks;

  private:
    struct HistEntry
    {
        WriterRef writer;
        NodeId node;
    };

    struct EdgeInfo
    {
        EdgeKind kind;
        Addr addr;
    };

    static std::uint64_t
    key(NodeId u, NodeId v)
    {
        return (std::uint64_t{u} << 32) | v;
    }

    void
    addEdge(Tick now, NodeId u, NodeId v, EdgeKind kind, Addr addr)
    {
        auto [it, fresh] =
            edgeInfo.try_emplace(key(u, v), EdgeInfo{kind, addr});
        if (!fresh)
            return;
        std::vector<NodeId> path;
        if (det.addEdge(u, v, &path) == CycleDetector::EdgeOutcome::Cycle) {
            edgeInfo.erase(it);
            ++nCycles;
            if (viols.size() < violationCap) {
                std::vector<MemOrderGraph::CycleEdge> edges;
                for (std::size_t i = 0; i + 1 < path.size(); ++i) {
                    const EdgeInfo &ei =
                        edgeInfo.at(key(path[i], path[i + 1]));
                    edges.push_back(
                        {path[i], path[i + 1], ei.kind, ei.addr});
                }
                edges.push_back({u, v, kind, addr});
                viols.push_back(std::move(edges));
                violTicks.push_back(now);
            }
            return;
        }
        ++kindCounts[static_cast<unsigned>(kind)];
    }

    unsigned violationCap;
    std::unordered_map<ProcId, NodeId> lastNode;
    std::unordered_map<Addr, std::vector<HistEntry>> hist;
    std::unordered_map<Addr, std::vector<NodeId>> readers;
    std::unordered_map<std::uint64_t, EdgeInfo> edgeInfo;
};

/**
 * Random commit logs over a few processors and addresses. Loads read
 * initial memory, the newest committed store (fresh), an older one
 * (stale), their own chunk's earlier store (a self edge), a store
 * that never committed (unmatched), or repeat an earlier load of the
 * chunk. Stale reads make cycles, many past a small violation cap.
 */
class LogGen
{
  public:
    LogGen(std::uint64_t seed, unsigned procs, unsigned addrs)
        : rng(seed), nextSeq(procs, 0), committed(addrs)
    {
        for (unsigned a = 0; a < addrs; ++a)
            addrList.push_back(0x1000 + 0x40 * a + 8 * (a % 3));
    }

    /** One commit: the committing processor, its seq and its log. */
    void
    next(ProcId &p, std::uint64_t &seq, std::vector<LoggedAccess> &log)
    {
        p = static_cast<ProcId>(rng.below(nextSeq.size()));
        // Skipped seqs stand for squashed chunks.
        nextSeq[p] += 1 + (rng.below(4) == 0);
        seq = nextSeq[p];
        log.clear();
        std::vector<std::size_t> myStore(addrList.size(), kNone);
        std::size_t len = rng.below(9);
        for (std::size_t i = 0; i < len; ++i) {
            std::size_t k = rng.below(addrList.size());
            Addr a = addrList[k];
            if (rng.below(10) < 4) {
                myStore[k] = log.size();
                log.push_back({a, i, true});
                continue;
            }
            LoggedAccess ld{a, 0, false};
            const std::vector<WriterRef> &h = committed[k];
            unsigned pick = static_cast<unsigned>(rng.below(20));
            if (pick < 3) {
                // initial memory
            } else if (pick < 10 && !h.empty()) {
                ld.writer = h.back();
            } else if (pick < 13 && !h.empty()) {
                ld.writer = h[rng.below(h.size())];
            } else if (pick < 16 && myStore[k] != kNone) {
                ld.writer = {p, seq,
                             static_cast<std::uint32_t>(myStore[k])};
            } else if (pick < 17) {
                ld.writer = {p, seq + 1000, 7};
            } else if (!log.empty()) {
                const LoggedAccess &prev = log[rng.below(log.size())];
                if (!prev.isWrite)
                    ld = prev;
            }
            log.push_back(ld);
        }
        for (std::size_t i = 0; i < log.size(); ++i) {
            if (log[i].isWrite) {
                std::size_t k = indexOf(log[i].addr);
                committed[k].push_back(
                    {p, seq, static_cast<std::uint32_t>(i)});
            }
        }
    }

    const std::vector<Addr> &addrs() const { return addrList; }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    std::size_t
    indexOf(Addr a) const
    {
        for (std::size_t k = 0; k < addrList.size(); ++k) {
            if (addrList[k] == a)
                return k;
        }
        return kNone;
    }

    Rng rng;
    std::vector<std::uint64_t> nextSeq;
    std::vector<Addr> addrList;
    std::vector<std::vector<WriterRef>> committed;
};

void
expectSameAsReference(const MemOrderGraph &g, const RefGraph &ref,
                      const std::vector<Addr> &addrs)
{
    ASSERT_EQ(g.numNodes(), ref.nodes.size());
    ASSERT_EQ(g.numEdges(), ref.det.numEdges());
    for (unsigned k = 0; k < 4; ++k) {
        ASSERT_EQ(g.edgeCount(static_cast<EdgeKind>(k)),
                  ref.kindCounts[k])
            << MemOrderGraph::edgeKindName(static_cast<EdgeKind>(k));
    }
    ASSERT_EQ(g.cyclesDetected(), ref.nCycles);
    ASSERT_EQ(g.unmatchedReads(), ref.nUnmatched);
    ASSERT_EQ(g.violations().size(), ref.viols.size());
    for (std::size_t v = 0; v < ref.viols.size(); ++v) {
        const MemOrderGraph::Violation &viol = g.violations()[v];
        EXPECT_EQ(viol.tick, ref.violTicks[v]);
        ASSERT_EQ(g.describe(viol), ref.describe(v));
        ASSERT_EQ(viol.edges.size(), ref.viols[v].size());
        for (std::size_t e = 0; e < viol.edges.size(); ++e) {
            EXPECT_EQ(viol.edges[e].from, ref.viols[v][e].from);
            EXPECT_EQ(viol.edges[e].to, ref.viols[v][e].to);
        }
    }
    for (Addr a : addrs)
        ASSERT_EQ(g.committedWriter(a), ref.committedWriter(a)) << a;
}

TEST(MemOrderGraph, AgreesWithTheReferenceModelOnRandomLogs)
{
    // (seed, processors, addresses, violation cap, commits)
    struct Case
    {
        std::uint64_t seed;
        unsigned procs, addrs, cap, commits;
    };
    const Case cases[] = {
        {1, 2, 2, 8, 300},  {2, 3, 4, 8, 400},  {3, 4, 6, 3, 500},
        {4, 4, 16, 8, 500}, {5, 8, 3, 2, 400},  {6, 1, 3, 8, 200},
    };
    std::uint64_t cycles = 0, unmatched = 0;
    std::size_t capped = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.seed);
        MemOrderGraph g(c.cap);
        RefGraph ref(c.cap);
        LogGen gen(c.seed, c.procs, c.addrs);
        std::vector<LoggedAccess> log;
        for (unsigned i = 0; i < c.commits; ++i) {
            ProcId p;
            std::uint64_t seq;
            gen.next(p, seq, log);
            Tick now = 10 * (i + 1);
            g.chunkCommitted(now, p, seq, log);
            ref.chunkCommitted(now, p, seq, log);
            ASSERT_NO_FATAL_FAILURE(
                expectSameAsReference(g, ref, gen.addrs()))
                << "after commit " << i;
        }
        cycles += g.cyclesDetected();
        unmatched += g.unmatchedReads();
        capped += g.cyclesDetected() > g.violations().size();
    }
    // The logs did reach the cases they are meant to cover.
    EXPECT_GT(cycles, 0u);
    EXPECT_GT(unmatched, 0u);
    EXPECT_GT(capped, 0u);
}

} // namespace
} // namespace bulksc
