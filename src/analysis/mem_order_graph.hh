/**
 * @file
 * Axiomatic SC checking over committed chunks: build the memory-order
 * graph po ∪ rf ∪ co ∪ fr and keep it acyclic.
 *
 * BulkSC's correctness claim (paper Section 3.1) is that the chunked,
 * overlapped execution is indistinguishable from some serial order of
 * chunks. Axiomatically (Qadeer-style, and RealityCheck's graph
 * formulation of microarchitectural MCM checks), that holds iff the
 * union of
 *
 *  - po: per-processor chunk commit order (chunks commit in program
 *        order, so this is program order at chunk granularity),
 *  - rf: writer chunk -> reader chunk, for each load, from the store
 *        that actually supplied its value (ground-truth writer tags
 *        recorded at value-bind time — no value inference, so any
 *        workload can be checked),
 *  - co: per-address write serialization, witnessed by commit-grant
 *        order (the order the machine *claims*),
 *  - fr: reader -> co-successor of the store it read (the load
 *        observed a value that the later store overwrote, so the
 *        reader must serialize before that store),
 *
 * is acyclic over committed chunks. Edges are fed to the incremental
 * cycle detector as each chunk commits; in a correct execution every
 * edge points forward in commit order (the fast O(1) path), and the
 * first edge that would close a cycle is the SC violation — reported
 * with a minimal cycle and per-edge processor/chunk/address
 * attribution, and *not* inserted, so checking continues.
 *
 * Granularity: rf/co/fr are tracked at byte-address granularity (what
 * the value model uses), which is finer than the machine's line-level
 * disambiguation — so the check is sound and strictly more precise
 * than the hardware needs to be.
 *
 * The per-address write history is kept in full: truncating it could
 * mis-resolve a very stale read to a newer co-successor and fabricate
 * or miss edges. It is one append-only vector of 12-byte entries for
 * all addresses, each entry linking to the previous write of its
 * address; a flat per-address record (LineMap) points at the newest
 * entry and at the address's current readers, kept in pooled linked
 * lists whose cells are recycled when a write clears them. So one
 * logged access, and one committedWriter() query, costs one probe and
 * allocates nothing per address. Memory grows with committed writes
 * (fine for simulation-scale runs; see docs/analysis.md).
 *
 * Edges are deduplicated by the cycle detector's edge table; their
 * (kind, address) attribution sits in a vector indexed by the
 * detector's edge id and is read back only to render a violation.
 */

#ifndef BULKSC_ANALYSIS_MEM_ORDER_GRAPH_HH
#define BULKSC_ANALYSIS_MEM_ORDER_GRAPH_HH

#include <string>
#include <vector>

#include "analysis/access_log.hh"
#include "analysis/cycle_detector.hh"
#include "sim/line_set.hh"

namespace bulksc {

class MemOrderGraph
{
  public:
    using NodeId = CycleDetector::NodeId;

    enum class EdgeKind : std::uint8_t { Po, Rf, Co, Fr };

    /** A committed chunk (one graph node). */
    struct NodeInfo
    {
        ProcId proc;
        std::uint64_t seq;
        Tick commitTick;
    };

    /** One edge of a reported violating cycle. */
    struct CycleEdge
    {
        NodeId from;
        NodeId to;
        EdgeKind kind;
        Addr addr; //!< witness address (0 for po)
    };

    /** A minimal po ∪ rf ∪ co ∪ fr cycle. */
    struct Violation
    {
        Tick tick; //!< commit tick at which the cycle closed
        std::vector<CycleEdge> edges;
    };

    explicit MemOrderGraph(unsigned violation_cap = 8)
        : violationCap(violation_cap)
    {}

    /**
     * Observe one committed chunk. Must be called in commit-grant
     * order (the order BulkProcessor::onGranted fires in).
     */
    void chunkCommitted(Tick now, ProcId p, std::uint64_t seq,
                        const std::vector<LoggedAccess> &log);

    /** The last committed store to @p a (initial memory if none). */
    WriterRef
    committedWriter(Addr a) const
    {
        const AddrState *s = addrs.find(a);
        if (!s || s->newest == kNil)
            return {};
        return writerOf(hist[s->newest]);
    }

    bool ok() const { return nCycles == 0; }

    std::uint64_t cyclesDetected() const { return nCycles; }

    /** The first violationCap violations, each a minimal cycle. */
    const std::vector<Violation> &violations() const { return viols; }

    const NodeInfo &node(NodeId n) const { return nodes.at(n); }

    std::size_t numNodes() const { return nodes.size(); }
    std::size_t numEdges() const { return det.numEdges(); }
    std::uint64_t edgeCount(EdgeKind k) const
    {
        return kindCounts[static_cast<unsigned>(k)];
    }

    /** Loads whose writer tag matched no known store (should be 0;
     *  counted instead of asserted so a checker bug cannot kill a
     *  run). */
    std::uint64_t unmatchedReads() const { return nUnmatched; }

    /** "cpu1#12 -fr(0xb0000040)-> cpu0#9 -co(0xb0000040)-> cpu1#12" */
    std::string describe(const Violation &v) const;

    static const char *edgeKindName(EdgeKind k);

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** One committed store: access @ref idx of chunk @ref node. */
    struct HistEntry
    {
        NodeId node;
        std::uint32_t idx;
        std::uint32_t prev; //!< the address's previous write, or kNil
    };

    /** A reader of an address's current version (pooled list cell):
     *  chunk @ref node, which logged @ref reads loads of it. */
    struct ReaderCell
    {
        NodeId node;
        std::uint32_t reads;
        std::uint32_t next; //!< next cell of the list, or kNil
    };

    /** Everything the graph keeps per address. */
    struct AddrState
    {
        std::uint32_t newest = kNil; //!< latest write (hist index)
        NodeId firstWriter = kNil;   //!< node of the co-first write
        std::uint32_t readHead = kNil; //!< readers, in log order
        std::uint32_t readTail = kNil;
    };

    struct EdgeInfo
    {
        EdgeKind kind;
        Addr addr;
    };

    /** Add u -> v unless present. @return true iff it was rejected
     *  for closing a cycle (a violation). */
    bool addEdge(Tick now, NodeId u, NodeId v, EdgeKind kind,
                 Addr addr);

    WriterRef
    writerOf(const HistEntry &h) const
    {
        return {nodes[h.node].proc, nodes[h.node].seq, h.idx};
    }

    /** Count one more load of @p s's current version by @p n.
     *  Repeats are kept: each one retries a rejected fr edge. */
    void addReader(AddrState &s, NodeId n);

    CycleDetector det;
    std::vector<NodeInfo> nodes;
    std::vector<NodeId> lastNode; //!< po predecessor per ProcId

    LineMap<AddrState> addrs;

    /** Every committed write, in commit order; per address, a list
     *  linked newest-first through HistEntry::prev. */
    std::vector<HistEntry> hist;

    /** Reader-list cells; freeCells chains the recycled ones. */
    std::vector<ReaderCell> cells;
    std::uint32_t freeCells = kNil;

    /** Attribution of inserted edges, by CycleDetector::edgeId. */
    std::vector<EdgeInfo> edgeInfo;

    std::uint64_t kindCounts[4] = {0, 0, 0, 0};
    std::uint64_t nCycles = 0;
    std::uint64_t nUnmatched = 0;
    unsigned violationCap;
    std::vector<Violation> viols;
};

} // namespace bulksc

#endif // BULKSC_ANALYSIS_MEM_ORDER_GRAPH_HH
