/**
 * @file
 * Incremental cycle detection via online topological-order maintenance
 * (Pearce & Kelly, "A Dynamic Topological Sort Algorithm for Directed
 * Acyclic Graphs", JEA 2007).
 *
 * The detector maintains a total order ord[] over the nodes such that
 * every inserted edge (u, v) satisfies ord[u] < ord[v]. Inserting an
 * edge that already respects the order is O(1); inserting a "back"
 * edge triggers a search bounded to the affected region
 * [ord[v], ord[u]] that either finds a path v -> u — i.e. the new edge
 * would close a cycle — or reorders just the affected nodes.
 *
 * On a cycle, the *shortest* v -> u path (by edge count) is returned:
 * the forward search is breadth-first, and is exhaustive for v -> u
 * paths because every existing edge increases ord, so no path to u can
 * leave [ord[v], ord[u]]. The offending edge is NOT inserted — the
 * graph stays acyclic and subsequent insertions keep being checked.
 *
 * This is the engine under the axiomatic SC checker: nodes are
 * committed chunks, edges are po/rf/co/fr, and a cycle is an SC
 * violation whose minimal witness we want to report.
 *
 * Every inserted edge gets a dense id (0, 1, ... in insertion order)
 * from the one hash table that also rejects duplicates, so a client
 * keeps per-edge data in a plain vector indexed by edgeId() instead of
 * hashing each edge a second time.
 */

#ifndef BULKSC_ANALYSIS_CYCLE_DETECTOR_HH
#define BULKSC_ANALYSIS_CYCLE_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "sim/line_set.hh"

namespace bulksc {

class CycleDetector
{
  public:
    using NodeId = std::uint32_t;

    enum class EdgeOutcome
    {
        Inserted,  //!< edge added, graph still acyclic
        Duplicate, //!< edge already present (no-op)
        Cycle,     //!< edge rejected: it would close a cycle
    };

    /** Create a node; ids are dense and start at 0. */
    NodeId
    addNode()
    {
        NodeId n = static_cast<NodeId>(ord.size());
        ord.push_back(n); // new nodes go last in the current order
        pos.push_back(n);
        out.emplace_back();
        in.emplace_back();
        mark.push_back(0);
        parent.push_back(kNone);
        return n;
    }

    /**
     * Insert the edge u -> v.
     *
     * @param cycle If non-null and the outcome is Cycle, receives the
     *        shortest existing path v, ..., u (so the full cycle is
     *        that path closed by the rejected edge u -> v). A self
     *        loop yields the single-node path {u}.
     */
    EdgeOutcome addEdge(NodeId u, NodeId v,
                        std::vector<NodeId> *cycle = nullptr);

    bool
    hasEdge(NodeId u, NodeId v) const
    {
        return edgeIds.contains(key(u, v));
    }

    /** Id of the inserted edge u -> v: its rank in insertion order
     *  (the edge must exist). */
    std::uint32_t
    edgeId(NodeId u, NodeId v) const
    {
        return *edgeIds.find(key(u, v));
    }

    std::size_t numNodes() const { return ord.size(); }
    std::size_t numEdges() const { return nEdges; }

    /** Back-edge insertions that needed the bounded search. */
    std::uint64_t reorders() const { return nReorders; }

    /** Position of @p n in the maintained topological order. */
    std::uint32_t orderOf(NodeId n) const { return ord[n]; }

  private:
    static constexpr NodeId kNone = ~NodeId{0};

    static std::uint64_t
    key(NodeId u, NodeId v)
    {
        return (std::uint64_t{u} << 32) | v;
    }

    /** BFS forward from v over nodes with ord <= limit; true iff u
     *  was reached (parent[] then encodes the shortest path). */
    bool forwardReaches(NodeId v, NodeId u, std::uint32_t limit,
                        std::vector<NodeId> &visited);

    std::vector<std::vector<NodeId>> out; //!< forward adjacency
    std::vector<std::vector<NodeId>> in;  //!< reverse adjacency
    std::vector<std::uint32_t> ord;       //!< node -> order index
    std::vector<NodeId> pos;              //!< order index -> node
    LineMap<std::uint32_t> edgeIds; //!< key(u, v) -> edge id
    std::size_t nEdges = 0;
    std::uint64_t nReorders = 0;

    // Epoch-stamped scratch state for the searches (no per-call
    // allocation of visited sets).
    std::vector<std::uint32_t> mark;
    std::vector<NodeId> parent;
    std::uint32_t epoch = 0;
};

} // namespace bulksc

#endif // BULKSC_ANALYSIS_CYCLE_DETECTOR_HH
