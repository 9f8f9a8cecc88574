#include "analysis/cycle_detector.hh"

#include <algorithm>

namespace bulksc {

bool
CycleDetector::forwardReaches(NodeId v, NodeId u, std::uint32_t limit,
                              std::vector<NodeId> &visited)
{
    ++epoch;
    mark[v] = epoch;
    parent[v] = kNone;
    visited.clear();
    visited.push_back(v);
    // Breadth-first so the first arrival at u is a fewest-edges path.
    for (std::size_t head = 0; head < visited.size(); ++head) {
        NodeId x = visited[head];
        for (NodeId y : out[x]) {
            if (ord[y] > limit || mark[y] == epoch)
                continue;
            mark[y] = epoch;
            parent[y] = x;
            if (y == u)
                return true;
            visited.push_back(y);
        }
    }
    return false;
}

CycleDetector::EdgeOutcome
CycleDetector::addEdge(NodeId u, NodeId v, std::vector<NodeId> *cycle)
{
    if (u == v) {
        if (cycle)
            *cycle = {u};
        return EdgeOutcome::Cycle;
    }
    auto id = static_cast<std::uint32_t>(nEdges);
    if (!edgeIds.try_emplace(key(u, v), id).second)
        return EdgeOutcome::Duplicate;

    auto commit = [&] {
        out[u].push_back(v);
        in[v].push_back(u);
        ++nEdges;
        return EdgeOutcome::Inserted;
    };

    if (ord[u] < ord[v])
        return commit(); // already topologically consistent

    ++nReorders;
    std::vector<NodeId> deltaF;
    if (forwardReaches(v, u, ord[u], deltaF)) {
        // A v -> u path exists: u -> v would close a cycle. Reconstruct
        // the shortest path v, ..., u from the BFS parents.
        edgeIds.erase(key(u, v));
        if (cycle) {
            cycle->clear();
            for (NodeId x = u; x != kNone; x = parent[x])
                cycle->push_back(x);
            std::reverse(cycle->begin(), cycle->end());
        }
        return EdgeOutcome::Cycle;
    }

    // No cycle: restore the topological invariant by permuting only
    // the affected region. deltaF holds everything reachable from v
    // within (.., ord[u]]; deltaB everything reaching u within
    // [ord[v], ..). The two sets are disjoint (an overlap would have
    // been a v -> u path), and moving deltaB before deltaF within the
    // union of their current order slots restores ord[x] < ord[y] for
    // every edge x -> y.
    std::vector<NodeId> deltaB;
    {
        ++epoch;
        mark[u] = epoch;
        deltaB.push_back(u);
        for (std::size_t head = 0; head < deltaB.size(); ++head) {
            NodeId x = deltaB[head];
            for (NodeId y : in[x]) {
                if (ord[y] < ord[v] || mark[y] == epoch)
                    continue;
                mark[y] = epoch;
                deltaB.push_back(y);
            }
        }
    }

    auto byOrd = [this](NodeId a, NodeId b) { return ord[a] < ord[b]; };
    std::sort(deltaB.begin(), deltaB.end(), byOrd);
    std::sort(deltaF.begin(), deltaF.end(), byOrd);

    std::vector<std::uint32_t> slots;
    slots.reserve(deltaB.size() + deltaF.size());
    for (NodeId x : deltaB)
        slots.push_back(ord[x]);
    for (NodeId x : deltaF)
        slots.push_back(ord[x]);
    std::sort(slots.begin(), slots.end());

    std::size_t s = 0;
    for (NodeId x : deltaB) {
        ord[x] = slots[s++];
        pos[ord[x]] = x;
    }
    for (NodeId x : deltaF) {
        ord[x] = slots[s++];
        pos[ord[x]] = x;
    }
    return commit();
}

} // namespace bulksc
