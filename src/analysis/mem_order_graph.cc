#include "analysis/mem_order_graph.hh"

#include <sstream>

#include "sim/event_trace.hh"

namespace bulksc {

const char *
MemOrderGraph::edgeKindName(EdgeKind k)
{
    switch (k) {
      case EdgeKind::Po:
        return "po";
      case EdgeKind::Rf:
        return "rf";
      case EdgeKind::Co:
        return "co";
      case EdgeKind::Fr:
        return "fr";
    }
    return "?";
}

bool
MemOrderGraph::addEdge(Tick now, NodeId u, NodeId v, EdgeKind kind,
                       Addr addr)
{
    std::vector<NodeId> path;
    auto outcome = det.addEdge(u, v, &path);
    if (outcome == CycleDetector::EdgeOutcome::Duplicate)
        return false; // first witness wins
    if (outcome == CycleDetector::EdgeOutcome::Cycle) {
        // The offending edge is rejected (the graph stays acyclic and
        // later commits keep being checked), but the cycle it would
        // have closed is the SC-violation witness.
        ++nCycles;
        EVENT_TRACE(TraceEventType::ScViolation, now,
                    trackProc(nodes[v].proc), nodes[v].seq, addr,
                    static_cast<std::uint8_t>(kind));
        if (viols.size() < violationCap) {
            Violation viol;
            viol.tick = now;
            for (std::size_t i = 0; i + 1 < path.size(); ++i) {
                const EdgeInfo &ei =
                    edgeInfo[det.edgeId(path[i], path[i + 1])];
                viol.edges.push_back(
                    {path[i], path[i + 1], ei.kind, ei.addr});
            }
            viol.edges.push_back({u, v, kind, addr}); // closing edge
            viols.push_back(std::move(viol));
        }
        return true;
    }
    edgeInfo.push_back({kind, addr}); // at index det.edgeId(u, v)
    ++kindCounts[static_cast<unsigned>(kind)];
    return false;
}

void
MemOrderGraph::addReader(AddrState &s, NodeId n)
{
    // A chunk's loads are logged together, so its repeats are
    // adjacent in the list.
    if (s.readTail != kNil && cells[s.readTail].node == n) {
        ++cells[s.readTail].reads;
        return;
    }
    std::uint32_t c = freeCells;
    if (c != kNil) {
        freeCells = cells[c].next;
        cells[c] = {n, 1, kNil};
    } else {
        c = static_cast<std::uint32_t>(cells.size());
        cells.push_back({n, 1, kNil});
    }
    if (s.readTail == kNil)
        s.readHead = c;
    else
        cells[s.readTail].next = c;
    s.readTail = c;
}

void
MemOrderGraph::chunkCommitted(Tick now, ProcId p, std::uint64_t seq,
                              const std::vector<LoggedAccess> &log)
{
    NodeId n = det.addNode();
    nodes.push_back({p, seq, now});

    if (p >= lastNode.size())
        lastNode.resize(p + 1, kNil);
    if (lastNode[p] != kNil)
        addEdge(now, lastNode[p], n, EdgeKind::Po, 0);
    lastNode[p] = n;

    for (std::size_t i = 0; i < log.size(); ++i) {
        const LoggedAccess &a = log[i];
        // addEdge never touches addrs, so the reference stays valid.
        AddrState &s = *addrs.try_emplace(a.addr).first;
        if (a.isWrite) {
            if (s.newest != kNil && hist[s.newest].node != n)
                addEdge(now, hist[s.newest].node, n, EdgeKind::Co,
                        a.addr);
            if (s.readHead != kNil) {
                for (std::uint32_t c = s.readHead; c != kNil;
                     c = cells[c].next) {
                    if (cells[c].node == n)
                        continue;
                    // Each load retries a rejected edge; once the
                    // edge is in, the repeats are no-ops.
                    for (std::uint32_t k = 0; k < cells[c].reads; ++k) {
                        if (!addEdge(now, cells[c].node, n, EdgeKind::Fr,
                                     a.addr))
                            break;
                    }
                }
                cells[s.readTail].next = freeCells;
                freeCells = s.readHead;
                s.readHead = s.readTail = kNil;
            }
            if (s.newest == kNil)
                s.firstWriter = n;
            hist.push_back(
                {n, static_cast<std::uint32_t>(i), s.newest});
            s.newest = static_cast<std::uint32_t>(hist.size() - 1);
            continue;
        }

        if (!a.writer.fromStore()) {
            // The load observed initial memory. If writes to the
            // address have already committed, that observation is
            // stale: the reader serializes before the first write.
            if (s.newest == kNil)
                addReader(s, n);
            else
                addEdge(now, n, s.firstWriter, EdgeKind::Fr, a.addr);
            continue;
        }

        // Resolve the writer tag in the address's write history,
        // newest first: the common (read-the-latest) case matches at
        // once. @c next is the co-successor of the entry examined.
        std::uint32_t j = s.newest, next = kNil;
        while (j != kNil && !(writerOf(hist[j]) == a.writer)) {
            next = j;
            j = hist[j].prev;
        }
        if (j == kNil) {
            ++nUnmatched; // writer never committed: instrumentation bug
            continue;
        }
        if (hist[j].node != n)
            addEdge(now, hist[j].node, n, EdgeKind::Rf, a.addr);
        if (next == kNil) {
            // Fresh read: fr materializes when the next write commits.
            addReader(s, n);
        } else if (hist[next].node != n) {
            // Stale read: a later write already committed, so the
            // reader must serialize before it. This is the edge that
            // points *backward* in commit order and closes the cycle
            // when disambiguation was (deliberately or otherwise)
            // skipped.
            addEdge(now, n, hist[next].node, EdgeKind::Fr, a.addr);
        }
    }
}

std::string
MemOrderGraph::describe(const Violation &v) const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < v.edges.size(); ++i) {
        const CycleEdge &e = v.edges[i];
        const NodeInfo &f = nodes[e.from];
        os << "cpu" << f.proc << "#" << f.seq << " -"
           << edgeKindName(e.kind);
        if (e.kind != EdgeKind::Po)
            os << "(0x" << std::hex << e.addr << std::dec << ")";
        os << "-> ";
    }
    if (!v.edges.empty()) {
        const NodeInfo &t = nodes[v.edges.back().to];
        os << "cpu" << t.proc << "#" << t.seq;
    }
    return os.str();
}

} // namespace bulksc
