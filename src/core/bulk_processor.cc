#include "core/bulk_processor.hh"

#include <sstream>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bulksc {

BulkProcessor::BulkProcessor(EventQueue &eq, const std::string &name,
                             ProcId pid, MemorySystem &mem,
                             const Trace &trace,
                             const CpuParams &cpu_params,
                             const BulkParams &bulk_params,
                             Arbiter &arb_, ReliableChannel &chan_)
    : ProcessorBase(eq, name, pid, mem, trace, cpu_params),
      bprm(bulk_params), arb(arb_), chan(chan_),
      nextChunkTarget(bprm.chunkSize),
      privBuf(bprm.privBufferEntries),
      specLines(mem.params().l1.numSets())
{}

Chunk *
BulkProcessor::currentChunk()
{
    if (!chunks.empty() && !chunks.back()->endReached)
        return chunks.back().get();
    if (chunks.size() >= bprm.maxLiveChunks)
        return nullptr; // out of signature pairs: stall
    chunks.push_back(std::make_unique<Chunk>(nextSeq++, pos,
                                             nextChunkTarget,
                                             bprm.sigCfg));
    chunks.back()->txnDepthAtStart = txnDepth;
    if (!spareLogs.empty()) {
        chunks.back()->accessLog = std::move(spareLogs.back());
        spareLogs.pop_back();
    }
    if (lastSquashTick != kTickNever) {
        bstats.squashRestart.sample(
            static_cast<double>(curTick() - lastSquashTick));
        lastSquashTick = kTickNever;
    }
    EVENT_TRACE(TraceEventType::ChunkStart, curTick(), trackProc(pid),
                chunks.back()->seq, nextChunkTarget, 0,
                static_cast<std::uint32_t>(pos));
    return chunks.back().get();
}

Chunk *
BulkProcessor::findChunk(std::uint64_t seq)
{
    for (auto &c : chunks) {
        if (c->seq == seq)
            return c.get();
    }
    return nullptr;
}

void
BulkProcessor::retireWindow()
{
    while (!window.empty() && window.front().completed)
        window.pop_front();
}

bool
BulkProcessor::windowFull() const
{
    if (window.size() >= prm.windowOps)
        return true;
    if (!window.empty() &&
        trace.instrsBetween(window.front().opIdx, pos) >= prm.robInstrs) {
        return true;
    }
    return false;
}

BulkProcessor::LoadBinding
BulkProcessor::bindLoad(Addr addr) const
{
    LoadBinding b;
    bool tagged = false;
    for (auto it = chunks.rbegin(); it != chunks.rend(); ++it) {
        const Chunk::SpecStore *s = (*it)->specStores.find(addr);
        if (!s)
            continue;
        if (!tagged) {
            b.writer = {pid, (*it)->seq, s->logIdx};
            tagged = true;
        }
        if (s->hasValue) {
            b.value = s->value;
            return b;
        }
    }
    b.value = mem.readValue(addr);
    if (!tagged && analysis)
        b.writer = analysis->committedWriter(addr);
    return b;
}

void
BulkProcessor::logLoad(Chunk &c, Addr addr, const LoadBinding &b,
                       bool tracked)
{
    if (analysis)
        c.accessLog.push_back({addr, b.value, false, tracked, b.writer});
}

void
BulkProcessor::recycleLog(Chunk &c)
{
    if (c.accessLog.capacity() == 0)
        return;
    c.accessLog.clear();
    spareLogs.push_back(std::move(c.accessLog));
}

bool
BulkProcessor::anyLiveW(LineAddr line) const
{
    for (const auto &c : chunks) {
        if (c->w.contains(line))
            return true;
    }
    return false;
}

bool
BulkProcessor::anyLiveWExact(LineAddr line) const
{
    for (const auto &c : chunks) {
        if (c->wLines.contains(line))
            return true;
    }
    return false;
}

bool
BulkProcessor::anyLiveWpriv(LineAddr line) const
{
    for (const auto &c : chunks) {
        if (c->wpriv.contains(line))
            return true;
    }
    return false;
}

void
BulkProcessor::loadToChunk(Chunk &c, LineAddr line, bool stack_ref)
{
    if (bprm.statPrivOpt && stack_ref)
        return; // private reads do not pollute R (Section 5.1)
    c.r.insert(line);

    // Data forwarding from an uncommitted predecessor chunk's write:
    // log it; the successor's R update takes a few cycles and commit of
    // the predecessor must wait for the log to drain (Section 3.2.1).
    for (const auto &pred : chunks) {
        if (pred.get() == &c)
            break;
        if (pred->w.contains(line)) {
            ++c.pendingFwd;
            eventq.scheduleAfter(bprm.fwdLogDelay,
                                 [this, seq = c.seq] {
                                     Chunk *ch = findChunk(seq);
                                     if (ch && ch->pendingFwd) {
                                         --ch->pendingFwd;
                                         maybeArbitrate();
                                     }
                                 });
            break;
        }
    }
}

void
BulkProcessor::storeToChunk(Chunk &c, Addr addr, bool stack_ref,
                            bool tracked, std::uint64_t value)
{
    LineAddr line = lineOf(addr, prm.lineBytes);

    bool fresh; // line new to this chunk's W or Wpriv line set
    if (bprm.statPrivOpt && stack_ref) {
        fresh = c.addWpriv(line);
    } else if (mem.l1State(pid, line) == LineState::Dirty &&
               !anyLiveW(line)) {
        // The line is dirty non-speculative: its current contents are
        // committed state that a squash must not destroy.
        if (bprm.dynPrivOpt) {
            if (anyLiveWpriv(line)) {
                fresh = c.addWpriv(line);
            } else if (privBuf.insert(line)) {
                c.privBufLines.push_back(line);
                fresh = c.addWpriv(line);
            } else {
                ++bstats.privBufferOverflows;
                mem.writebackLine(pid, line);
                fresh = c.addW(line);
            }
        } else {
            // BSCbase: write the old version back to memory, then
            // treat the write as ordinary speculative state.
            ++bstats.baseWritebacks;
            mem.writebackLine(pid, line);
            fresh = c.addW(line);
        }
    } else {
        fresh = c.addW(line);
    }
    if (fresh)
        specLines.add(line, mem.l1SetIndex(pid, line));

    if (tracked || analysis) {
        Chunk::SpecStore &s = *c.specStores.try_emplace(addr).first;
        if (tracked) {
            s.value = value;
            s.hasValue = true;
        }
        if (analysis) {
            s.logIdx = static_cast<std::uint32_t>(c.accessLog.size());
            c.accessLog.push_back({addr, value, true, tracked, {}});
        }
    }

    // Fetch the line if absent (as a Read: BulkSC write misses are
    // read requests, Section 4.3); mark it dirty-speculative once
    // present. Stores never stall the processor (Section 6).
    if (mem.l1Contains(pid, line)) {
        mem.markDirty(pid, line);
    } else {
        c.outstandingStoreLines.insert(line);
        // No epoch guard: the chunk lookup by seq is the staleness
        // check (a squashed chunk is simply gone).
        mem.access(pid, addr, MemCmd::Read,
                   [this, line, seq = c.seq] {
                       Chunk *ch = findChunk(seq);
                       if (ch) {
                           mem.markDirty(pid, line);
                           ch->outstandingStoreLines.erase(line);
                           maybeArbitrate();
                       }
                       advance();
                   });
    }
}

bool
BulkProcessor::wouldOverflowSet(LineAddr line) const
{
    return specLines.wouldOverflow(line, mem.l1SetIndex(pid, line),
                                   mem.params().l1.assoc);
}

void
BulkProcessor::releaseSpecLines(const Chunk &c)
{
    specLines.removeChunk(
        c, [this](LineAddr l) { return mem.l1SetIndex(pid, l); });
}

void
BulkProcessor::issueLoad(Chunk &c, const Op &op)
{
    LineAddr line = lineOf(op.addr, prm.lineBytes);
    loadToChunk(c, line, op.stackRef);
    if (op.aux != kNoSlot || analysis) {
        LoadBinding b = bindLoad(op.addr);
        if (op.aux != kNoSlot)
            recordLoad(op, b.value);
        logLoad(c, op.addr, b, op.tracked);
    }

    window.push_back({pos, c.seq, false});
    // No epoch guard: after a squash the window search and chunk lookup
    // find nothing for dropped work, while completions for surviving
    // older chunks' loads must still land.
    auto lat = mem.access(pid, op.addr, MemCmd::Read,
                          [this, idx = pos, seq = c.seq] {
                              window.complete(idx);
                              Chunk *ch = findChunk(seq);
                              if (ch && ch->inflightLoads) {
                                  --ch->inflightLoads;
                                  maybeArbitrate();
                              }
                              advance();
                          });
    if (lat)
        window.completeBack();
    else
        ++c.inflightLoads;
}

void
BulkProcessor::issueStore(Chunk &c, const Op &op)
{
    window.push_back({pos, c.seq, true});
    storeToChunk(c, op.addr, op.stackRef, op.tracked, op.storeValue);
}

void
BulkProcessor::finishOp()
{
    const Op &op = trace.ops[pos];
    ++pos;
    gapCharged = false;
    // An io op completes only after every chunk drained (execIo), so
    // there may be no live chunk to charge; the next one starts fresh.
    if (chunks.empty())
        return;
    Chunk &cur = *chunks.back();
    cur.execInstrs += op.gap + 1;
    if (cur.execInstrs >= cur.targetSize && !cur.endReached &&
        txnDepth == 0) {
        cur.endReached = true;
        maybeArbitrate();
    }
}

void
BulkProcessor::advance()
{
    if (finished())
        return;
    retireWindow();
    maybeArbitrate();
    if (preArbWaiting)
        return;

    while (true) {
        retireWindow();
        if (pos >= trace.ops.size()) {
            if (syncBusy || !window.empty())
                return;
            if (!chunks.empty()) {
                if (!chunks.back()->endReached) {
                    chunks.back()->endReached = true;
                    maybeArbitrate();
                }
                return;
            }
            if (committingCount == 0)
                markFinished();
            return;
        }
        if (syncBusy || windowFull())
            return;

        Chunk *cur = currentChunk();
        if (!cur)
            return; // both signature pairs busy

        const Op &op = trace.ops[pos];
        if (!gapCharged) {
            fetchAvail = fetchAdvance(op.gap + 1);
            gapCharged = true;
        }
        if (fetchAvail > curTick()) {
            scheduleAdvance(fetchAvail);
            return;
        }

        if (op.type == OpType::TxBegin) {
            // A transaction occupies a chunk of its own: its commit
            // IS the chunk commit, so atomicity and conflict handling
            // come for free from the chunk machinery (Section 8).
            if (txnDepth == 0 && cur->execInstrs > 0) {
                cur->endReached = true;
                maybeArbitrate();
                continue;
            }
            ++txnDepth;
            finishOp();
            continue;
        }
        if (op.type == OpType::TxEnd) {
            panic_if(txnDepth == 0, name(),
                     ": TxEnd without a matching TxBegin");
            --txnDepth;
            finishOp();
            if (txnDepth == 0) {
                Chunk &c = *chunks.back();
                if (!c.endReached) {
                    c.endReached = true;
                    maybeArbitrate();
                }
            }
            continue;
        }
        if (op.type == OpType::Load) {
            issueLoad(*cur, op);
            finishOp();
        } else if (op.type == OpType::Store) {
            // The store's speculative line must have a guaranteed L1
            // way. If the current chunk contributes to the pressure,
            // end it (the store lands in the next chunk); if the
            // pressure comes entirely from a predecessor chunk, wait
            // for it to commit. This is the only place where L1 set
            // overflow ends a chunk (Section 4.1.2).
            LineAddr line = lineOf(op.addr, prm.lineBytes);
            if (wouldOverflowSet(line)) {
                fatal_if(txnDepth > 0,
                         "transaction working set exceeds L1 way "
                         "capacity; transactions are cache-bounded "
                         "(Section 8)");
                if (!cur->endReached) {
                    cur->endReached = true;
                    maybeArbitrate();
                }
                if (chunks.size() >= bprm.maxLiveChunks)
                    return; // wake on predecessor commit
                continue;
            }
            issueStore(*cur, op);
            finishOp();
        } else {
            if (bprm.endChunkOnSync && cur->execInstrs > 0 &&
                !cur->endReached) {
                // Start the synchronization in a fresh chunk so its
                // critical section shares a chunk with as little
                // unrelated work as possible (Figure 6).
                cur->endReached = true;
                maybeArbitrate();
                continue;
            }
            execSync(op);
            return;
        }
    }
}

void
BulkProcessor::maybeArbitrate()
{
    if (chunks.empty() || preArbWaiting)
        return;
    Chunk &front = *chunks.front();
    if (!front.readyToArbitrate())
        return;

    front.arbitrating = true;
    if (front.firstArbTick == kTickNever)
        front.firstArbTick = curTick();
    // |W| and |Wpriv| come from the functional line sets; |R| needs
    // the stats mirror (reads are never tracked exactly on the fast
    // path) and reads 0 when it is off.
    bstats.rSizeSum += static_cast<double>(front.r.exactSize());
    bstats.wSizeSum += static_cast<double>(front.wLines.size());
    bstats.wprivSizeSum += static_cast<double>(front.wprivLines.size());

    auto w = std::make_shared<Signature>(front.w);
    std::uint64_t seq = front.seq;
    EVENT_TRACE(TraceEventType::ArbRequest, curTick(), trackProc(pid),
                seq, front.execInstrs);

    RProvider r_provider = [this, seq]() -> std::shared_ptr<Signature> {
        Chunk *c = findChunk(seq);
        return c ? std::make_shared<Signature>(c->r) : nullptr;
    };

    chan.call(
        pid, seq,
        [this, w, r_provider](const ReliableChannel::ReplyPort &port) {
            arb.requestCommit(pid, w, r_provider, port);
        },
        [this, seq, w](bool granted) { onArbReply(seq, w, granted); });
}

void
BulkProcessor::onArbReply(std::uint64_t seq,
                          const std::shared_ptr<Signature> &w,
                          bool granted)
{
    EVENT_TRACE(granted ? TraceEventType::ArbGrant
                        : TraceEventType::ArbDeny,
                curTick(), trackProc(pid), seq);
    Chunk *c = findChunk(seq);
    if (!c) {
        // The chunk was squashed while its request was in flight.
        if (granted) {
            ++bstats.abortedGrants;
            arb.commitDone(w);
        }
        return;
    }
    if (!granted) {
        ++bstats.deniedCommits;
        c->arbitrating = false;
        eventq.scheduleAfter(bprm.commitRetryDelay,
                             [this] { maybeArbitrate(); });
        return;
    }
    onGranted(seq, w);
}

void
BulkProcessor::onGranted(std::uint64_t seq, std::shared_ptr<Signature> w)
{
    Chunk *c = findChunk(seq);
    panic_if(!c, "granted chunk not found");
    panic_if(chunks.front().get() != c,
             "granted chunk is not the oldest");

    // The commit point: speculative values become the committed state.
    // The analysis engine's committed-writer directory advances in the
    // same atomic step (inside its chunkCommitted), keeping value state
    // and writer tags in lockstep.
    for (const auto &[a, st] : c->specStores) {
        if (st.hasValue)
            mem.writeValue(a, st.value);
    }
    if (analysis)
        analysis->chunkCommitted(curTick(), pid, seq, c->accessLog);
    recycleLog(*c);

    ++bstats.commits;
    lastCommit = curTick();
    if (w->empty())
        ++bstats.emptyWCommits;
    nRetired += c->execInstrs;
    if (c->firstArbTick != kTickNever) {
        bstats.arbLatency.sample(
            static_cast<double>(curTick() - c->firstArbTick));
    }
    EVENT_TRACE(TraceEventType::ChunkCommit, curTick(), trackProc(pid),
                seq, c->execInstrs, 0,
                static_cast<std::uint32_t>(c->wLines.size()));

    // Private Buffer: entries belonging to this chunk either transfer
    // to a younger chunk still writing the line, or retire (their
    // writeback was skipped — the whole point of Section 5.2).
    for (LineAddr line : c->privBufLines) {
        bool transferred = false;
        for (auto &other : chunks) {
            if (other.get() != c && other->wpriv.contains(line)) {
                other->privBufLines.push_back(line);
                transferred = true;
                break;
            }
        }
        if (!transferred)
            privBuf.erase(line);
    }

    // Statically-private data stays coherent: Wpriv goes straight to
    // the directory for expansion (Section 5.1).
    if (bprm.statPrivOpt && !c->wpriv.empty()) {
        auto wp = std::make_shared<Signature>(std::move(c->wpriv));
        mem.bulkCommit(pid, wp, c->wprivLines, [] {});
    }

    // The chunk dies with pop_front; its exact write lines outlive it
    // just long enough to pick the directories W must visit.
    releaseSpecLines(*c);
    LineSet w_lines = std::move(c->wLines);
    chunks.pop_front();
    consecutiveSquashes = 0;
    nextChunkTarget = bprm.chunkSize;
    preArbPending = false;

    if (!w->empty()) {
        ++committingCount;
        EVENT_TRACE(TraceEventType::CommitBegin, curTick(),
                    trackProc(pid), seq, w_lines.size());
        mem.bulkCommit(pid, w, w_lines,
                       [this, w, seq] {
                           EVENT_TRACE(TraceEventType::CommitEnd,
                                       curTick(), trackProc(pid), seq);
                           arb.commitDone(w);
                           --committingCount;
                           advance();
                       },
                       &bstats.invalNodes);
    }
    advance();
}

void
BulkProcessor::rescueBoost()
{
    if (finished() || preArbPending)
        return;
    EVENT_TRACE(TraceEventType::WatchdogRescue, curTick(),
                trackProc(pid), chunks.empty() ? 0 : chunks.front()->seq,
                bprm.minChunkSize);
    nextChunkTarget = bprm.minChunkSize;
    for (auto &c : chunks) {
        if (c->endReached)
            continue;
        unsigned clamp = c->execInstrs > bprm.minChunkSize
                             ? c->execInstrs
                             : bprm.minChunkSize;
        if (c->targetSize > clamp)
            c->targetSize = clamp;
    }
    preArbPending = true;
    preArbWaiting = true;
    ++bstats.preArbRequests;
    arb.preArbitrate(pid, [this] {
        preArbWaiting = false;
        advance();
        maybeArbitrate();
    });
    // Chunks that already crossed the clamped target end on the next
    // charge; one that crossed it while stalled needs a nudge now.
    advance();
}

std::string
BulkProcessor::chunkStateDump() const
{
    std::ostringstream os;
    os << name() << ": pos=" << pos << " retired=" << nRetired
       << " squashes=" << nSquashes
       << " consecutive=" << consecutiveSquashes
       << " lastCommit=" << lastCommit
       << " nextTarget=" << nextChunkTarget
       << " inflightTxns=" << chan.inflightCalls(pid)
       << (finished() ? " FINISHED" : "") << "\n";
    for (const auto &c : chunks) {
        os << "  chunk seq=" << c->seq << " instrs=" << c->execInstrs
           << "/" << c->targetSize << " |W|=" << c->wLines.size()
           << " endReached=" << (c->endReached ? 1 : 0)
           << " arbitrating=" << (c->arbitrating ? 1 : 0)
           << " inflightLoads=" << c->inflightLoads
           << " pendingStores=" << c->outstandingStoreLines.size()
           << "\n";
    }
    return os.str();
}

std::uint64_t
BulkProcessor::fingerprint() const
{
    std::uint64_t h = ProcessorBase::fingerprint();
    h = mix64(h ^ nextSeq);
    h = mix64(h ^ consecutiveSquashes);
    h = mix64(h ^ (std::uint64_t{preArbPending} << 1) ^
              (std::uint64_t{preArbWaiting} << 2) ^
              (std::uint64_t{syncBusy} << 3));
    h = mix64(h ^ committingCount);
    h = mix64(h ^ txnDepth);
    // Chunks are ordered (a deque), so a chained fold is fine.
    for (const auto &c : chunks) {
        std::uint64_t ch = mix64(c->seq);
        ch = mix64(ch ^ c->startPos);
        ch = mix64(ch ^ c->targetSize);
        ch = mix64(ch ^ c->execInstrs);
        ch = mix64(ch ^ (std::uint64_t{c->endReached} << 1) ^
                   (std::uint64_t{c->arbitrating} << 2));
        ch = mix64(ch ^ c->pendingFwd);
        ch = mix64(ch ^ c->inflightLoads);
        ch = mix64(ch ^ c->r.hash());
        ch = mix64(ch ^ c->w.hash());
        ch = mix64(ch ^ c->wpriv.hash());
        // Unordered containers fold commutatively.
        std::uint64_t sv = 0;
        for (const auto &[a, st] : c->specStores) {
            if (st.hasValue)
                sv += mix64(mix64(a) ^ st.value);
        }
        ch = mix64(ch ^ sv);
        std::uint64_t os_ = 0;
        for (LineAddr l : c->outstandingStoreLines)
            os_ += mix64(l);
        ch = mix64(ch ^ os_);
        h = mix64(h ^ ch);
    }
    for (std::size_t i = 0; i < window.size(); ++i) {
        const WinEntry &e = window[i];
        h = mix64(h ^ e.opIdx ^ (e.chunkSeq << 20) ^
                  (std::uint64_t{e.completed} << 63));
    }
    return h;
}

void
BulkProcessor::onRemoteWSig(const Signature &wc)
{
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        Chunk &c = *chunks[i];
        if (wc.intersects(c.r) || wc.intersects(c.w)) {
            // Attribute the squash: the Bloom encodings intersected,
            // but did the exact address sets? The exact mirrors make
            // this check free in simulation (Section 7 separates real
            // conflicts from signature aliasing); without them the
            // squash is counted but left unattributed.
            SquashCause cause = SquashCause::Unattributed;
            if (wc.tracksExact() && c.r.tracksExact()) {
                bool real = wc.intersectsExact(c.r) ||
                            wc.intersectsExact(c.w);
                cause = real ? SquashCause::TrueConflict
                             : SquashCause::FalsePositive;
            }
            squashFrom(i, cause);
            return;
        }
    }
}

void
BulkProcessor::squashFrom(std::size_t idx, SquashCause cause)
{
    ++nSquashes;
    ++consecutiveSquashes;
    if (cause == SquashCause::TrueConflict)
        ++bstats.trueConflictSquashes;
    else if (cause == SquashCause::FalsePositive)
        ++bstats.falsePositiveSquashes;
    else
        ++bstats.unattributedSquashes;
    EVENT_TRACE(TraceEventType::Squash, curTick(), trackProc(pid),
                chunks[idx]->seq, chunks.size() - idx,
                static_cast<std::uint8_t>(cause),
                static_cast<std::uint32_t>(chunks[idx]->startPos));

    for (std::size_t j = chunks.size(); j-- > idx;) {
        Chunk &c = *chunks[j];
        nWasted += c.execInstrs;
        bstats.squashChunkSize.sample(
            static_cast<double>(c.execInstrs));
        EVENT_TRACE(TraceEventType::ChunkSquash, curTick(),
                    trackProc(pid), c.seq, c.execInstrs,
                    static_cast<std::uint8_t>(cause));
        mem.l1DiscardSpeculative(pid, c.w, c.wLines);
        releaseSpecLines(c);
        recycleLog(c);
        for (LineAddr line : c.privBufLines) {
            privBuf.erase(line);
            mem.restoreLine(pid, line);
        }
    }
    lastSquashTick = curTick();

    pos = chunks[idx]->startPos;
    txnDepth = chunks[idx]->txnDepthAtStart;
    std::uint64_t cut = chunks[idx]->seq;
    while (!window.empty() && window.back().chunkSeq >= cut)
        window.pop_back();
    chunks.erase(chunks.begin() + static_cast<long>(idx), chunks.end());

    ++epoch;
    syncBusy = false;
    gapCharged = false;

    // Forward progress, measure 1: exponentially shrink the chunk.
    unsigned shift =
        consecutiveSquashes < 6 ? consecutiveSquashes : 6;
    unsigned shrunk = bprm.chunkSize >> shift;
    nextChunkTarget =
        shrunk > bprm.minChunkSize ? shrunk : bprm.minChunkSize;

    // Forward progress, measure 2: pre-arbitrate (Section 3.3).
    if (consecutiveSquashes >= bprm.preArbThreshold && !preArbPending) {
        preArbPending = true;
        preArbWaiting = true;
        ++bstats.preArbRequests;
        arb.preArbitrate(pid, [this] {
            preArbWaiting = false;
            advance();
        });
    }

    scheduleAdvance(curTick() + prm.squashPenalty);
}

void
BulkProcessor::onLineDisplaced(LineAddr line, bool dirty)
{
    (void)dirty;
    // Displacements never squash in BulkSC: the R signature still
    // covers displaced clean lines (Section 4.1.1). Counted for the
    // paper's Table 3; the read-side count needs the stats mirror.
    for (const auto &c : chunks) {
        if (c->r.tracksExact() && c->r.containsExact(line)) {
            ++bstats.specReadDisplacements;
            return;
        }
    }
    if (anyLiveWExact(line))
        ++bstats.specWriteDisplacements;
}

bool
BulkProcessor::mayVictimize(LineAddr line)
{
    // The BDM forbids displacing lines written speculatively by live
    // chunks (their only copy is the cache) and lines whose old
    // version sits in the Private Buffer.
    return !anyLiveW(line) && !anyLiveWpriv(line);
}

void
BulkProcessor::onExternalOwnerFetch(LineAddr line)
{
    if (!bprm.dynPrivOpt && !bprm.statPrivOpt)
        return;
    for (auto &c : chunks) {
        if (c->wpriv.contains(line)) {
            // The predicted-private pattern broke: supply the old
            // version from the Private Buffer and add the address back
            // to W so the commit publishes it (Section 5.2).
            ++bstats.privBufferSupplies;
            c->w.insert(line);
            return;
        }
    }
}

void
BulkProcessor::chargeInstrs(unsigned n)
{
    ProcessorBase::chargeInstrs(n);
    if (chunks.empty() || chunks.back()->endReached)
        return;
    Chunk &cur = *chunks.back();
    cur.execInstrs += n;
    // Spin loops grow the chunk like any other instructions; when it
    // reaches its target size it ends and commits even while the
    // synchronization operation is still in progress. This is what
    // lets a barrier arriver's count increment become visible while
    // the processor spins on the generation word (Section 3.3).
    if (cur.execInstrs >= cur.targetSize && txnDepth == 0) {
        cur.endReached = true;
        maybeArbitrate();
    }
}

template <typename F>
void
BulkProcessor::withChunk(F fn)
{
    if (Chunk *c = currentChunk()) {
        fn(*c);
        return;
    }
    eventq.scheduleAfter(10, [this, fn, e = epoch] {
        if (epoch == e)
            withChunk(fn);
    });
}

void
BulkProcessor::syncDone()
{
    finishOp();
    advance();
}

void
BulkProcessor::syncLoad(Addr addr)
{
    syncRead(addr, std::nullopt);
}

void
BulkProcessor::syncRmw(Addr addr, RmwOp op)
{
    // Load + conditional speculative store; the chunk's atomicity
    // makes the pair atomic (Section 3.3: synchronization operations
    // execute inside chunks with no fences).
    syncRead(addr, op);
}

void
BulkProcessor::syncRead(Addr addr, std::optional<RmwOp> rmw)
{
    withChunk([this, addr, rmw](Chunk &c) {
        loadToChunk(c, lineOf(addr, prm.lineBytes), false);
        auto fin = [this, addr, rmw, e = epoch] {
            if (epoch != e)
                return;
            // The value binds now, possibly in a later chunk than the
            // one the access started in (the first chunk may have
            // committed while a spin was in progress), so the read is
            // attributed — R signature and access log — to the
            // chunk that is current when it completes.
            withChunk([this, addr, rmw](Chunk &now) {
                loadToChunk(now, lineOf(addr, prm.lineBytes), false);
                LoadBinding b = bindLoad(addr);
                logLoad(now, addr, b, true);
                if (rmw) {
                    std::uint64_t next = applyRmw(*rmw, b.value);
                    if (next != b.value) {
                        withChunk([this, addr, next](Chunk &s) {
                            storeToChunk(s, addr, false, true, next);
                        });
                    }
                }
                syncResume(b.value);
            });
        };
        auto lat = mem.access(pid, addr, MemCmd::Read, fin);
        if (lat)
            eventq.scheduleAfter(*lat, fin);
    });
}

void
BulkProcessor::syncStore(Addr addr, std::uint64_t value)
{
    withChunk([this, addr, value](Chunk &c) {
        storeToChunk(c, addr, false, true, value);
        // Stores retire immediately (stall-free writes, Section 6).
        eventq.scheduleAfter(1, [this, e = epoch] {
            if (epoch == e)
                syncResume(0);
        });
    });
}

void
BulkProcessor::execIo()
{
    // Uncached operations wait for every chunk to commit, execute
    // non-speculatively, then a fresh chunk starts (Section 4.1.3).
    if (!chunks.empty() && !chunks.back()->endReached) {
        chunks.back()->endReached = true;
        maybeArbitrate();
    }
    ioPoll();
}

void
BulkProcessor::ioPoll()
{
    const std::uint64_t e = epoch;
    if (chunks.empty() && committingCount == 0) {
        eventq.scheduleAfter(prm.ioLatency, [this, e] {
            if (epoch == e)
                syncResume(0);
        });
        return;
    }
    maybeArbitrate();
    eventq.scheduleAfter(10, [this, e] {
        if (epoch == e)
            ioPoll();
    });
}

} // namespace bulksc
