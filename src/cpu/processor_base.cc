#include "cpu/processor_base.hh"

#include "sim/event_trace.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bulksc {

ProcessorBase::ProcessorBase(EventQueue &eq, const std::string &name,
                             ProcId pid_, MemorySystem &mem_,
                             const Trace &trace_, const CpuParams &params)
    : SimObject(eq, name), pid(pid_), mem(mem_), trace(trace_),
      prm(params)
{
    panic_if(trace.cum.size() != trace.ops.size() + 1,
             "trace not finalized");
    results.assign(trace.numSlots, 0);
    mem.setListener(pid, this);
}

void
ProcessorBase::start()
{
    scheduleAdvance(curTick());
}

void
ProcessorBase::scheduleAdvance(Tick when)
{
    if (when < curTick())
        when = curTick();
    if (advancePending && advanceAt <= when)
        return;
    advancePending = true;
    advanceAt = when;
    eventq.schedule(when, [this, when] {
        if (advancePending && advanceAt == when)
            advancePending = false;
        if (!finishedFlag)
            advance();
    });
}

Tick
ProcessorBase::fetchAdvance(std::uint32_t instrs)
{
    if (fetchTick < curTick())
        fetchTick = curTick();
    std::uint64_t total = instrs + fetchCarry;
    fetchTick += total / prm.issueWidth;
    fetchCarry = static_cast<std::uint32_t>(total % prm.issueWidth);
    return fetchTick;
}

void
ProcessorBase::markFinished()
{
    if (finishedFlag)
        return;
    finishedFlag = true;
    finishTick_ = curTick() > fetchTick ? curTick() : fetchTick;
    if (onFinished)
        onFinished();
}

void
ProcessorBase::chargeInstrs(unsigned n)
{
    nSpin += n;
    nRetired += n;
    fetchAdvance(n);
}

void
ProcessorBase::syncLoad(Addr addr)
{
    auto fin = [this, addr, e = epoch] {
        std::uint64_t v = mem.readValue(addr);
        if (epoch == e)
            syncResume(v);
    };
    if (auto lat = mem.access(pid, addr, MemCmd::Read, fin))
        eventq.scheduleAfter(*lat, fin);
}

void
ProcessorBase::syncStore(Addr addr, std::uint64_t value)
{
    // The write lands even if a squash came in between: the baselines
    // perform sync stores non-speculatively.
    auto fin = [this, addr, value, e = epoch] {
        mem.writeValue(addr, value);
        if (epoch == e)
            syncResume(0);
    };
    if (auto lat = mem.access(pid, addr, MemCmd::ReadEx, fin))
        eventq.scheduleAfter(*lat, fin);
}

void
ProcessorBase::syncRmw(Addr addr, RmwOp op)
{
    auto fin = [this, addr, op, e = epoch] {
        std::uint64_t old = mem.readValue(addr);
        std::uint64_t next = applyRmw(op, old);
        if (next != old)
            mem.writeValue(addr, next);
        if (epoch == e)
            syncResume(old);
    };
    if (auto lat = mem.access(pid, addr, MemCmd::ReadEx, fin))
        eventq.scheduleAfter(*lat, fin);
}

void
ProcessorBase::execIo()
{
    eventq.scheduleAfter(prm.ioLatency, [this, e = epoch] {
        if (epoch == e)
            syncResume(0);
    });
}

void
ProcessorBase::execSync(const Op &op)
{
    panic_if(syncBusy, name(), ": a second sync op started");
    syncBusy = true;
    // Centralized barrier: count word at op.addr, generation word one
    // line above; barrier b publishes (and waits for) generation b+1,
    // which keeps the publish idempotent under chunk re-execution.
    sync = {op.type, op.addr, op.aux + 1, 0, 0};
    switch (op.type) {
      case OpType::Acquire:
      case OpType::BarrierWait:
        syncPoll();
        return;
      case OpType::Release:
        syncStore(op.addr, 0);
        return;
      case OpType::BarrierArrive:
        syncRmw(op.addr, RmwOp::Increment);
        return;
      case OpType::Io:
        execIo();
        return;
      case OpType::TxBegin:
      case OpType::TxEnd:
        // Baselines have no transactional support: the markers are
        // no-ops (the BulkSC models intercept them before execSync
        // and align chunk boundaries to them).
        syncResume(0);
        return;
      default:
        panic("execSync called with non-sync op");
    }
}

void
ProcessorBase::syncPoll()
{
    // Test-and-set with exponential backoff; atomicity comes from the
    // model's syncRmw primitive.
    if (sync.kind == OpType::Acquire)
        syncRmw(sync.addr, RmwOp::TestAndSet);
    else
        syncLoad(sync.addr + prm.lineBytes);
}

void
ProcessorBase::spinAgain(Tick delay)
{
    const std::uint64_t e = epoch;
    chargeInstrs(prm.spinLoopInstrs);
    eventq.scheduleAfter(delay, [this, e] {
        if (epoch == e)
            syncPoll();
    });
}

void
ProcessorBase::syncResume(std::uint64_t v)
{
    panic_if(!syncBusy, name(), ": sync step with no sync op in flight");
    switch (sync.kind) {
      case OpType::Acquire:
        if (v != 0) {
            ++sync.attempts;
            spinAgain(prm.spinPoll *
                      (sync.attempts < 8 ? sync.attempts : 8));
            return;
        }
        break;
      case OpType::BarrierWait:
        if (v < sync.want) {
            spinAgain(prm.spinPoll);
            return;
        }
        break;
      case OpType::BarrierArrive:
        // The last arriver resets the count, then publishes the
        // generation.
        if (sync.step == 0) {
            EVENT_TRACE(TraceEventType::BarrierArrive, curTick(),
                        trackProc(pid), 0, v + 1, 0,
                        static_cast<std::uint32_t>(sync.want - 1));
            if (v + 1 != prm.numBarrierProcs)
                break;
            sync.step = 1;
            syncStore(sync.addr, 0);
            return;
        }
        if (sync.step == 1) {
            sync.step = 2;
            syncStore(sync.addr + prm.lineBytes, sync.want);
            return;
        }
        break;
      default:
        break; // Release, Io and the transaction markers: one step
    }
    syncBusy = false;
    syncDone();
}

std::uint64_t
ProcessorBase::fingerprint() const
{
    std::uint64_t h = mix64(0x435055ULL); // "CPU"
    h = mix64(h ^ pid);
    h = mix64(h ^ pos);
    h = mix64(h ^ (std::uint64_t{finishedFlag} << 1));
    for (std::uint64_t v : results)
        h = mix64(h ^ v);
    return h;
}

} // namespace bulksc
