#include "cpu/tso_processor.hh"

namespace bulksc {

TsoProcessor::TsoProcessor(EventQueue &eq, const std::string &name,
                           ProcId pid, MemorySystem &mem,
                           const Trace &trace, const CpuParams &params)
    : ProcessorBase(eq, name, pid, mem, trace, params)
{}

void
TsoProcessor::drainStores()
{
    if (drainInFlight || storeBuffer.empty())
        return;
    drainInFlight = true;
    std::size_t idx = storeBuffer.front();
    const Op &op = trace.ops[idx];
    auto fin = [this, idx] {
        const Op &o = trace.ops[idx];
        if (o.tracked)
            mem.writeValue(o.addr, o.storeValue);
        ++nDrained;
        storeBuffer.pop_front();
        drainInFlight = false;
        drainStores();
        advance(); // the front end may have stalled on a full buffer
    };
    auto lat = mem.access(pid, op.addr, MemCmd::ReadEx, fin);
    if (lat)
        eventq.scheduleAfter(*lat, fin);
}

void
TsoProcessor::completeOp(const Op &op)
{
    nRetired += op.gap + 1;
    ++pos;
    gapCharged = false;
}

void
TsoProcessor::advance()
{
    if (busy || syncBusy)
        return;
    while (true) {
        if (pos >= trace.ops.size()) {
            if (storeBuffer.empty() && !drainInFlight)
                markFinished();
            return;
        }
        issuePrefetches();

        const Op &op = trace.ops[pos];
        if (!gapCharged) {
            fetchAvail = fetchAdvance(op.gap + 1);
            gapCharged = true;
        }

        Tick start = curTick();
        if (fetchAvail > start)
            start = fetchAvail;

        if (op.type == OpType::Store) {
            // Stores retire into the store buffer; visibility waits
            // for ownership, in order, off the critical path.
            if (storeBuffer.size() >= kStoreBufferEntries)
                return; // drainStores() re-calls advance()
            if (start > curTick() + prm.batchWindow) {
                scheduleAdvance(start);
                return;
            }
            storeBuffer.push_back(pos);
            drainStores();
            completeOp(op);
            continue;
        }

        if (performTick > start)
            start = performTick;
        if (start > curTick() + prm.batchWindow) {
            scheduleAdvance(start);
            return;
        }

        if (op.type != OpType::Load) {
            // Synchronization: drain the store buffer first (x86-like
            // atomics and fences flush the buffer), then execute.
            if (!storeBuffer.empty() || drainInFlight)
                return; // woken by drainStores()
            if (start > curTick()) {
                scheduleAdvance(start);
                return;
            }
            execSync(op);
            return;
        }

        // Loads perform in order among themselves; a load may bypass
        // (and forward from) the store buffer.
        for (auto it = storeBuffer.rbegin(); it != storeBuffer.rend();
             ++it) {
            const Op &st = trace.ops[*it];
            if (st.addr == op.addr) {
                if (op.aux != kNoSlot)
                    recordLoad(op, st.storeValue);
                performTick = start + 1; // forwarded from the buffer
                completeOp(op);
                goto next_op;
            }
        }
        {
            auto lat = mem.access(pid, op.addr, MemCmd::Read, [this] {
                busy = false;
                performTick = curTick() + 1;
                const Op &o = trace.ops[pos];
                if (o.aux != kNoSlot)
                    recordLoad(o, mem.readValue(o.addr));
                completeOp(o);
                advance();
            });
            if (!lat) {
                busy = true;
                return;
            }
            performTick = start + *lat;
            if (op.aux != kNoSlot)
                recordLoad(op, mem.readValue(op.addr));
            completeOp(op);
        }
      next_op:;
    }
}

void
TsoProcessor::syncDone()
{
    performTick = curTick();
    completeOp(trace.ops[pos]);
    advance();
}

} // namespace bulksc
