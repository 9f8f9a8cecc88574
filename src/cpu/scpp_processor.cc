#include "cpu/scpp_processor.hh"

namespace bulksc {

ScppProcessor::ScppProcessor(EventQueue &eq, const std::string &name,
                             ProcId pid, MemorySystem &mem,
                             const Trace &trace, const CpuParams &params,
                             unsigned shiq_entries)
    : RcProcessor(eq, name, pid, mem, trace, params),
      shiqEntries(shiq_entries)
{}

bool
ScppProcessor::windowFull() const
{
    if (RcProcessor::windowFull())
        return true;
    // Speculatively performed ops occupy SHiQ entries until every
    // older op completes; completed entries still in the window are
    // exactly that set (retire pops SC-safe heads immediately).
    if (window.completedCount() >= shiqEntries) {
        ++nShiqStalls;
        return true;
    }
    return false;
}

void
ScppProcessor::onExternalInval(LineAddr line)
{
    maybeSquash(line);
}

void
ScppProcessor::onLineDisplaced(LineAddr line, bool dirty)
{
    (void)dirty;
    // Unlike BulkSC, SC++ must also treat displacements of
    // speculatively accessed lines as potential violations, because
    // the SHiQ can no longer observe coherence events for them.
    maybeSquash(line);
}

void
ScppProcessor::maybeSquash(LineAddr line)
{
    // Completed ops still in the window performed while an older op
    // was incomplete — they are the speculative (SHiQ) set.
    for (std::size_t i = 0; i < window.size(); ++i) {
        const WinEntry &w = window[i];
        if (!w.completed || w.line != line)
            continue;

        // Violation: roll back to this op and re-execute.
        std::size_t target = w.opIdx;
        nWasted += trace.instrsBetween(target, pos);
        ++nSquashes;
        while (!window.empty() && window.back().opIdx >= target)
            window.pop_back();
        pos = target;
        ++epoch;
        syncBusy = false;
        gapCharged = false;
        scheduleAdvance(curTick() + prm.squashPenalty);
        return;
    }
}

} // namespace bulksc
