/**
 * @file
 * The distributed arbiter of Section 4.2.3: the arbiter is split into
 * multiple modules, each managing an address range (interleaved by
 * line, matching the directory modules). A chunk that accessed a
 * single range arbitrates with that module alone; a chunk spanning
 * ranges goes through the Global Arbiter (G-arbiter), which forwards
 * the signatures to the involved modules, collects their votes, and
 * combines them. The G-arbiter also caches the W signatures of its own
 * in-flight transactions to deny colliding requests early.
 */

#ifndef BULKSC_CORE_DISTRIBUTED_ARBITER_HH
#define BULKSC_CORE_DISTRIBUTED_ARBITER_HH

#include <deque>
#include <memory>
#include <vector>

#include "core/arbiter.hh"

namespace bulksc {

/** Distributed arbiter: per-range modules plus a G-arbiter. */
class DistributedArbiter : public SimObject, public ArbiterIface
{
  public:
    /**
     * @param first_node Network node of module 0; module i lives at
     *        first_node + i and the G-arbiter at first_node + count.
     * @param count Number of arbiter modules (address ranges).
     */
    DistributedArbiter(EventQueue &eq, ReliableChannel &chan,
                       NodeId first_node, unsigned count,
                       Tick processing, bool rsig_opt);

    /**
     * The processor-facing requests and decisions travel through the
     * reliable channel; the internal module fan-out and votes go
     * straight to the network (they model on-chip wiring of one
     * logical arbiter). arb.skip_collision is not supported here
     * (MachineConfig::validate rejects it with numArbiters > 1).
     */
    void requestCommit(ProcId p, std::shared_ptr<Signature> w,
                       RProvider r_provider,
                       ReliableChannel::ReplyPort reply) override;

    void commitDone(const std::shared_ptr<Signature> &w) override;

    void preArbitrate(ProcId p, std::function<void()> granted) override;

    const ArbiterStats &stats() const override { return stats_; }

    std::uint64_t fingerprint() const override;

    /** Commits that involved a single arbiter module. */
    std::uint64_t singleRangeCommits() const { return nSingle; }

    /** Commits that required the G-arbiter. */
    std::uint64_t multiRangeCommits() const { return nMulti; }

  private:
    struct Module
    {
        std::vector<std::shared_ptr<Signature>> wList;
    };

    unsigned rangeOf(LineAddr line) const;

    /** Ranges touched by a signature's (exact) line set. */
    std::vector<unsigned> rangesOf(const Signature &s) const;

    bool moduleCollides(unsigned m, const Signature &s) const;

    void removeFrom(std::vector<std::shared_ptr<Signature>> &list,
                    const std::shared_ptr<Signature> &w);

    /** Count and send the decision on chunk W @p w. */
    void finishDecision(const ReliableChannel::ReplyPort &reply, bool ok,
                        NodeId from, std::shared_ptr<Signature> w);

    void touchStats();
    void tryActivatePreArb();

    ReliableChannel &chan;
    Network &net;
    NodeId firstNode;
    Tick processing;
    bool rsigOpt;

    std::vector<Module> modules;
    std::vector<std::shared_ptr<Signature>> gList;

    /** Tick each accepted W entered the arbiter (occupancy). Entries
     *  are created only at the final accept points — the single-range
     *  list push and the G-arbiter list push — never for the tentative
     *  module reservations of a multi-range transaction, which can
     *  still roll back. */
    std::unordered_map<const Signature *, Tick> wInsertTick;

    unsigned activeTxns = 0;

    ProcId preArbOwner = ~ProcId{0};
    std::deque<std::pair<ProcId, std::function<void()>>> preArbQueue;

    ArbiterStats stats_;
    Tick lastTouch = 0;
    std::uint64_t nSingle = 0;
    std::uint64_t nMulti = 0;
};

} // namespace bulksc

#endif // BULKSC_CORE_DISTRIBUTED_ARBITER_HH
