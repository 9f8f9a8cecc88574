/**
 * @file
 * System assembly: wires processors, caches, directory, network, and
 * arbiter into a runnable machine for a given consistency model — the
 * library's primary public entry point.
 *
 * Typical use:
 * @code
 *   MachineConfig cfg;
 *   cfg.model = Model::BSCdypvt;
 *   auto traces = generateTraces(profileByName("ocean"), 8, 100000);
 *   System sys(cfg, std::move(traces));
 *   Results res = sys.run();
 * @endcode
 */

#ifndef BULKSC_SYSTEM_SYSTEM_HH
#define BULKSC_SYSTEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "analysis/analysis_engine.hh"
#include "core/arbiter.hh"
#include "core/bulk_processor.hh"
#include "cpu/processor_base.hh"
#include "mem/memory_system.hh"
#include "network/network.hh"
#include "sim/event_queue.hh"
#include "sim/fault_plane.hh"
#include "sim/stats.hh"
#include "system/machine_config.hh"
#include "system/watchdog.hh"

namespace bulksc {

/** Output of a simulation run. */
struct Results
{
    /** Parallel execution time: the last processor's finish tick. */
    Tick execTime = 0;

    /** True iff every processor completed within the run limit. */
    bool completed = false;

    /** What the forward-progress watchdog concluded (None when it is
     *  disabled or the run was healthy). */
    WatchdogVerdict watchdogVerdict = WatchdogVerdict::None;

    /** The watchdog's diagnostic report ("" unless it tripped):
     *  verdict, cause, and per-processor chunk state. */
    std::string watchdogReport;

    /** Aggregated statistics from every component. */
    StatGroup stats;

    /** Per-processor recorded load values (litmus tests). */
    std::vector<std::vector<std::uint64_t>> loadResults;
};

/**
 * A complete simulated machine.
 */
class System
{
  public:
    /**
     * Build a machine. @p cfg is resolved internally; the number of
     * processors is clamped to the number of traces.
     */
    System(MachineConfig cfg, std::vector<Trace> traces);

    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Run to completion (or until @p limit ticks).
     */
    Results run(Tick limit = kTickNever);

    /**
     * Attach the analysis engine (BulkSC models only): committed
     * chunks feed the axiomatic SC checker (po ∪ rf ∪ co ∪ fr
     * acyclicity), the happens-before race detector and/or the serial
     * value replay. The first two work on any workload; the replay
     * compares only value-tracked loads. Call before run(); results
     * land in stats ("analysis.*", "sc_verifier.*") and via
     * analysis().
     */
    void enableAnalysis(bool axiomatic = true, bool race = false,
                        bool replay = false);

    /** The attached analysis engine, or nullptr. */
    const AnalysisEngine *analysis() const { return engine.get(); }

    /**
     * Attach a schedule controller (exploration mode): the event
     * queue consults it for same-tick delivery ordering and the
     * network for message-delay choices. Call before run(), with the
     * event queue still empty. Pass nullptr to detach.
     */
    void setScheduleController(ScheduleController *c);

    /**
     * Digest of the machine's protocol state (processors, arbiter,
     * reliable channel, memory system) for explorer revisit pruning.
     * Timing state is deliberately excluded — see the component
     * fingerprints.
     */
    std::uint64_t stateFingerprint() const;

    // --- component access for tests and benches ---
    MemorySystem &memory() { return *memSys; }
    Network &network() { return *net; }
    ReliableChannel &channel() { return *chan; }
    Arbiter *arbiter() { return arb.get(); }
    const Watchdog *watchdog() const { return dog.get(); }
    ProcessorBase &processor(unsigned i) { return *procs.at(i); }
    const MachineConfig &config() const { return cfg; }
    EventQueue &eventQueue() { return eq; }
    unsigned numProcs() const
    {
        return static_cast<unsigned>(procs.size());
    }

  private:
    void collectStats(Results &res) const;

    MachineConfig cfg;
    std::vector<Trace> traces;

    EventQueue eq;
    FaultPlane faults;
    std::unique_ptr<Network> net;
    std::unique_ptr<ReliableChannel> chan;
    std::unique_ptr<MemorySystem> memSys;
    std::unique_ptr<Arbiter> arb;
    std::vector<std::unique_ptr<ProcessorBase>> procs;
    std::unique_ptr<Watchdog> dog;
    std::unique_ptr<AnalysisEngine> engine;
};

/**
 * Convenience: run one application profile under one model.
 *
 * @param model Consistency model.
 * @param profile Application profile.
 * @param num_procs Processors.
 * @param instrs_per_proc Dynamic instructions per processor.
 * @param cfg_in Optional base configuration to start from.
 */
Results runWorkload(Model model, const struct AppProfile &profile,
                    unsigned num_procs, std::uint64_t instrs_per_proc,
                    const MachineConfig *cfg_in = nullptr);

} // namespace bulksc

#endif // BULKSC_SYSTEM_SYSTEM_HH
