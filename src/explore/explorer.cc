#include "explore/explorer.hh"

#include <chrono>
#include <deque>
#include <thread>
#include <unordered_set>

#include "analysis/analysis_engine.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "system/system.hh"

namespace bulksc {

const char *
exploreVerdictName(ExploreVerdict v)
{
    switch (v) {
      case ExploreVerdict::OK:
        return "ok";
      case ExploreVerdict::ScViolation:
        return "sc-violation";
      case ExploreVerdict::Race:
        return "race";
      case ExploreVerdict::LitmusForbidden:
        return "litmus-forbidden";
      case ExploreVerdict::Deadlock:
        return "deadlock";
      case ExploreVerdict::Livelock:
        return "livelock";
      case ExploreVerdict::Starvation:
        return "starvation";
      case ExploreVerdict::Incomplete:
        return "incomplete";
    }
    return "?";
}

Explorer::Explorer(ExploreConfig cfg) : ecfg(std::move(cfg))
{
    if (!ecfg.litmusName.empty()) {
        LitmusTest lt;
        fatal_if(!litmusByName(ecfg.litmusName, ecfg.litmusVariant, lt),
                 "unknown litmus test '", ecfg.litmusName,
                 "' (known: ", litmusNames(), ")");
        litmusAllowed = lt.allowedSC;
        ecfg.machine.numProcs =
            static_cast<unsigned>(lt.traces.size());
    } else {
        fatal_if(ecfg.traces.empty(),
                 "exploration needs a litmus test or traces");
    }
    if (ecfg.jobs == 0)
        ecfg.jobs = 1;
}

std::vector<Trace>
Explorer::makeTraces() const
{
    if (!ecfg.litmusName.empty()) {
        LitmusTest lt;
        litmusByName(ecfg.litmusName, ecfg.litmusVariant, lt);
        return std::move(lt.traces);
    }
    return ecfg.traces;
}

RunOutcome
Explorer::runOne(const Schedule &prefix) const
{
    RunOutcome out;

    // The controller must outlive the System: queued events still
    // hold tags when the queue is torn down mid-run (tick limit).
    RunController ctrl(prefix, ecfg.por);

    System sys(ecfg.machine, makeTraces());
    ctrl.setFingerprintFn([&sys] { return sys.stateFingerprint(); });
    sys.setScheduleController(&ctrl);
    if (ecfg.checkAxiomatic || ecfg.checkRace || ecfg.checkReplay) {
        sys.enableAnalysis(ecfg.checkAxiomatic, ecfg.checkRace,
                           ecfg.checkReplay);
    }

    Results res = sys.run(ecfg.tickLimit);

    out.execTime = res.execTime;
    out.trace = ctrl.trace();
    out.mismatches = ctrl.mismatches();

    const AnalysisEngine *eng = sys.analysis();
    if (eng && !eng->scOk()) {
        out.verdict = ExploreVerdict::ScViolation;
        if (eng->graph() && !eng->graph()->violations().empty()) {
            out.detail = eng->graph()->describe(
                eng->graph()->violations().front());
        } else if (eng->replay() && !eng->replay()->errors().empty()) {
            out.detail = eng->replay()->errors().front();
        }
        return out;
    }
    if (eng && eng->raceCount() > 0) {
        out.verdict = ExploreVerdict::Race;
        if (eng->races() && !eng->races()->reports().empty()) {
            out.detail = eng->races()->describe(
                eng->races()->reports().front());
        }
        return out;
    }
    if (litmusAllowed && res.completed &&
        !litmusAllowed(res.loadResults)) {
        out.verdict = ExploreVerdict::LitmusForbidden;
        out.detail = "litmus outcome forbidden under SC";
        return out;
    }
    switch (res.watchdogVerdict) {
      case WatchdogVerdict::Deadlock:
        out.verdict = ExploreVerdict::Deadlock;
        break;
      case WatchdogVerdict::Livelock:
        out.verdict = ExploreVerdict::Livelock;
        break;
      case WatchdogVerdict::Starvation:
        out.verdict = ExploreVerdict::Starvation;
        break;
      default:
        break;
    }
    if (out.verdict != ExploreVerdict::OK) {
        out.detail = res.watchdogReport;
        return out;
    }
    if (!res.completed) {
        out.verdict = ExploreVerdict::Incomplete;
        out.detail = "tick limit reached before completion";
    }
    return out;
}

void
Explorer::minimizeCounterexample(const Schedule &full,
                                 ExploreVerdict target,
                                 ExploreResult &r) const
{
    // Linear upward search for the shortest forced prefix that still
    // reproduces the verdict; len == full.size() replays the found
    // run exactly, so the loop always terminates with a hit.
    for (std::size_t len = 0; len <= full.size(); ++len) {
        RunOutcome out = runOne(full.prefix(len));
        ++r.minimizeRuns;
        if (out.verdict == target) {
            r.minimizedPrefixLen = len;
            Schedule s;
            s.choices.reserve(out.trace.size());
            for (const DecisionRecord &d : out.trace)
                s.choices.push_back(d.choice());
            r.counterexample = std::move(s);
            return;
        }
    }
    r.minimizedPrefixLen = full.size();
    r.counterexample = full;
}

ExploreResult
Explorer::explore()
{
    ExploreResult r;
    auto t0 = std::chrono::steady_clock::now();
    auto wallMs = [&t0] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    std::deque<Schedule> frontier;
    frontier.emplace_back();
    std::unordered_set<std::uint64_t> visited;

    std::vector<Schedule> batch;
    std::vector<RunOutcome> outs;

    while (!frontier.empty()) {
        if (r.schedulesRun >= ecfg.maxSchedules ||
            (ecfg.wallLimitMs && wallMs() >= ecfg.wallLimitMs)) {
            r.budgetExhausted = true;
            break;
        }
        if (frontier.size() > r.frontierPeak)
            r.frontierPeak = frontier.size();

        std::size_t want = ecfg.jobs;
        if (want > frontier.size())
            want = frontier.size();
        std::uint64_t left = ecfg.maxSchedules - r.schedulesRun;
        if (want > left)
            want = static_cast<std::size_t>(left);

        batch.clear();
        for (std::size_t k = 0; k < want; ++k) {
            if (ecfg.bfs) {
                batch.push_back(std::move(frontier.front()));
                frontier.pop_front();
            } else {
                batch.push_back(std::move(frontier.back()));
                frontier.pop_back();
            }
        }

        outs.assign(batch.size(), RunOutcome{});
        if (batch.size() == 1) {
            outs[0] = runOne(batch[0]);
        } else {
            std::vector<std::thread> pool;
            pool.reserve(batch.size());
            for (std::size_t k = 0; k < batch.size(); ++k) {
                pool.emplace_back([this, &batch, &outs, k] {
                    outs[k] = runOne(batch[k]);
                });
            }
            for (auto &t : pool)
                t.join();
        }

        // Expansion is strictly sequential in pop order: the
        // enumeration is identical for any jobs value.
        for (std::size_t k = 0; k < batch.size(); ++k) {
            const Schedule &pfx = batch[k];
            RunOutcome &out = outs[k];
            std::uint64_t idx = r.schedulesRun++;
            r.decisionsTotal += out.trace.size();
            if (onSchedule)
                onSchedule(idx, pfx, out);

            if (out.verdict != ExploreVerdict::OK) {
                ++r.violations;
                if (!r.found) {
                    r.found = true;
                    r.verdict = out.verdict;
                    r.detail = out.detail;
                    Schedule full;
                    full.choices.reserve(out.trace.size());
                    for (const DecisionRecord &d : out.trace)
                        full.choices.push_back(d.choice());
                    if (ecfg.minimize) {
                        minimizeCounterexample(full, out.verdict, r);
                    } else {
                        r.minimizedPrefixLen = full.size();
                        r.counterexample = std::move(full);
                    }
                    if (ecfg.stopAtFirst) {
                        r.wallMs = wallMs();
                        return r;
                    }
                }
                continue; // violating runs are not expanded
            }

            for (std::size_t i = pfx.size();
                 i < out.trace.size() && i < ecfg.maxDecisions; ++i) {
                const DecisionRecord &rec = out.trace[i];
                for (std::uint32_t a = 1;
                     a < rec.numOptions && a < 64; ++a) {
                    if (a == rec.chosen)
                        continue;
                    if (!((rec.allowedMask >> a) & 1)) {
                        ++r.prunedPor;
                        continue;
                    }
                    if (ecfg.fpPrune && rec.fingerprint) {
                        // Same machine state + same choice => same
                        // continuation, wherever it was reached from.
                        std::uint64_t key = mix64(
                            rec.fingerprint ^
                            mix64((std::uint64_t{a} << 8) ^
                                  static_cast<std::uint64_t>(
                                      rec.kind)));
                        if (!visited.insert(key).second) {
                            ++r.prunedFingerprint;
                            continue;
                        }
                    }
                    Schedule child;
                    child.choices.reserve(i + 1);
                    for (std::size_t j = 0; j < i; ++j)
                        child.choices.push_back(
                            out.trace[j].choice());
                    child.choices.push_back(
                        Choice{rec.kind, a, rec.numOptions});
                    frontier.push_back(std::move(child));
                }
            }
        }
    }

    r.exhaustive = frontier.empty() && !r.budgetExhausted;
    r.wallMs = wallMs();
    return r;
}

} // namespace bulksc
