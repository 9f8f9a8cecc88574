/**
 * @file
 * Exploration microbenchmark: schedules/second through the stateless
 * model checker, and the measured effectiveness of its two prunes.
 *
 *   micro_explore [--schedules N] [--delay N]
 *
 * Runs the 2-proc store-buffering exploration four ways — naive,
 * POR only, fingerprint only, both — on identical budgets and
 * reports schedule counts, pruned-alternative counts, and wall
 * clock. Exits non-zero if signature-POR fails to cut the schedule
 * count by at least 30% versus naive enumeration (the subsystem's
 * acceptance bar), so a regression in the independence relation
 * shows up here as well as in the unit tests.
 *
 * It also times System construction, which every explored schedule
 * pays once: microseconds per build of the sb litmus machine and of
 * ocean 8p BSCdypvt, best of several batches. The timing is reported
 * only; it has no gate.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "explore/explorer.hh"
#include "system/system.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"
#include "workload/litmus.hh"

using namespace bulksc;

namespace {

ExploreResult
run(bool por, bool fp, std::uint64_t budget, Tick delay)
{
    ExploreConfig ec;
    ec.litmusName = "sb";
    ec.machine.watchdog.enabled = true;
    if (delay)
        ec.machine.faults =
            "net.delay=0:" + std::to_string(delay);
    ec.por = por;
    ec.fpPrune = fp;
    ec.maxSchedules = budget;
    return Explorer(std::move(ec)).explore();
}

void
report(const char *label, const ExploreResult &r)
{
    std::printf("%-18s %6llu schedules  %6llu POR-pruned  "
                "%6llu fp-pruned  %8.1f ms  %s\n",
                label,
                static_cast<unsigned long long>(r.schedulesRun),
                static_cast<unsigned long long>(r.prunedPor),
                static_cast<unsigned long long>(r.prunedFingerprint),
                r.wallMs, r.exhaustive ? "exhaustive" : "budget");
}

/**
 * Microseconds per System construction with @p cfg and @p traces:
 * the best of @p batches batches of @p per_batch builds. As in an
 * explored schedule, each System is destroyed before the next is
 * built; only the constructor is timed, not the trace copy it is
 * handed or the teardown.
 */
double
buildUs(const MachineConfig &cfg, const std::vector<Trace> &traces,
        unsigned batches, unsigned per_batch)
{
    using Clock = std::chrono::steady_clock;
    double best = 0;
    for (unsigned b = 0; b < batches; ++b) {
        Clock::duration total{};
        for (unsigned i = 0; i < per_batch; ++i) {
            std::vector<Trace> in = traces;
            const auto t0 = Clock::now();
            System sys(cfg, std::move(in));
            total += Clock::now() - t0;
        }
        const double us =
            std::chrono::duration<double, std::micro>(total).count() /
            per_batch;
        best = b == 0 ? us : std::min(best, us);
    }
    return best;
}

void
reportBuildCost()
{
    // The explorer's sb machine: two processors, watchdog on.
    LitmusTest sb;
    litmusByName("sb", 0, sb);
    MachineConfig sb_cfg;
    sb_cfg.watchdog.enabled = true;
    sb_cfg.numProcs = static_cast<unsigned>(sb.traces.size());

    MachineConfig ocean_cfg; // BSCdypvt by default
    ocean_cfg.numProcs = 8;
    const std::vector<Trace> ocean =
        generateTraces(profileByName("ocean"), 8, 20000, 0);

    std::printf("System construction: sb %.1f us, ocean 8p BSCdypvt "
                "%.1f us per build\n",
                buildUs(sb_cfg, sb.traces, 5, 20),
                buildUs(ocean_cfg, ocean, 5, 10));
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t budget = 3000;
    Tick delay = 0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--schedules") && i + 1 < argc)
            budget = std::strtoull(argv[++i], nullptr, 10);
        else if (!std::strcmp(argv[i], "--delay") && i + 1 < argc)
            delay = std::strtoull(argv[++i], nullptr, 10);
        else {
            std::fprintf(stderr,
                         "usage: %s [--schedules N] [--delay N]\n",
                         argv[0]);
            return 1;
        }
    }

    ExploreResult naive = run(false, false, budget, delay);
    ExploreResult por = run(true, false, budget, delay);
    ExploreResult fp = run(false, true, budget, delay);
    ExploreResult both = run(true, true, budget, delay);

    std::printf("sb exploration, budget %llu%s:\n",
                static_cast<unsigned long long>(budget),
                delay ? " (+delay choices)" : "");
    report("naive", naive);
    report("POR", por);
    report("fingerprint", fp);
    report("POR+fingerprint", both);

    if (naive.exhaustive && por.exhaustive) {
        double cut = 1.0 - static_cast<double>(por.schedulesRun) /
                               static_cast<double>(
                                   naive.schedulesRun);
        std::printf("POR cut: %.0f%%\n", 100.0 * cut);
        if (cut < 0.30) {
            std::fprintf(stderr,
                         "FAIL: POR pruned %.0f%% < 30%%\n",
                         100.0 * cut);
            return 1;
        }
    }
    reportBuildCost();
    return 0;
}
