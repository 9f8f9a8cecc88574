/**
 * @file
 * Systematic schedule explorer: model-check the BulkSC machine by
 * enumerating message orderings and delivery delays.
 *
 *   bulksc_explore --litmus sb [options]
 *
 * Each schedule is one full simulation driven by a forced decision
 * prefix; the explorer branches on every same-tick delivery ordering
 * (and, with --explore-delay N, every delivery latency in [0,N]),
 * prunes commuting alternatives with signature-based partial-order
 * reduction, and judges every run with the axiomatic SC checker, the
 * race detector, the litmus outcome predicate, and the watchdog.
 *
 *   --explore-schedules N  schedule budget (default 1000)
 *   --explore-delay N      delivery delays in [0,N] become choices
 *   --faults SPEC          inject faults (e.g. arb.skip_collision=1)
 *   --schedule FILE        replay one recorded schedule, no search
 *   --schedule-out FILE    write the minimized counterexample
 *   --results-out FILE     one JSON object per explored schedule
 *
 * Exit codes match bulksc_sim: 0 clean, 2 incomplete, 3 SC/litmus
 * violation, 4 race, 10 livelock, 11 starvation, 12 deadlock.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "explore/explorer.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "system/sim_options.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"
#include "workload/trace_io.hh"

using namespace bulksc;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s [options]\n", argv0);
    OptionRegistry::instance().printUsage(stderr,
                                          OptionGroup::Explore);
    std::exit(1);
}

int
verdictExitCode(ExploreVerdict v)
{
    switch (v) {
      case ExploreVerdict::OK:
        return 0;
      case ExploreVerdict::ScViolation:
      case ExploreVerdict::LitmusForbidden:
        return 3;
      case ExploreVerdict::Race:
        return 4;
      case ExploreVerdict::Livelock:
        return 10;
      case ExploreVerdict::Starvation:
        return 11;
      case ExploreVerdict::Deadlock:
        return 12;
      case ExploreVerdict::Incomplete:
        return 2;
    }
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--help") ||
            !std::strcmp(argv[i], "-h")) {
            usage(argv[0]);
        }
    }

    SimOptions opts;
    const OptionRegistry &reg = OptionRegistry::instance();
    std::string err;
    if (!reg.parse(argc - 1, argv + 1, opts, OptionGroup::Explore,
                   err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        usage(argv[0]);
    }

    if (!opts.cfg.validate(err)) {
        std::fprintf(stderr, "%s: invalid configuration: %s\n",
                     argv[0], err.c_str());
        return 1;
    }

    if (opts.dumpConfig) {
        reg.dumpConfigJson(stdout, opts);
        return 0;
    }

    ExploreConfig ec;
    ec.machine = opts.cfg;
    if (opts.explore.delayChoices > 0) {
        // Turn every delivery latency into an explored choice by
        // installing an always-on delay window; with a controller
        // attached the window is a choice domain, not a random roll.
        std::string item = "net.delay=0:" +
                           std::to_string(opts.explore.delayChoices);
        ec.machine.faults += ec.machine.faults.empty() ? item
                                                       : "," + item;
    }

    if (!opts.litmus.empty()) {
        ec.litmusName = opts.litmus;
        ec.litmusVariant = static_cast<unsigned>(opts.seedSalt);
    } else if (!opts.loadTraces.empty()) {
        ec.traces = loadTraces(opts.loadTraces);
        if (ec.traces.empty())
            return 1;
        ec.machine.numProcs =
            static_cast<unsigned>(ec.traces.size());
    } else {
        AppProfile app = profileByName(opts.app);
        ec.traces = generateTraces(app, ec.machine.numProcs,
                                   opts.instrs, opts.seedSalt);
    }

    if (opts.checks.any()) {
        ec.checkAxiomatic = opts.checks.axiomatic;
        ec.checkRace = opts.checks.race;
        ec.checkReplay = opts.checks.replay;
    }

    ec.por = opts.explore.por;
    ec.fpPrune = opts.explore.fpPrune;
    ec.bfs = opts.explore.bfs;
    ec.jobs = static_cast<unsigned>(opts.explore.jobs);
    ec.maxSchedules = opts.explore.maxSchedules;
    ec.maxDecisions =
        static_cast<std::uint32_t>(opts.explore.maxDecisions);
    ec.tickLimit = opts.explore.tickLimit;
    ec.wallLimitMs = opts.explore.wallMs;
    ec.stopAtFirst = opts.explore.stopAtFirst;
    ec.minimize = opts.explore.minimize;

    Explorer ex(std::move(ec));

    // --schedule FILE: replay exactly one recorded schedule.
    if (!opts.explore.schedule.empty()) {
        Schedule s;
        if (!s.load(opts.explore.schedule, err)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
            return 1;
        }
        RunOutcome out = ex.runOne(s);
        if (out.mismatches) {
            std::fprintf(stderr,
                         "warning: %llu forced choices did not match "
                         "the decisions reached (stale schedule?)\n",
                         static_cast<unsigned long long>(
                             out.mismatches));
        }
        if (!opts.explore.scheduleOut.empty()) {
            Schedule rec;
            rec.choices.reserve(out.trace.size());
            for (const DecisionRecord &d : out.trace)
                rec.choices.push_back(d.choice());
            if (!rec.save(opts.explore.scheduleOut)) {
                std::fprintf(stderr,
                             "error: cannot write schedule to %s\n",
                             opts.explore.scheduleOut.c_str());
                return 1;
            }
        }
        if (opts.jsonOut) {
            std::printf("{\n  \"mode\": \"replay\",\n"
                        "  \"verdict\": \"%s\",\n"
                        "  \"decisions\": %zu,\n"
                        "  \"mismatches\": %llu,\n"
                        "  \"exec_time\": %llu",
                        exploreVerdictName(out.verdict),
                        out.trace.size(),
                        static_cast<unsigned long long>(
                            out.mismatches),
                        static_cast<unsigned long long>(
                            out.execTime));
            if (!out.detail.empty())
                std::printf(",\n  \"detail\": \"%s\"",
                            jsonEscape(out.detail).c_str());
            std::printf("\n}\n");
        } else {
            std::printf("replay %s: %s (%zu decisions, exec_time=%llu"
                        ")\n",
                        opts.explore.schedule.c_str(),
                        exploreVerdictName(out.verdict),
                        out.trace.size(),
                        static_cast<unsigned long long>(
                            out.execTime));
            if (!out.detail.empty())
                std::printf("  %s\n", out.detail.c_str());
        }
        return verdictExitCode(out.verdict);
    }

    std::FILE *results = nullptr;
    if (!opts.explore.resultsOut.empty()) {
        results = std::fopen(opts.explore.resultsOut.c_str(), "w");
        if (!results) {
            std::fprintf(stderr, "error: cannot open %s\n",
                         opts.explore.resultsOut.c_str());
            return 1;
        }
        ex.onSchedule = [results](std::uint64_t idx,
                                  const Schedule &pfx,
                                  const RunOutcome &out) {
            std::fprintf(results,
                         "{\"schedule\": %llu, \"prefix_len\": %zu, "
                         "\"decisions\": %zu, \"verdict\": \"%s\", "
                         "\"exec_time\": %llu}\n",
                         static_cast<unsigned long long>(idx),
                         pfx.size(), out.trace.size(),
                         exploreVerdictName(out.verdict),
                         static_cast<unsigned long long>(
                             out.execTime));
        };
    }

    ExploreResult r = ex.explore();
    if (results)
        std::fclose(results);

    if (r.found && !opts.explore.scheduleOut.empty()) {
        if (!r.counterexample.save(opts.explore.scheduleOut)) {
            std::fprintf(stderr,
                         "error: cannot write schedule to %s\n",
                         opts.explore.scheduleOut.c_str());
            return 1;
        }
    }

    if (opts.jsonOut) {
        std::printf("{\n  \"mode\": \"explore\",\n"
                    "  \"schedules\": %llu,\n"
                    "  \"decisions\": %llu,\n"
                    "  \"pruned_por\": %llu,\n"
                    "  \"pruned_fingerprint\": %llu,\n"
                    "  \"frontier_peak\": %llu,\n"
                    "  \"violations\": %llu,\n"
                    "  \"exhaustive\": %s,\n"
                    "  \"budget_exhausted\": %s,\n"
                    "  \"wall_ms\": %.1f,\n"
                    "  \"verdict\": \"%s\"",
                    static_cast<unsigned long long>(r.schedulesRun),
                    static_cast<unsigned long long>(r.decisionsTotal),
                    static_cast<unsigned long long>(r.prunedPor),
                    static_cast<unsigned long long>(
                        r.prunedFingerprint),
                    static_cast<unsigned long long>(r.frontierPeak),
                    static_cast<unsigned long long>(r.violations),
                    r.exhaustive ? "true" : "false",
                    r.budgetExhausted ? "true" : "false", r.wallMs,
                    exploreVerdictName(r.verdict));
        if (r.found) {
            std::printf(",\n  \"counterexample_len\": %zu,\n"
                        "  \"minimized_prefix_len\": %zu,\n"
                        "  \"minimize_runs\": %llu",
                        r.counterexample.size(),
                        r.minimizedPrefixLen,
                        static_cast<unsigned long long>(
                            r.minimizeRuns));
            if (!r.detail.empty())
                std::printf(",\n  \"detail\": \"%s\"",
                            jsonEscape(r.detail).c_str());
        }
        std::printf("\n}\n");
    } else {
        std::printf("explored %llu schedules (%llu decisions, "
                    "frontier peak %llu) in %.1f ms\n",
                    static_cast<unsigned long long>(r.schedulesRun),
                    static_cast<unsigned long long>(r.decisionsTotal),
                    static_cast<unsigned long long>(r.frontierPeak),
                    r.wallMs);
        std::printf("pruned: %llu by POR, %llu by fingerprint%s\n",
                    static_cast<unsigned long long>(r.prunedPor),
                    static_cast<unsigned long long>(
                        r.prunedFingerprint),
                    r.exhaustive        ? " (tree exhausted)"
                    : r.budgetExhausted ? " (budget exhausted)"
                                        : "");
        if (r.found) {
            std::printf("VIOLATION: %s after %llu schedules\n",
                        exploreVerdictName(r.verdict),
                        static_cast<unsigned long long>(
                            r.schedulesRun));
            if (!r.detail.empty())
                std::printf("  %s\n", r.detail.c_str());
            std::printf("counterexample: %zu decisions (minimal "
                        "forced prefix %zu, %llu minimization "
                        "runs)%s%s\n",
                        r.counterexample.size(), r.minimizedPrefixLen,
                        static_cast<unsigned long long>(
                            r.minimizeRuns),
                        opts.explore.scheduleOut.empty() ? ""
                                                         : " -> ",
                        opts.explore.scheduleOut.c_str());
        } else {
            std::printf("no violation found (%llu violations "
                        "total)\n",
                        static_cast<unsigned long long>(
                            r.violations));
        }
    }

    return r.found ? verdictExitCode(r.verdict) : 0;
}
