/**
 * @file
 * Ablation: distributed arbiter (Section 4.2.3).
 *
 * Compares the single (combined) arbiter against distributed arbiter
 * configurations with 2 and 4 address-range modules plus a G-arbiter.
 * With data locality most commits involve a single module; the table
 * reports the single/multi-range commit split and the performance and
 * traffic impact.
 */

#include "bench_util.hh"

using namespace bulksc;
using namespace bulksc::bench;

int
main()
{
    setQuiet(true);
    const std::uint64_t instrs = instrsFromEnv(40'000);
    const auto apps = appsFromEnv();
    const unsigned procs = 8;

    printHeader("Ablation: single vs distributed arbiter (BSCdypvt)");
    std::printf("%-12s %10s %10s %10s %12s %12s\n", "app", "1-arb",
                "2-arb", "4-arb", "multi%(2)", "multi%(4)");

    for (const AppProfile &app : apps) {
        Results one = runWorkload(Model::BSCdypvt, app, procs, instrs);

        double multi_pct[2] = {0, 0};
        Tick times[2] = {0, 0};
        for (int i = 0; i < 2; ++i) {
            unsigned n = i == 0 ? 2 : 4;
            MachineConfig cfg;
            cfg.numArbiters = n;
            cfg.mem.numDirectories = n;
            auto traces = generateTraces(app, procs, instrs);
            System sys(cfg, std::move(traces));
            Results r = sys.run();
            times[i] = r.execTime;
            const Arbiter &arb = *sys.arbiter();
            double total = static_cast<double>(arb.singleRangeCommits() +
                                               arb.multiRangeCommits());
            multi_pct[i] =
                total > 0 ? 100.0 *
                                static_cast<double>(
                                    arb.multiRangeCommits()) /
                                total
                          : 0;
        }

        double base = static_cast<double>(one.execTime);
        std::printf("%-12s %10.3f %10.3f %10.3f %11.1f%% %11.1f%%\n",
                    app.name.c_str(), 1.0,
                    base / static_cast<double>(times[0]),
                    base / static_cast<double>(times[1]),
                    multi_pct[0], multi_pct[1]);
    }
    std::printf("\n(speedups relative to the single-arbiter "
                "configuration)\n");
    return 0;
}
