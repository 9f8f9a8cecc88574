/**
 * @file
 * The benchmark program. perfbench/run.py builds and runs it:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 [options]
 *
 * Workloads: app-ocean, fig9-grid, explore-litmus, app-faulted. Human
 * readable lines come first, each starting with "perfbench:"; the last
 * line is one JSON object with the keys correct, attempted, failed and
 * metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
 * per-layer metrics and writes the spans as Chrome trace JSON.
 *
 * Exit status: 0 when every check passed, 1 when a check failed (the
 * JSON line then says "correct": false), 2 on a usage error.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "sim/logging.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "  [--fault-seed N] [--litmus-variant N] [--trace-out FILE]\n"
                 "workloads: app-ocean fig9-grid explore-litmus "
                 "app-faulted\n",
                 msg);
    std::exit(2);
}

std::uint64_t
number(const char *flag, const char *v)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long x = std::strtoull(v, &end, 10);
    if (errno || !end || *end || *v == '-' || !*v)
        usage((std::string("bad value for ") + flag).c_str());
    return x;
}

Args
parse(int argc, char **argv)
{
    Args a;
    unsigned hw = std::thread::hardware_concurrency();
    a.jobs = std::min(4u, hw ? hw : 1u);
    for (int i = 1; i < argc; ++i) {
        std::string f = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + f).c_str());
        const char *v = argv[++i];
        if (f == "--workload")
            a.workload = v;
        else if (f == "--seed")
            a.seed = number(argv[i - 1], v);
        else if (f == "--seconds")
            a.seconds = static_cast<double>(number(argv[i - 1], v));
        else if (f == "--trace")
            a.trace = number(argv[i - 1], v) != 0;
        else if (f == "--fault-seed")
            a.faultSeed = number(argv[i - 1], v);
        else if (f == "--litmus-variant")
            a.litmusVariant = static_cast<unsigned>(number(argv[i - 1], v));
        else if (f == "--trace-out")
            a.traceOut = v;
        else
            usage(("unknown flag " + f).c_str());
    }
    if (a.seconds < 1)
        usage("--seconds must be at least 1");
    return a;
}

/** A finite number with all its digits. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bulksc::setQuiet(true);
    Args a = parse(argc, argv);

    const std::map<std::string, Report (*)(const Args &)> workloads = {
        {"app-ocean", runAppOcean},
        {"fig9-grid", runFig9Grid},
        {"explore-litmus", runExploreLitmus},
        {"app-faulted", runAppFaulted},
    };
    auto it = workloads.find(a.workload);
    if (it == workloads.end())
        usage(("unknown workload '" + a.workload + "'").c_str());

    Clock::time_point t0 = Clock::now();
    Report rep = it->second(a);
    double total = secondsBetween(t0, Clock::now());

    if (rep.attempted == 0)
        rep.problems.push_back("no op was attempted");
    if (a.trace && !a.traceOut.empty() &&
        !SpanRecorder::instance().writeChromeTrace(a.traceOut))
        rep.problems.push_back("cannot write " + a.traceOut);

    std::printf("perfbench: workload %s seed %llu trace %d: %llu ops "
                "attempted, %llu failed, %.1f s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.trace ? 1 : 0,
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), total);
    std::printf("perfbench: pass seconds");
    for (double w : rep.passWalls)
        std::printf(" %.4f", w);
    std::printf("\nperfbench: digest %016llx\n",
                static_cast<unsigned long long>(rep.digest));
    for (const std::string &f : rep.failures)
        std::printf("perfbench: failed %s\n", f.c_str());
    for (const std::string &p : rep.problems)
        std::printf("perfbench: CHECK FAILED %s\n", p.c_str());
    for (const Metric &m : rep.metrics)
        std::printf("perfbench: %-26s %16.6f %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
    if (a.trace && !a.traceOut.empty())
        std::printf("perfbench: spans written to %s\n",
                    a.traceOut.c_str());

    const bool correct = rep.problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
