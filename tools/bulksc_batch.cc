/**
 * @file
 * Parallel parameter-sweep driver: runs the cross product of one or
 * more sweep axes over a base configuration, one fully-isolated
 * simulator instance per grid point, on a pool of worker threads, and
 * streams one JSONL record per point.
 *
 *   bulksc_batch --sweep chunk=500,1000,2000 --sweep procs=4,8 \
 *                -j 8 --out grid.jsonl [base options]
 *
 *   --sweep NAME=V1,V2,...  add a sweep axis (repeatable; NAME is any
 *                           config option, e.g. chunk, procs, model,
 *                           sig-bits; the last axis varies fastest)
 *   -j, --jobs N            worker threads              (default 1)
 *   --out FILE              JSONL output path       (default stdout)
 *   --progress              report completed points on stderr
 *
 * Base options are the shared registry (--config/--dump-config work
 * here too); per-point records are byte-identical for any -j, so grids
 * can be diffed across worker counts. Timing runs skip the signatures'
 * exact stats mirror by default — pass --exact-stats to collect
 * set-size/aliasing statistics and squash attribution.
 *
 * Exit status: 0 if every point completed, 1 on usage/config errors,
 * 2 if any point failed (its record carries an "error" field or
 * "completed": false).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "system/sim_options.hh"
#include "system/sweep_runner.hh"

using namespace bulksc;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--sweep NAME=V1,V2,...]... [-j N] "
                 "[--out FILE] [--progress]\n"
                 "          [base options]\n"
                 "batch options:\n"
                 "  --sweep NAME=LIST      add a sweep axis "
                 "(repeatable; cross product, last varies fastest)\n"
                 "  -j, --jobs N           worker threads "
                 "(default 1)\n"
                 "  --out FILE             JSONL output path "
                 "(default stdout)\n"
                 "  --progress             report completed points "
                 "on stderr\n",
                 argv0);
    OptionRegistry::instance().printUsage(stderr, OptionGroup::Batch);
    std::exit(1);
}

bool
parseAxis(const std::string &spec, SweepAxis &axis, std::string &err)
{
    std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
        err = "--sweep expects NAME=V1,V2,..., got '" + spec + "'";
        return false;
    }
    axis.name = spec.substr(0, eq);
    axis.values.clear();
    std::size_t pos = eq + 1;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string v = spec.substr(pos, comma - pos);
        if (!v.empty())
            axis.values.push_back(v);
        pos = comma + 1;
    }
    if (axis.values.empty()) {
        err = "--sweep " + axis.name + ": no values";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    std::vector<SweepAxis> axes;
    unsigned jobs = 1;
    std::string out_path;
    bool progress = false;
    std::vector<const char *> rest;
    std::string err;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            usage(argv[0]);
        } else if (!std::strcmp(a, "--sweep")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            SweepAxis axis;
            if (!parseAxis(argv[++i], axis, err)) {
                std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
                return 1;
            }
            axes.push_back(std::move(axis));
        } else if (!std::strcmp(a, "-j") || !std::strcmp(a, "--jobs")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
            if (jobs == 0)
                jobs = 1;
        } else if (!std::strncmp(a, "-j", 2) && a[2] != '\0') {
            jobs = static_cast<unsigned>(
                std::strtoul(a + 2, nullptr, 10));
            if (jobs == 0)
                jobs = 1;
        } else if (!std::strcmp(a, "--out")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            out_path = argv[++i];
        } else if (!std::strcmp(a, "--progress")) {
            progress = true;
        } else {
            rest.push_back(a);
        }
    }

    SimOptions opts;
    // A batch run is a timing sweep: skip the signatures' exact stats
    // mirror unless explicitly requested (--exact-stats), so the hot
    // path never maintains per-signature mirror sets. Forced back
    // on by resolve() where it is functional (BSCexact, multi-module
    // arbiters).
    opts.cfg.bulk.sigCfg.trackExact = false;

    const OptionRegistry &reg = OptionRegistry::instance();
    if (!reg.parse(static_cast<int>(rest.size()), rest.data(), opts,
                   OptionGroup::Batch, err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        usage(argv[0]);
    }

    if (opts.dumpConfig) {
        reg.dumpConfigJson(stdout, opts);
        return 0;
    }

    SweepRunner runner(std::move(opts), std::move(axes));
    if (!runner.validateGrid(err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        return 1;
    }

    std::FILE *out = stdout;
    if (!out_path.empty()) {
        out = std::fopen(out_path.c_str(), "w");
        if (!out) {
            std::fprintf(stderr, "%s: cannot open '%s' for writing\n",
                         argv[0], out_path.c_str());
            return 1;
        }
    }

    std::size_t failed = runner.run(jobs, out, progress);

    if (out != stdout)
        std::fclose(out);
    if (failed) {
        std::fprintf(stderr, "%zu/%zu points failed\n", failed,
                     runner.numPoints());
        return 2;
    }
    return 0;
}
