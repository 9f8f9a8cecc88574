/**
 * @file
 * Regenerates the paper's evaluation (Section 7: Figures 9-11, Tables
 * 3-4, and the ablations its text discusses) in one run. Each table is
 * declared as its apps and its variants (one simulation point per app
 * and variant) plus the code that prints it. The points of every
 * selected table run on one pool of worker threads, and each table
 * prints once its last point is in, so the output does not depend on
 * the worker count.
 *
 *   paper_eval [-j N] [--only LIST] [--apps LIST] [options]
 *
 *   -j, --jobs N   worker threads                          (default 1)
 *   --only LIST    tables to run, in this order, comma-separated, from
 *                  fig9 fig10 table3 table4 fig11 rsig arbiter
 *                  signature scalability dircache overlap sync_boundary
 *                  (default: all of them, in that order)
 *   --apps LIST    apps, replacing every table's own app list
 *
 * The other options are the shared registry's. Every point starts from
 * them and sets only what its table varies. Without --instrs each
 * table uses its own length (60k, 40k or 30k instructions per
 * processor). The forward-progress watchdog is off unless --watchdog
 * is given.
 *
 * Exit status: 0 on success, 1 on usage or config errors, 2 if a point
 * did not run to completion.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "system/sweep_runner.hh"
#include "workload/app_profiles.hh"

using namespace bulksc;

namespace {

/** One app's results in a table, in variant order. */
struct Row
{
    std::string app;
    std::vector<Results> r;
};
using Rows = std::vector<Row>;

/** What one point of a table sets on top of the base options. */
struct Variant
{
    Model model;
    std::function<void(MachineConfig &)> tweak = nullptr;
};

/** One table of the evaluation. */
struct Table
{
    const char *name;              //!< its --only name
    std::uint64_t instrs;          //!< default instructions per processor
    std::vector<const char *> apps; //!< default apps (empty: all 13)
    std::vector<Variant> variants; //!< one point per app and variant
    void (*print)(const Rows &rows);
};

void
printHeader(const char *title)
{
    std::printf("\n=== %s ===\n", title);
}

double
execTime(const Results &r)
{
    return static_cast<double>(r.execTime);
}

/** Per app, point @p base's exec time over each of its points. */
std::vector<std::vector<double>>
speedupsOver(const Rows &rows, std::size_t base)
{
    std::vector<std::vector<double>> sp(rows.front().r.size());
    for (const Row &row : rows) {
        for (std::size_t i = 0; i < row.r.size(); ++i)
            sp[i].push_back(execTime(row.r[base]) / execTime(row.r[i]));
    }
    return sp;
}

/** Geometric mean of @p vals (one per row) over the SPLASH-2 apps. */
double
splash2GeoMean(const Rows &rows, const std::vector<double> &vals)
{
    std::vector<double> s;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (const auto &p : splash2Profiles()) {
            if (p.name == rows[i].app && vals[i] > 0) {
                s.push_back(vals[i]);
                break;
            }
        }
    }
    return geoMean(s);
}

const Model kFig9Models[] = {
    Model::SC,      Model::RC,       Model::SCpp,     Model::BSCbase,
    Model::BSCdypvt, Model::BSCexact, Model::BSCstpvt,
};

/**
 * Figure 9: performance of SC, RC, SC++, BSCbase, BSCdypvt, BSCexact
 * and BSCstpvt, normalized to RC, for the 11 SPLASH-2 applications,
 * their geometric mean, and the two commercial workloads.
 *
 * Expected shape (Section 7.2): SC clearly slower than RC; SC++ ~= RC;
 * BSCdypvt ~= RC except radix (signature aliasing); BSCbase below
 * BSCdypvt; BSCstpvt within a couple percent of BSCdypvt on SPLASH-2.
 */
void
printFig9(const Rows &rows)
{
    printHeader("Figure 9: speedup over RC");
    std::printf("%-12s", "app");
    for (Model m : kFig9Models)
        std::printf("%10s", modelName(m));
    std::printf("\n");
    const auto sp = speedupsOver(rows, 1);
    for (std::size_t a = 0; a < rows.size(); ++a) {
        std::printf("%-12s", rows[a].app.c_str());
        for (const auto &col : sp)
            std::printf("%10.3f", col[a]);
        std::printf("\n");
    }
    // SPLASH-2 geometric mean row (SP2-G.M. in the paper).
    std::printf("%-12s", "SP2-G.M.");
    for (const auto &col : sp)
        std::printf("%10.3f", splash2GeoMean(rows, col));
    std::printf("\n");
}

/**
 * Figure 10: BSCdypvt with chunks of 1000, 2000 and 4000 instructions,
 * plus 4000-exact (the alias-free signature), normalized to RC.
 *
 * Expected shape (Section 7.2): a few SPLASH-2 applications and the
 * commercial workloads degrade as the chunk grows, and 4000 vs
 * 4000-exact shows that most of it is signature aliasing rather than
 * real sharing.
 */
void
printFig10(const Rows &rows)
{
    printHeader("Figure 10: BSCdypvt speedup over RC vs chunk size");
    std::printf("%-12s%10s", "app", "RC");
    for (const char *label : {"1000", "2000", "4000", "4000-exact"})
        std::printf("%12s", label);
    std::printf("\n");
    const auto sp = speedupsOver(rows, 0);
    for (std::size_t a = 0; a < rows.size(); ++a) {
        std::printf("%-12s%10.3f", rows[a].app.c_str(), 1.0);
        for (std::size_t i = 1; i < sp.size(); ++i)
            std::printf("%12.3f", sp[i][a]);
        std::printf("\n");
    }
    std::printf("%-12s%10.3f", "SP2-G.M.", 1.0);
    for (std::size_t i = 1; i < sp.size(); ++i)
        std::printf("%12.3f", splash2GeoMean(rows, sp[i]));
    std::printf("\n");
}

/**
 * Table 3: squashed instructions under BSCexact / BSCdypvt / BSCbase;
 * average Read / Write / Priv-Write set sizes (lines); speculative line
 * displacements per 100k commits (write / read set); data supplied
 * from the Private Buffer and extra (aliased) invalidations per 1k
 * commits. All but the squash columns use BSCdypvt, as in the paper.
 */
void
printTable3(const Rows &rows)
{
    printHeader("Table 3: characterization of BulkSC");
    std::printf("%-12s |%8s%8s%8s |%7s%7s%7s |%9s%9s |%8s |%8s\n", "",
                "sq.ex%", "sq.dy%", "sq.ba%", "Read", "Write", "PrivW",
                "WrDsp", "RdDsp", "PBuf", "XInv");
    std::printf("%-12s |%24s |%21s |%18s |%8s |%8s\n", "app",
                "Squashed Instr (%)", "Avg Set Sizes", "/100k comm",
                "/1k com", "/1k com");
    for (const Row &row : rows) {
        const StatGroup &ex = row.r[0].stats;
        const StatGroup &dy = row.r[1].stats;
        const StatGroup &ba = row.r[2].stats;
        double commits = dy.get("bulk.commits");
        double per100k = commits > 0 ? 100000.0 / commits : 0;
        double per1k = commits > 0 ? 1000.0 / commits : 0;
        std::printf(
            "%-12s |%8.2f%8.2f%8.2f |%7.1f%7.2f%7.1f |%9.1f%9.1f "
            "|%8.1f |%8.1f\n",
            row.app.c_str(), ex.get("cpu.squashed_instr_pct"),
            dy.get("cpu.squashed_instr_pct"),
            ba.get("cpu.squashed_instr_pct"), dy.get("bulk.avg_read_set"),
            dy.get("bulk.avg_write_set"),
            dy.get("bulk.avg_priv_write_set"),
            dy.get("bulk.spec_write_displacements") * per100k,
            dy.get("bulk.spec_read_displacements") * per100k,
            dy.get("bulk.priv_buffer_supplies") * per1k,
            dy.get("mem.extra_invals") * per1k);
    }
    std::printf("\nAll columns except the first three use BSCdypvt, "
                "as in the paper.\n");
}

/**
 * Table 4, under BSCdypvt: directory lookups per commit and the
 * unnecessary (aliased) lookups and updates; nodes receiving each W
 * signature; the arbiter's time-averaged pending Ws, % of time its W
 * list is non-empty, % of commits needing the R signature (RSig
 * optimization) and % of commits with an empty W.
 */
void
printTable4(const Rows &rows)
{
    printHeader("Table 4: commit process and coherence (BSCdypvt)");
    std::printf("%-12s |%9s%9s%9s |%8s |%8s%9s%9s%9s\n", "app", "Lkup/Cm",
                "UnnLk%", "UnnUp%", "Nod/W", "PendW", "NEmpt%", "RSigRq%",
                "EmptyW%");
    for (const Row &row : rows) {
        const StatGroup &s = row.r[0].stats;
        double commits = s.get("bulk.commits");
        double lookups = s.get("mem.dir_lookups");
        double updates = s.get("mem.dir_updates");
        std::printf(
            "%-12s |%9.1f%9.1f%9.2f |%8.2f |%8.2f%9.1f%9.1f%9.1f\n",
            row.app.c_str(), commits > 0 ? lookups / commits : 0,
            lookups > 0 ? 100.0 * s.get("mem.dir_alias_lookups") / lookups
                        : 0,
            updates > 0 ? 100.0 * s.get("mem.dir_alias_updates") / updates
                        : 0,
            s.get("bulk.nodes_per_wsig"), s.get("arb.avg_pending_w"),
            s.get("arb.non_empty_pct"), s.get("arb.rsig_required_pct"),
            s.get("arb.empty_w_pct"));
    }
}

/**
 * Figure 11: network traffic normalized to RC, by class, for R = RC,
 * E = BSCexact, N = BSCdypvt without the RSig optimization and
 * B = BSCdypvt.
 *
 * Expected shape (Section 7.4): B ~5-13% above RC on average, from
 * signature transfers and post-squash refetches; N vs B shows RSig
 * wiping out the RdSig class; E vs N the modest effect of aliasing.
 */
void
printFig11(const Rows &rows)
{
    const char *const classes[] = {"RdWr", "RdSig", "WrSig", "Inv",
                                   "Other"};
    auto total = [&](const Results &r) {
        double t = 0;
        for (const char *c : classes)
            t += r.stats.get(std::string("net.bits.") + c);
        return t;
    };
    printHeader("Figure 11: traffic normalized to RC (R/E/N/B per app)");
    std::printf("%-12s %-4s %8s %8s %8s %8s %8s %8s\n", "app", "cfg",
                "Rd/Wr", "RdSig", "WrSig", "Inv", "Other", "Total");
    const char *const configs[] = {"R", "E", "N", "B"};
    double sum[4] = {0, 0, 0, 0};
    for (const Row &row : rows) {
        double base = total(row.r[0]);
        for (std::size_t i = 0; i < 4; ++i) {
            std::printf("%-12s %-4s", row.app.c_str(), configs[i]);
            for (const char *c : classes) {
                std::printf(" %8.3f",
                            row.r[i].stats.get(std::string("net.bits.") +
                                               c) /
                                base);
            }
            std::printf(" %8.3f\n", total(row.r[i]) / base);
            sum[i] += total(row.r[i]) / base;
        }
        std::printf("\n");
    }
    if (!rows.empty()) {
        double n = static_cast<double>(rows.size());
        std::printf("average total vs RC:  E=%.3f  N=%.3f  B=%.3f\n",
                    sum[1] / n, sum[2] / n, sum[3] / n);
        std::printf("BSCdypvt bandwidth overhead over RC: %.1f%%\n",
                    100.0 * (sum[3] / n - 1.0));
    }
}

/**
 * Ablation, §4.2.2: BSCdypvt with and without RSig. R-signature and
 * total traffic, execution time, and how often the arbiter needed the
 * R signature (Table 4's low "R Sig. Required" is what makes it pay).
 */
void
printRsig(const Rows &rows)
{
    printHeader("Ablation: RSig commit bandwidth optimization");
    std::printf("%-12s %12s %12s %10s %10s %9s\n", "app", "RdSig(off)",
                "RdSig(on)", "tot ratio", "exec rat.", "RSigReq%");
    for (const Row &row : rows) {
        const Results &off = row.r[0];
        const Results &on = row.r[1];
        std::printf("%-12s %12.0f %12.0f %10.3f %10.3f %9.1f\n",
                    row.app.c_str(), off.stats.get("net.bits.RdSig"),
                    on.stats.get("net.bits.RdSig"),
                    on.stats.get("net.bits.total") /
                        off.stats.get("net.bits.total"),
                    execTime(on) / execTime(off),
                    on.stats.get("arb.rsig_required_pct"));
    }
}

/**
 * Ablation, §4.2.3: the single arbiter against distributed arbiters of
 * 2 and 4 address-range modules plus a G-arbiter, with the share of
 * commits that needed the G-arbiter.
 */
void
printArbiter(const Rows &rows)
{
    printHeader("Ablation: single vs distributed arbiter (BSCdypvt)");
    std::printf("%-12s %10s %10s %10s %12s %12s\n", "app", "1-arb",
                "2-arb", "4-arb", "multi%(2)", "multi%(4)");
    // Every distributed-arbiter request is a single- or a multi-range
    // commit.
    auto multi_pct = [](const Results &r) {
        double total = r.stats.get("arb.requests");
        return total > 0
                   ? 100.0 * r.stats.get("arb.multi_range_commits") / total
                   : 0;
    };
    for (const Row &row : rows) {
        double base = execTime(row.r[0]);
        std::printf("%-12s %10.3f %10.3f %10.3f %11.1f%% %11.1f%%\n",
                    row.app.c_str(), 1.0, base / execTime(row.r[1]),
                    base / execTime(row.r[2]), multi_pct(row.r[1]),
                    multi_pct(row.r[2]));
    }
    std::printf("\n(speedups relative to the single-arbiter "
                "configuration)\n");
}

struct Geom
{
    unsigned bits;
    unsigned banks;
};
const Geom kGeoms[] = {
    {512, 2}, {1024, 4}, {2048, 4}, {4096, 4}, {8192, 8},
};

/**
 * Ablation, §6's "large unexplored design space": BSCdypvt's squash
 * rate, performance vs RC and signature bits per commit across
 * signature geometries. Smaller signatures alias more, bigger ones
 * cost more bandwidth.
 */
void
printSignature(const Rows &rows)
{
    printHeader("Ablation: signature size/encoding (BSCdypvt)");
    std::printf("%-12s %12s %10s %12s %14s\n", "app", "geometry",
                "squash%", "vs RC", "sig bits/comm");
    for (const Row &row : rows) {
        for (std::size_t g = 0; g < std::size(kGeoms); ++g) {
            const StatGroup &s = row.r[g + 1].stats;
            double commits = s.get("bulk.commits");
            double sig_bits =
                s.get("net.bits.WrSig") + s.get("net.bits.RdSig");
            std::printf("%-12s %7ub x%2u %10.2f %12.3f %14.0f\n",
                        row.app.c_str(), kGeoms[g].bits, kGeoms[g].banks,
                        s.get("cpu.squashed_instr_pct"),
                        execTime(row.r[0]) / execTime(row.r[g + 1]),
                        commits > 0 ? sig_bits / commits : 0);
        }
        std::printf("\n");
    }
}

const unsigned kProcCounts[] = {1, 2, 4, 8, 16};

/**
 * Ablation, §6: BSCdypvt against RC from 1 to 16 processors, with the
 * commit-pressure indicators; from 8 processors on, also with the
 * distributed arbiter (4 modules).
 */
void
printScalability(const Rows &rows)
{
    printHeader("Ablation: scalability with processor count");
    std::printf("%-12s %6s %10s %10s %10s %9s %9s\n", "app", "procs",
                "vs RC", "vsRC-dist", "squash%", "NEmpt%", "PendW");
    for (const Row &row : rows) {
        auto r = row.r.begin();
        for (unsigned procs : kProcCounts) {
            const Results &rc = *r++;
            const Results &dy = *r++;
            double dist = procs >= 8 ? execTime(rc) / execTime(*r++) : 0;
            std::printf("%-12s %6u %10.3f %10.3f %10.2f %9.1f %9.2f\n",
                        row.app.c_str(), procs,
                        execTime(rc) / execTime(dy), dist,
                        dy.stats.get("cpu.squashed_instr_pct"),
                        dy.stats.get("arb.non_empty_pct"),
                        dy.stats.get("arb.avg_pending_w"));
        }
        std::printf("\n");
    }
}

// Below ~2 entries per resident line the displacement broadcasts
// squash running chunks faster than they can commit (the conservative
// rule of Section 4.3.3 makes an undersized directory cache
// pathological), so the sweep stays in the practical range.
const std::size_t kDirCacheEntries[] = {0, 16384, 8192, 4096};

/**
 * Ablation, §4.3.3: directory-cache capacity. A displaced entry forces
 * a one-line signature broadcast that can squash chunks; this shows
 * that cost of bounding false positives by construction.
 */
void
printDircache(const Rows &rows)
{
    printHeader("Ablation: directory cache capacity (BSCdypvt)");
    std::printf("%-12s %10s %12s %12s %10s %10s\n", "app", "entries",
                "exec ratio", "displ/1kCom", "squash%", "XInv/1kC");
    for (const Row &row : rows) {
        for (std::size_t e = 0; e < std::size(kDirCacheEntries); ++e) {
            std::size_t entries = kDirCacheEntries[e];
            const Results &x = row.r[e + 1];
            double commits = x.stats.get("bulk.commits");
            double per1k = commits > 0 ? 1000.0 / commits : 0;
            std::printf("%-12s %10s %12.3f %12.1f %10.2f %10.1f\n",
                        row.app.c_str(),
                        entries ? std::to_string(entries).c_str()
                                : "full-map",
                        execTime(row.r[0]) / execTime(x),
                        x.stats.get("mem.dir_displacements") * per1k,
                        x.stats.get("cpu.squashed_instr_pct"),
                        x.stats.get("mem.extra_invals") * per1k);
        }
        std::printf("\n");
    }
}

/**
 * Ablation, §4.1.2 and §4.1.4: 1, 2 and 4 chunks in progress per
 * processor. One signature pair exposes the commit latency at every
 * chunk boundary; two (the paper's design) hide most of it; more add
 * little because commits are short.
 */
void
printOverlap(const Rows &rows)
{
    printHeader("Ablation: chunks in progress per processor (BSCdypvt)");
    std::printf("%-12s %12s %12s %12s\n", "app", "1 chunk", "2 chunks",
                "4 chunks");
    const auto sp = speedupsOver(rows, 0);
    for (std::size_t a = 0; a < rows.size(); ++a) {
        std::printf("%-12s", rows[a].app.c_str());
        for (std::size_t i = 1; i < sp.size(); ++i)
            std::printf(" %12.3f", sp[i][a]);
        std::printf("\n");
    }
    std::printf("%-12s", "SP2-G.M.");
    for (std::size_t i = 1; i < sp.size(); ++i)
        std::printf(" %12.3f", splash2GeoMean(rows, sp[i]));
    std::printf("\n(speedup over RC; 2 chunks is the paper's "
                "configuration)\n");
}

/**
 * Ablation, §3.3 and Figure 6: starting every synchronization
 * operation in a fresh chunk (BulkParams::endChunkOnSync) on the
 * lock-heavy workloads: fewer contention squashes against more,
 * smaller commits.
 */
void
printSyncBoundary(const Rows &rows)
{
    printHeader("Ablation: chunk boundaries at sync ops (BSCdypvt)");
    std::printf("%-12s %6s %12s %10s %10s %10s\n", "app", "sync",
                "exec ratio", "squash%", "commits", "emptyW%");
    for (const Row &row : rows) {
        for (std::size_t i = 0; i < 2; ++i) {
            const StatGroup &s = row.r[i].stats;
            std::printf("%-12s %6s %12.3f %10.2f %10.0f %10.1f\n",
                        row.app.c_str(), i ? "on" : "off",
                        i ? execTime(row.r[0]) / execTime(row.r[1]) : 1.0,
                        s.get("cpu.squashed_instr_pct"),
                        s.get("bulk.commits"), s.get("arb.empty_w_pct"));
        }
    }
}

/** BSCdypvt with @p tweak applied. */
Variant
dypvt(std::function<void(MachineConfig &)> tweak)
{
    return {Model::BSCdypvt, std::move(tweak)};
}

/** Every table, in README order. */
std::vector<Table>
paperTables()
{
    std::vector<Table> t;

    t.push_back({"fig9", 60'000, {}, {}, printFig9});
    for (Model m : kFig9Models)
        t.back().variants.push_back({m});

    t.push_back({"fig10", 60'000, {}, {{Model::RC}}, printFig10});
    for (unsigned chunk : {1000u, 2000u, 4000u}) {
        t.back().variants.push_back(
            dypvt([chunk](MachineConfig &c) { c.bulk.chunkSize = chunk; }));
    }
    t.back().variants.push_back({Model::BSCexact, [](MachineConfig &c) {
                                     c.bulk.chunkSize = 4000;
                                 }});

    t.push_back({"table3", 60'000, {},
                 {{Model::BSCexact}, {Model::BSCdypvt}, {Model::BSCbase}},
                 printTable3});
    t.push_back({"table4", 60'000, {}, {{Model::BSCdypvt}}, printTable4});

    auto no_rsig = [](MachineConfig &c) { c.bulk.rsigOpt = false; };
    t.push_back({"fig11", 60'000, {},
                 {{Model::RC}, {Model::BSCexact}, dypvt(no_rsig),
                  {Model::BSCdypvt}},
                 printFig11});
    t.push_back({"rsig", 40'000, {}, {dypvt(no_rsig), {Model::BSCdypvt}},
                 printRsig});

    t.push_back({"arbiter", 40'000, {}, {{Model::BSCdypvt}}, printArbiter});
    for (unsigned n : {2u, 4u}) {
        t.back().variants.push_back(dypvt([n](MachineConfig &c) {
            c.numArbiters = n;
            c.mem.numDirectories = n;
        }));
    }

    t.push_back({"signature", 40'000, {"ocean", "radix", "sjbb2k"},
                 {{Model::RC}}, printSignature});
    for (Geom g : kGeoms) {
        t.back().variants.push_back(dypvt([g](MachineConfig &c) {
            c.bulk.sigCfg.totalBits = g.bits;
            c.bulk.sigCfg.numBanks = g.banks;
        }));
    }

    t.push_back({"scalability", 30'000, {"ocean", "barnes", "sjbb2k"}, {},
                 printScalability});
    for (unsigned p : kProcCounts) {
        auto procs = [p](MachineConfig &c) { c.numProcs = p; };
        t.back().variants.push_back({Model::RC, procs});
        t.back().variants.push_back({Model::BSCdypvt, procs});
        if (p >= 8) {
            t.back().variants.push_back(dypvt([p](MachineConfig &c) {
                c.numProcs = p;
                c.numArbiters = 4;
                c.mem.numDirectories = 4;
            }));
        }
    }

    t.push_back({"dircache", 30'000, {"ocean", "sweb2005"},
                 {{Model::BSCdypvt}}, printDircache});
    for (std::size_t e : kDirCacheEntries) {
        t.back().variants.push_back(
            dypvt([e](MachineConfig &c) { c.mem.dirCacheEntries = e; }));
    }

    t.push_back({"overlap", 40'000, {}, {{Model::RC}}, printOverlap});
    for (unsigned n : {1u, 2u, 4u}) {
        t.back().variants.push_back(
            dypvt([n](MachineConfig &c) { c.bulk.maxLiveChunks = n; }));
    }

    t.push_back({"sync_boundary", 40'000,
                 {"radiosity", "raytrace", "barnes", "sjbb2k"},
                 {{Model::BSCdypvt}, dypvt([](MachineConfig &c) {
                      c.bulk.endChunkOnSync = true;
                  })},
                 printSyncBoundary});
    return t;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

[[noreturn]] void
usage(const char *argv0, const std::vector<Table> &tables)
{
    std::fprintf(stderr,
                 "usage: %s [-j N] [--only LIST] [--apps LIST] "
                 "[options]\n"
                 "  -j, --jobs N     worker threads (default 1)\n"
                 "  --only LIST      tables to run (default: all):",
                 argv0);
    for (const Table &t : tables)
        std::fprintf(stderr, " %s", t.name);
    std::fprintf(stderr, "\n  --apps LIST      apps, replacing every "
                         "table's own list\n"
                         "Without --instrs each table uses its own "
                         "length; the watchdog is off unless "
                         "--watchdog.\n");
    OptionRegistry::instance().printUsage(stderr, OptionGroup::Bench);
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::vector<Table> tables = paperTables();

    unsigned jobs = 1;
    std::vector<std::string> only, apps;
    std::vector<const char *> rest;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto is = [a](const char *flag) { return !std::strcmp(a, flag); };
        bool takes_value = is("-j") || is("--jobs") || is("--only") ||
                           is("--apps");
        if (is("--help") || is("-h") || (takes_value && i + 1 >= argc))
            usage(argv[0], tables);
        if (is("-j") || is("--jobs")) {
            jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strncmp(a, "-j", 2) && a[2] != '\0') {
            jobs = static_cast<unsigned>(std::strtoul(a + 2, nullptr, 10));
        } else if (is("--only")) {
            only = splitList(argv[++i]);
        } else if (is("--apps")) {
            apps = splitList(argv[++i]);
        } else {
            rest.push_back(a);
        }
    }

    SimOptions base;
    base.instrs = 0; // each table's own length unless --instrs
    base.cfg.watchdog.enabled = false;
    std::string err;
    if (!OptionRegistry::instance().parse(static_cast<int>(rest.size()),
                                          rest.data(), base,
                                          OptionGroup::Bench, err)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        usage(argv[0], tables);
    }

    std::vector<Table> selected = only.empty() ? tables
                                               : std::vector<Table>{};
    for (const std::string &n : only) {
        auto it = std::find_if(tables.begin(), tables.end(),
                               [&](const Table &t) { return n == t.name; });
        if (it == tables.end()) {
            std::fprintf(stderr, "%s: --only: unknown table '%s'\n",
                         argv[0], n.c_str());
            usage(argv[0], tables);
        }
        selected.push_back(*it);
    }

    // Points in table, app, variant order; rows[t][a] collects them.
    std::vector<SimOptions> points;
    std::vector<Rows> rows(selected.size());
    for (std::size_t t = 0; t < selected.size(); ++t) {
        const Table &tab = selected[t];
        std::vector<std::string> names = apps;
        if (names.empty())
            names.assign(tab.apps.begin(), tab.apps.end());
        if (names.empty()) {
            for (const AppProfile &p : allProfiles())
                names.push_back(p.name);
        }
        for (const std::string &app : names) {
            rows[t].push_back({profileByName(app).name, {}});
            for (const Variant &v : tab.variants) {
                SimOptions o = base;
                o.app = app;
                o.instrs = base.instrs ? base.instrs : tab.instrs;
                o.cfg.model = v.model;
                if (v.tweak)
                    v.tweak(o.cfg);
                if (!o.cfg.validate(err)) {
                    std::fprintf(stderr, "%s: %s: %s\n", argv[0],
                                 tab.name, err.c_str());
                    return 1;
                }
                points.push_back(std::move(o));
            }
        }
    }

    // Print each table as soon as its last point is in.
    std::size_t t = 0, a = 0, incomplete = 0;
    runPoints(points, jobs, [&](std::size_t, PointResult &pr) {
        if (!pr.results.completed)
            ++incomplete;
        rows[t][a].r.push_back(std::move(pr.results));
        if (rows[t][a].r.size() < selected[t].variants.size())
            return;
        if (++a < rows[t].size())
            return;
        selected[t].print(rows[t]);
        std::fflush(stdout);
        rows[t].clear();
        ++t;
        a = 0;
    });

    if (incomplete) {
        std::fprintf(stderr, "%zu/%zu points did not complete\n",
                     incomplete, points.size());
        return 2;
    }
    return 0;
}
