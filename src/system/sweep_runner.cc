#include "system/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "system/system.hh"
#include "workload/app_profiles.hh"
#include "workload/generator.hh"

namespace bulksc {

namespace {

const AppProfile *
findProfile(const std::string &name)
{
    for (const AppProfile &p : allProfiles()) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

/** The JSON record of grid point @p idx: its settings, then either
 *  @p pr's statistics or its error. */
std::string
pointRecord(std::size_t idx,
            const std::vector<std::pair<std::string, std::string>> &set,
            const SimOptions &o, const PointResult &pr)
{
    std::ostringstream os;
    os << "{\"point\": " << idx;
    const OptionRegistry &reg = OptionRegistry::instance();
    os << ", \"settings\": {";
    bool first_s = true;
    for (const auto &[name, value] : set) {
        const OptionDesc *d = reg.find(name);
        os << (first_s ? "" : ", ") << '"' << jsonEscape(name)
           << "\": ";
        first_s = false;
        if (d && d->kind == OptionDesc::Kind::UInt)
            os << value;
        else if (d && d->kind == OptionDesc::Kind::Flag)
            os << (value == "1" || value == "true" ? "true" : "false");
        else
            os << '"' << jsonEscape(value) << '"';
    }
    os << '}';
    if (!pr.error.empty()) {
        os << ", \"error\": \"" << jsonEscape(pr.error) << "\"}";
        return os.str();
    }

    const Results &res = pr.results;
    os << ", \"model\": \"" << modelName(o.cfg.model) << '"';
    os << ", \"app\": \"" << jsonEscape(o.app) << '"';
    os << ", \"procs\": " << o.cfg.numProcs;
    os << ", \"instrs\": " << o.instrs;
    os << ", \"seed_salt\": " << o.seedSalt;
    if (!o.cfg.faults.empty())
        os << ", \"fault_seed\": " << o.cfg.faultSeed;
    os << ", \"completed\": " << (res.completed ? "true" : "false");
    os << ", \"watchdog\": \""
       << watchdogVerdictName(res.watchdogVerdict) << '"';
    os << ", \"stats\": {";
    bool first = true;
    for (const auto &[k, v] : res.stats.entries()) {
        os << (first ? "" : ", ") << '"' << jsonEscape(k)
           << "\": " << jsonNumber(v);
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace

SweepRunner::SweepRunner(SimOptions base_, std::vector<SweepAxis> axes_)
    : base(std::move(base_)), axes(std::move(axes_))
{
    nPoints = 1;
    sweepsSeedSalt = false;
    sweepsFaultSeed = false;
    for (const SweepAxis &a : axes) {
        nPoints *= a.values.size();
        if (a.name == "seed-salt")
            sweepsSeedSalt = true;
        if (a.name == "fault-seed")
            sweepsFaultSeed = true;
    }
}

std::vector<std::pair<std::string, std::string>>
SweepRunner::pointSettings(std::size_t idx) const
{
    // Row-major: the last axis varies fastest.
    std::vector<std::pair<std::string, std::string>> out(axes.size());
    for (std::size_t a = axes.size(); a-- > 0;) {
        const SweepAxis &ax = axes[a];
        out[a] = {ax.name, ax.values[idx % ax.values.size()]};
        idx /= ax.values.size();
    }
    return out;
}

bool
SweepRunner::pointOptions(std::size_t idx, SimOptions &out,
                          std::string &err) const
{
    const OptionRegistry &reg = OptionRegistry::instance();
    out = base;
    for (const auto &[name, value] : pointSettings(idx)) {
        if (!reg.applyKeyValue(out, name, value, err))
            return false;
    }
    // Same point index, same trace and same fault schedule —
    // regardless of which worker runs it or how many there are.
    if (!sweepsSeedSalt)
        out.seedSalt = deriveSeed(base.seedSalt, idx);
    if (!sweepsFaultSeed)
        out.cfg.faultSeed = deriveSeed(base.cfg.faultSeed, idx);
    return true;
}

bool
SweepRunner::validateGrid(std::string &err) const
{
    const OptionRegistry &reg = OptionRegistry::instance();
    for (const SweepAxis &a : axes) {
        const OptionDesc *d = reg.find(a.name);
        if (!d || !d->inConfig) {
            err = "unknown sweep axis '" + a.name + "'";
            return false;
        }
        if (a.values.empty()) {
            err = "sweep axis '" + a.name + "' has no values";
            return false;
        }
    }
    for (std::size_t i = 0; i < nPoints; ++i) {
        SimOptions o;
        std::string perr;
        if (!pointOptions(i, o, perr) || !o.cfg.validate(perr)) {
            err = "point " + std::to_string(i) + ": " + perr;
            return false;
        }
        if (!findProfile(o.app)) {
            err = "point " + std::to_string(i) + ": unknown app '" +
                  o.app + "'";
            return false;
        }
    }
    return true;
}

std::size_t
SweepRunner::run(unsigned workers, std::FILE *out, bool progress)
{
    // Resolve every point first. A point whose settings do not apply
    // gets an error record in its place; the rest go to the executor.
    std::vector<SimOptions> points;
    std::vector<std::size_t> gridIdx; // grid index of points[k]
    std::vector<std::string> unresolved(nPoints);
    for (std::size_t i = 0; i < nPoints; ++i) {
        SimOptions o;
        if (pointOptions(i, o, unresolved[i])) {
            points.push_back(std::move(o));
            gridIdx.push_back(i);
        }
    }

    std::size_t emitted = 0;
    std::size_t failed = 0;
    auto emit = [&](const std::string &rec, bool ok) {
        std::fprintf(out, "%s\n", rec.c_str());
        std::fflush(out);
        failed += ok ? 0 : 1;
        ++emitted;
        if (progress)
            std::fprintf(stderr, "\r%zu/%zu points", emitted, nPoints);
    };
    // Error records of the unresolved points before grid index @p end.
    auto emitUnresolved = [&](std::size_t end) {
        while (emitted < end) {
            PointResult pr;
            pr.error = unresolved[emitted];
            emit(pointRecord(emitted, pointSettings(emitted), base, pr),
                 false);
        }
    };

    runPoints(points, workers, [&](std::size_t k, PointResult &pr) {
        std::size_t idx = gridIdx[k];
        emitUnresolved(idx);
        const Results &res = pr.results;
        emit(pointRecord(idx, pointSettings(idx), points[k], pr),
             pr.error.empty() && res.completed &&
                 res.watchdogVerdict == WatchdogVerdict::None);
    });
    emitUnresolved(nPoints);
    if (progress)
        std::fprintf(stderr, "\n");
    return failed;
}

PointResult
simulatePoint(const SimOptions &o)
{
    PointResult pr;
    if (!o.cfg.validate(pr.error))
        return pr;
    const AppProfile *app = findProfile(o.app);
    if (!app) {
        pr.error = "unknown app '" + o.app + "'";
        return pr;
    }
    std::vector<Trace> traces = generateTraces(
        *app, o.cfg.numProcs, o.instrs, o.seedSalt);
    System sys(o.cfg, std::move(traces));
    pr.results = sys.run();
    return pr;
}

void
runPoints(const std::vector<SimOptions> &points, unsigned workers,
          const std::function<void(std::size_t, PointResult &)> &deliver)
{
    const std::size_t n = points.size();
    workers = static_cast<unsigned>(std::clamp<std::size_t>(
        workers, 1, std::max<std::size_t>(n, 1)));

    std::atomic<std::size_t> next{0};
    std::mutex mtx;
    std::condition_variable cv;
    std::map<std::size_t, PointResult> ready;

    auto worker = [&] {
        while (true) {
            std::size_t idx = next.fetch_add(1);
            if (idx >= n)
                return;
            PointResult pr;
            try {
                pr = simulatePoint(points[idx]);
            } catch (const std::exception &e) {
                pr.error = e.what();
            }
            {
                std::lock_guard<std::mutex> lk(mtx);
                ready.emplace(idx, std::move(pr));
            }
            cv.notify_one();
        }
    };

    // Joined on destruction, also if deliver throws.
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(worker);

    // Deliver strictly in point order, outside the lock, as soon as a
    // point and every predecessor are available.
    for (std::size_t done = 0; done < n; ++done) {
        PointResult pr;
        {
            std::unique_lock<std::mutex> lk(mtx);
            cv.wait(lk, [&] { return ready.count(done) != 0; });
            auto it = ready.find(done);
            pr = std::move(it->second);
            ready.erase(it);
        }
        deliver(done, pr);
    }
}

} // namespace bulksc
