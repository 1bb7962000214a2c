/**
 * @file
 * The repository benchmark: runs one named workload of sweep points
 * through the library's public API and prints its end-to-end metrics
 * (--trace 0) or its per-layer metrics (--trace 1) as one JSON object
 * on the last line of stdout.
 *
 *   perfbench --workload refresh_saturated --seed 1 --seconds 15 \
 *             --trace 0 [--workers 4] [--spans out.json]
 *
 * The timed run repeats the workload's whole sweep, each time from
 * nothing (mixes, plan, SweepRunner and its pool), until --seconds
 * have passed, and reports the median over the repetitions. After the
 * timed part it checks the outputs: every repetition bitwise equal,
 * metrics collection result-neutral, sampled points bitwise equal on
 * the dense cycle engine, sampled command traces legal under
 * TimingChecker, and each workload still doing its job. Failed checks
 * count as failed simulations. Run it through run.py, which builds it
 * and clears the HIRA_* environment this program refuses.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "common/worker_pool.hh"
#include "dram/timing_checker.hh"
#include "perfbench.hh"
#include "sim/result_cache.hh"

extern char **environ;

using namespace hira;
using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int workers = 0;
    std::string spans;
    /** Set-up mode: set up, write one byte to this fd and exit. */
    int setupFd = -1;
};

[[noreturn]] void
usage(const char *msg)
{
    std::string names;
    for (const std::string &n : workloadNames())
        names += (names.empty() ? "" : ", ") + n;
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workers <n>] "
                 "[--spans <file>]\nworkloads: %s\n",
                 msg, names.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            o.trace = val == "1";
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
        } else if (key == "--workers") {
            o.workers = static_cast<int>(std::strtol(val.c_str(), &end, 10));
        } else if (key == "--spans") {
            o.spans = val;
        } else if (key == "--setup-fd") {
            o.setupFd = static_cast<int>(std::strtol(val.c_str(), &end, 10));
        } else {
            usage(("unknown option " + key).c_str());
        }
        if (end != nullptr && (*end != '\0' || end == val.c_str()))
            usage(("bad value for " + key).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    if (o.workers <= 0) {
        // A fixed worker count, capped by the machine.
        int hw = static_cast<int>(std::thread::hardware_concurrency());
        o.workers = std::clamp(hw, 1, 4);
    }
    return o;
}

/**
 * Refuse every HIRA_* variable: the library reads the engine, kernel,
 * metrics level, standard, result cache, corpus, trace-event and scale
 * knobs from the environment, and an ambient shell must not change a
 * workload.
 */
void
refuseHiraEnvironment()
{
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "HIRA_", 5) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; unset "
                         "every HIRA_* variable (run.py does)\n",
                         *e);
            std::exit(2);
        }
    }
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Run @p fn with HIRA_<name>=<value> set, restoring an empty env. */
template <class Fn>
auto
withEnv(const char *name, const char *value, Fn fn)
{
    setenv(name, value, 1);
    struct Unset
    {
        const char *n;
        ~Unset() { unsetenv(n); }
    } unset{name};
    return fn();
}

/** Points whose refreshes HiRA serves. */
bool
isHiraPoint(const SweepPoint &p)
{
    return p.scheme.kind == SchemeKind::HiraMc ||
           (p.scheme.paraEnabled && p.scheme.preventiveViaHira);
}

/** Points that must generate preventive refreshes. */
bool
isPreventivePoint(const SweepPoint &p)
{
    return p.scheme.paraEnabled || p.scheme.kind == SchemeKind::Rfm ||
           p.scheme.kind == SchemeKind::Prac;
}

/** Non-finite or non-positive weighted speedups fail the point. */
void
checkSpeedups(const Workload &w, const Sweep &s, Tally &tally)
{
    for (std::size_t i = 0; i < s.points.size(); ++i) {
        double ws = s.points[i].meanWs;
        if (!(ws > 0.0) || !std::isfinite(ws)) {
            tally.fail(static_cast<std::uint64_t>(w.mixes),
                       strprintf("%s: weighted speedup %g",
                                 pointLabel(w.points[i]).c_str(), ws));
        }
    }
}

/** True if @p a and @p b carry bitwise-identical results. */
bool
samePointResult(const PointResult &a, const PointResult &b)
{
    const RefreshStats &x = a.refresh;
    const RefreshStats &y = b.refresh;
    return std::memcmp(&a.meanWs, &b.meanWs, sizeof(double)) == 0 &&
           a.simCycles == b.simCycles && x.refCommands == y.refCommands &&
           x.rowRefreshes == y.rowRefreshes &&
           x.accessPaired == y.accessPaired &&
           x.refreshPaired == y.refreshPaired &&
           x.standalone == y.standalone &&
           x.deadlineMisses == y.deadlineMisses &&
           x.preventiveGenerated == y.preventiveGenerated &&
           x.preventiveDropped == y.preventiveDropped;
}

/** Peak resident set of the process so far, in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Every point of @p s bitwise equal to @p ref's (plan indices @p idx). */
void
checkSame(const Workload &w, const Sweep &ref, const Sweep &s,
          const std::vector<std::size_t> &idx, const char *what,
          Tally &tally)
{
    if (!ref.ok || !s.ok)
        return; // already failed
    for (std::size_t k = 0; k < idx.size(); ++k) {
        if (!samePointResult(ref.points[idx[k]], s.points[k])) {
            tally.fail(static_cast<std::uint64_t>(w.mixes),
                       strprintf("%s: %s differs from the timed run",
                                 pointLabel(w.points[idx[k]]).c_str(),
                                 what));
        }
    }
}

/** What replaying one point's mixes found. */
struct Audit
{
    std::size_t violations = 0;
    std::string first;               //!< first violation, with its channel
    std::uint64_t paraGenerated = 0; //!< immediate PARA, measured window
};

/**
 * Replay the first mix of every point with command recording on and
 * audit every channel's trace with TimingChecker. Points with
 * immediate PARA replay every mix, because their preventive refreshes
 * appear in no RefreshStats and the digest counts them from the
 * sampler (paraGenerated()).
 */
std::vector<Audit>
auditTraces(const Workload &w, std::uint64_t seed, int workers,
            Tally &tally)
{
    std::vector<WorkloadMix> mixes = drawMixes(w, seed);
    std::vector<std::pair<std::size_t, std::size_t>> runs; // point, mix
    for (std::size_t pi = 0; pi < w.points.size(); ++pi) {
        const SchemeSpec &s = w.points[pi].scheme;
        bool immediatePara = s.paraEnabled && !s.preventiveViaHira;
        for (std::size_t mi = 0; mi < (immediatePara ? mixes.size() : 1);
             ++mi)
            runs.emplace_back(pi, mi);
    }
    tally.attempted += runs.size();
    std::vector<Audit> perRun(runs.size());
    WorkerPool pool(workers);
    pool.parallelFor(runs.size(), [&](std::size_t ri) {
        auto [pi, mi] = runs[ri];
        const SweepPoint &p = w.points[pi];
        SystemConfig cfg = makeSystemConfig(
            p.geom, p.scheme, mixes[mi],
            sweepRunSeed(p.geom.key(), p.scheme.seedKey(), mi));
        cfg.recordTraces = mi == 0;
        System sys(cfg);
        sys.run(static_cast<Cycle>(kWarmupCycles));
        sys.resetStats();
        std::uint64_t gen0 = paraGenerated(sys);
        sys.run(static_cast<Cycle>(kMeasureCycles));
        Audit &a = perRun[ri];
        a.paraGenerated = paraGenerated(sys) - gen0;
        if (!cfg.recordTraces)
            return;
        TimingChecker checker(cfg.geom, cfg.tp);
        for (int ch = 0; ch < sys.channels(); ++ch) {
            std::vector<Violation> v = checker.check(sys.controller(ch).trace());
            if (!v.empty() && a.first.empty())
                a.first = strprintf("ch%d: %s", ch, v[0].message.c_str());
            a.violations += v.size();
        }
    });
    std::vector<Audit> out(w.points.size());
    for (std::size_t ri = 0; ri < runs.size(); ++ri) {
        Audit &a = out[runs[ri].first];
        const Audit &r = perRun[ri];
        if (a.first.empty())
            a.first = r.first;
        a.violations += r.violations;
        a.paraGenerated += r.paraGenerated;
    }
    return out;
}

/** Relative loss or gain of @p a against @p b, in percent. */
double
pct(double a, double b)
{
    return 100.0 * (a / b - 1.0);
}

/**
 * Paper-fidelity errors of the points this workload carries: simulated
 * and deterministic per seed, so reported beside the timed metrics.
 */
void
printFidelity(const Workload &w, const std::vector<PointResult> &pts)
{
    auto ws = [&](std::size_t i) { return pts[i].meanWs; };
    if (w.name == "refresh_saturated") {
        // 128 Gb column: NoRefresh 4, Baseline 5, HiRA-2 6.
        std::printf("fidelity fig9_overhead_err_pp %.6f pp "
                    "(Baseline loss vs NoRefresh at 128 Gb %.2f %%, "
                    "paper 26.3 %%)\n",
                    std::fabs(-pct(ws(5), ws(4)) - 26.3), -pct(ws(5), ws(4)));
        std::printf("fidelity fig9_hira2_err_pp %.6f pp (HiRA-2 gain over "
                    "Baseline at 128 Gb %.2f %%, paper 12.6 %%)\n",
                    std::fabs(pct(ws(6), ws(5)) - 12.6), pct(ws(6), ws(5)));
    } else if (w.name == "mitigation_mix") {
        // Fig. 12 at NRH=64: Baseline 0, PARA 1, HiRA-4 PARA 2.
        double speedup = ws(2) / ws(1);
        std::printf("fidelity fig12_para_err_pp %.6f pp (PARA loss at "
                    "NRH=64 %.2f %%, paper 96 %%)\n",
                    std::fabs(-pct(ws(1), ws(0)) - 96.0), -pct(ws(1), ws(0)));
        std::printf("fidelity fig12_hira4_err_pct %.6f %% (HiRA-4 speedup "
                    "over PARA at NRH=64 %.3fx, paper 3.73x)\n",
                    100.0 * std::fabs(speedup / 3.73 - 1.0), speedup);
    }
}

/**
 * Seconds from spawning this program in set-up mode (--setup-fd) to
 * its first simulation ready to run: process start, static
 * initialisation of the registries, and setUpFirstSimulation().
 */
double
setupSeconds(const Options &o)
{
    int fds[2];
    if (pipe(fds) != 0)
        fatal("perfbench: pipe: %s", std::strerror(errno));
    std::vector<std::string> args = {
        "perfbench", "--workload", o.workload, "--seed",
        std::to_string(o.seed), "--seconds", "1", "--trace", "0",
        "--workers", std::to_string(o.workers), "--setup-fd",
        std::to_string(fds[1])};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    Clock::time_point t0 = Clock::now();
    pid_t pid = 0;
    int err = posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                          argv.data(), environ);
    close(fds[1]);
    if (err != 0)
        fatal("perfbench: cannot spawn the set-up run: %s",
              std::strerror(err));
    char ready = 0;
    ssize_t n = 0;
    do {
        n = read(fds[0], &ready, 1);
    } while (n < 0 && errno == EINTR);
    Clock::time_point t1 = Clock::now();
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (n != 1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        fatal("perfbench: the set-up run failed (status %d)", status);
    return seconds(t0, t1);
}

int
runTimed(const Workload &w, const Options &o)
{
    Tally tally;
    // A set-up takes milliseconds, so take the median of many. Its
    // time follows the host's load from one second to the next, so a
    // batch of set-up runs goes before every sweep repetition and the
    // samples span the run like the sweeps do. It also differs by which
    // CPU the process starts on, so the set-up runs start on each
    // allowed CPU in turn; otherwise wherever the scheduler happens to
    // keep this process would set the run's median.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
        }
    }
    std::vector<double> setup;
    auto setupBatch = [&] {
        for (int k = 0; k < 24; ++k) {
            if (!cpus.empty()) {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(cpus[setup.size() % cpus.size()], &one);
                sched_setaffinity(0, sizeof(one), &one);
            }
            setup.push_back(setupSeconds(o));
        }
        if (!cpus.empty())
            sched_setaffinity(0, sizeof(allowed), &allowed);
    };
    std::vector<Sweep> reps;
    Clock::time_point start = Clock::now();
    // At least three repetitions, so the median has a middle.
    while (reps.size() < 3 || seconds(start, Clock::now()) < o.seconds) {
        setupBatch();
        reps.push_back(runSweep(w, o.seed, o.workers, tally));
    }
    double rss = peakRssMb();

    std::vector<std::size_t> all(w.points.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    for (const Sweep &s : reps) {
        checkSpeedups(w, s, tally);
        checkSame(w, reps[0], s, all, "a repeated sweep", tally);
    }

    // Measurement-window counts: the same plan with metrics collection
    // on, which must not change a result.
    Sweep counted = withEnv("HIRA_METRICS", "counters", [&] {
        return runSweep(w, o.seed, o.workers, tally);
    });
    checkSame(w, reps[0], counted, all, "the metrics-on sweep", tally);
    std::vector<Audit> audits = auditTraces(w, o.seed, o.workers, tally);
    std::vector<double> meanWs;
    std::vector<RefreshStats> window;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        if (audits[i].violations > 0) {
            tally.fail(1, strprintf("%s: %zu timing violations, first %s",
                                    pointLabel(w.points[i]).c_str(),
                                    audits[i].violations,
                                    audits[i].first.c_str()));
        }
    }
    for (std::size_t i = 0; counted.ok && i < w.points.size(); ++i) {
        const SweepPoint &p = w.points[i];
        const PointResult &r = counted.points[i];
        RefreshStats rs = windowRefresh(r.metrics);
        rs.preventiveGenerated += audits[i].paraGenerated;
        meanWs.push_back(r.meanWs);
        window.push_back(rs);
        std::uint64_t writes = sumCounter(r.metrics, "ctrl", "writes_served");
        std::uint64_t preventive = rs.preventiveGenerated;
        std::printf("point %-40s ws %.6f row_refreshes %llu preventive "
                    "%llu writes %llu\n",
                    pointLabel(p).c_str(), r.meanWs,
                    static_cast<unsigned long long>(rs.rowRefreshes),
                    static_cast<unsigned long long>(preventive),
                    static_cast<unsigned long long>(writes));
        // Guards that the workload still exercises what it is for.
        if (isHiraPoint(p) && rs.rowRefreshes == 0)
            tally.fail(w.mixes, pointLabel(p) + ": HiRA refreshed no row");
        if (isPreventivePoint(p) && preventive == 0)
            tally.fail(w.mixes, pointLabel(p) +
                                    ": no preventive refresh generated");
        if (w.name == "multichannel_light" && writes == 0)
            tally.fail(w.mixes, pointLabel(p) +
                                    ": no write served in the window");
    }

    // The dense cycle loop is the reference engine.
    std::vector<SweepPoint> sample;
    for (std::size_t i : w.densePoints)
        sample.push_back(w.points[i]);
    Sweep dense = withEnv("HIRA_ENGINE", "cycle", [&] {
        return runSweep(w, o.seed, o.workers, tally, sample);
    });
    checkSame(w, reps[0], dense, w.densePoints, "the cycle-engine rerun",
              tally);

    if (counted.ok) {
        // The simulated work of this seed's plan, for comparing seeds.
        std::uint64_t executed = 0, commands = 0;
        for (const PointResult &r : counted.points) {
            executed += counter(r.metrics, "kernel.executed_cycles");
            for (const char *c : {"cmd.act", "cmd.pre", "cmd.ref", "cmd.hira",
                                  "reads_served", "writes_served"})
                commands += sumCounter(r.metrics, "ctrl", c);
        }
        std::printf("work executed_cycles %llu commands %llu\n",
                    static_cast<unsigned long long>(executed),
                    static_cast<unsigned long long>(commands));
        std::printf("digest %016llx\n",
                    static_cast<unsigned long long>(
                        resultDigest(meanWs, window)));
        printFidelity(w, counted.points);
    }

    std::vector<double> wall, cpu, rate;
    for (const Sweep &s : reps) {
        if (!s.ok)
            continue;
        wall.push_back(s.wallSeconds);
        cpu.push_back(s.cpuSeconds);
        rate.push_back(1e-6 * static_cast<double>(s.simCycles) /
                       s.cpuSeconds);
    }
    if (wall.empty()) {
        std::fprintf(stderr, "perfbench: no sweep completed\n");
        return 1;
    }
    std::printf("repetitions %zu workers %d mixes %d points %zu\n",
                reps.size(), o.workers, w.mixes, w.points.size());
    printResult(tally, {
                           {"wall_s", median(wall), "s"},
                           {"cpu_s", median(cpu), "s"},
                           {"mcycles_per_cpu_s", median(rate), "Mcycles/s"},
                           {"setup_s", median(setup), "s"},
                           {"peak_rss_mb", rss, "MB"},
                       });
    return 0;
}

} // namespace

namespace perfbench {

void
Tally::fail(std::uint64_t n, const std::string &why)
{
    failed += n;
    std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
}

Sweep
runSweep(const Workload &w, std::uint64_t seed, int workers, Tally &tally,
         const std::vector<SweepPoint> &plan)
{
    Sweep s;
    const std::vector<SweepPoint> &pts = plan.empty() ? w.points : plan;
    double cpu0 = processCpuSeconds();
    Clock::time_point t0 = Clock::now();
    try {
        SweepRunner runner(benchKnobs(workers), drawMixes(w, seed));
        runner.setResultCache(nullptr);
        s.points = runner.runPoints(pts);
        s.aloneRuns = runner.aloneRunCount();
        s.ok = true;
    } catch (const std::exception &e) {
        tally.fail(pts.size() * static_cast<std::size_t>(w.mixes),
                   strprintf("sweep threw: %s", e.what()));
    }
    // The runner's destructor joined its workers: the sweep is over.
    Clock::time_point t1 = Clock::now();
    s.wallSeconds = seconds(t0, t1);
    s.cpuSeconds = processCpuSeconds() - cpu0;
    s.simCycles = s.aloneRuns *
                  static_cast<std::uint64_t>(kWarmupCycles + kMeasureCycles);
    for (const PointResult &r : s.points)
        s.simCycles += r.simCycles;
    tally.attempted +=
        pts.size() * static_cast<std::size_t>(w.mixes) + s.aloneRuns;
    return s;
}

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::string body;
    for (const Metric &m : metrics) {
        double v = std::isfinite(m.value) ? m.value : 0.0;
        body += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          body.empty() ? "" : ", ", m.name.c_str(), v,
                          m.unit.c_str());
    }
    bool correct = tally.failed == 0 && tally.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed), body.c_str());
    std::fflush(stdout);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    refuseHiraEnvironment();
    const Workload *w = workloadByName(o.workload);
    if (w == nullptr)
        usage(("unknown workload " + o.workload).c_str());
    if (o.setupFd >= 0) {
        // Set-up mode: report the first simulation ready, then leave
        // without tearing anything down. The parent started this
        // process on one CPU; its workers may use any.
        cpu_set_t any;
        std::memset(&any, 0xff, sizeof(any));
        sched_setaffinity(0, sizeof(any), &any);
        setUpFirstSimulation(*w, o.seed, o.workers, [&] {
            char ready = 1;
            _exit(write(o.setupFd, &ready, 1) == 1 ? 0 : 1);
        });
    }
    return o.trace ? runTraced(*w, o.seed, o.workers, o.spans)
                   : runTimed(*w, o);
}
