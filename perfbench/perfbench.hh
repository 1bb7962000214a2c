/**
 * @file
 * Shared declarations of the repository benchmark: the workloads (which
 * profiles their 8-core mixes draw from and which sweep points they
 * run), the sweep the timed and traced runs both make, the failure
 * tally, the result digest and the result printer.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/system.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Bus cycles per simulation: the repository's default bench scale. */
constexpr std::int64_t kWarmupCycles = 30000;
constexpr std::int64_t kMeasureCycles = 150000;
constexpr int kCores = 8;

/** One named workload: a fixed plan over mixes drawn by the seed. */
struct Workload
{
    std::string name;
    /** Pool profiles (without the "-like" suffix) mixes draw from. */
    std::vector<std::string> profiles;
    int mixes = 0;
    std::vector<hira::SweepPoint> points;
    /** Points the timed run re-runs on the dense cycle engine. */
    std::vector<std::size_t> densePoints;
    /** Point whose first mix the traced run's layer probe replays. */
    std::size_t probePoint = 0;
};

/** The workload called @p name, or nullptr. */
const Workload *workloadByName(const std::string &name);

/** Names of every workload, in definition order. */
std::vector<std::string> workloadNames();

/**
 * The workload's mixes for @p seed: the seed deals the workload's
 * profiles over the plan's cores, each profile to the same number.
 */
std::vector<hira::WorkloadMix> drawMixes(const Workload &w,
                                         std::uint64_t seed);

/** Sweep knobs: the bench scale above on @p workers threads. */
hira::BenchKnobs benchKnobs(int workers);

/**
 * The set-up a sweep makes before its first simulation runs: draw the
 * mixes, construct the SweepRunner (its pool spawns the workers) and
 * construct the System of the plan's first point and mix. Calls
 * @p ready while the runner and the System are still alive.
 */
void setUpFirstSimulation(const Workload &w, std::uint64_t seed,
                          int workers, const std::function<void()> &ready);

/** Simulations a runPoints() of the plan runs besides the alone runs. */
std::size_t pointSims(const Workload &w);

/** The counter called @p name, or 0. */
std::uint64_t counter(const hira::MetricsSnapshot &m, const std::string &name);

/** Sum of every "<prefix><n>.<name>" counter, e.g. ctrl*.cmd.act. */
std::uint64_t sumCounter(const hira::MetricsSnapshot &m,
                         const std::string &prefix,
                         const std::string &name);

/** Measurement-window RefreshStats summed over channels. */
hira::RefreshStats windowRefresh(const hira::MetricsSnapshot &m);

/**
 * Preventive refreshes immediate PARA has generated so far, summed over
 * channels. The controller performs them itself, so no RefreshStats
 * counts them; every other scheme leaves this at 0.
 */
std::uint64_t paraGenerated(hira::System &sys);

/**
 * Digest of a plan's results: every point's meanWs bits and its
 * measurement-window RefreshStats, in plan order.
 */
std::uint64_t resultDigest(const std::vector<double> &meanWs,
                           const std::vector<hira::RefreshStats> &window);

/** Human label of a point: "<scheme> @ <geometry>". */
std::string pointLabel(const hira::SweepPoint &p);

/** Seconds between two clock readings. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** User+system CPU seconds of the whole process so far. */
double processCpuSeconds();

/** Simulations attempted and failed, with the reason of each failure. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Record @p n failed simulations and say why on stderr. */
    void fail(std::uint64_t n, const std::string &why);
};

/** One sweep of a workload's plan with the result cache off. */
struct Sweep
{
    double wallSeconds = 0.0;  //!< start to all points reduced
    double cpuSeconds = 0.0;   //!< process user+sys over the same span
    std::uint64_t simCycles = 0; //!< bus cycles, alone runs included
    std::uint64_t aloneRuns = 0;
    std::vector<hira::PointResult> points;
    bool ok = false; //!< false: runPoints threw (see Tally)
};

/**
 * Draw the mixes for @p seed, build a runner on @p workers threads and
 * evaluate @p plan (the whole workload plan when empty).
 */
Sweep runSweep(const Workload &w, std::uint64_t seed, int workers,
               Tally &tally,
               const std::vector<hira::SweepPoint> &plan = {});

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Print the result object as the last line of stdout: correct,
 * attempted, failed and every metric with all its digits.
 */
void printResult(const Tally &tally, const std::vector<Metric> &metrics);

/** The traced run (--trace 1): per-layer metrics. Returns exit code. */
int runTraced(const Workload &w, std::uint64_t seed, int workers,
              const std::string &spansPath);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
