/**
 * @file
 * Result-cache benchmark: runs a fig09-style scheme x capacity grid
 * twice against a private cache directory —
 * cold (everything simulates, entries commit) then warm (a fresh
 * runner on the same directory) — and reports the wall-clock and
 * counter evidence that the warm pass simulated NOTHING and
 * reproduced the cold numbers bitwise. The warm pass self-asserts
 * both properties, so this driver doubles as an end-to-end check
 * wherever it runs (it is a smoke-tier ctest entry like every other
 * bench driver).
 *
 * The cache directory is a fresh mkdtemp per invocation: this driver
 * measures the cache itself and must not be poisoned by (or poison) an
 * ambient HIRA_RESULT_CACHE.
 */

#include <chrono>
#include <filesystem>

#include <stdlib.h>

#include "bench_util.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"

using namespace hira;
using namespace hira::benchutil;

namespace {

struct PassOutcome
{
    double seconds = 0.0;
    std::vector<PointResult> results;
    std::uint64_t simulated = 0;
    std::uint64_t fromCache = 0;
    std::uint64_t aloneRuns = 0;
};

/** Build the grid once; both passes must queue identical plans. */
std::vector<SweepPoint>
buildPlan()
{
    std::vector<SweepPoint> plan;
    const std::vector<double> capacities = {8, 32, 128};
    for (double cap : capacities) {
        GeomSpec g;
        g.capacityGb = cap;
        SchemeSpec none;
        none.kind = SchemeKind::NoRefresh;
        plan.push_back(SweepPoint{g, none});
        SchemeSpec base;
        base.kind = SchemeKind::Baseline;
        plan.push_back(SweepPoint{g, base});
        SchemeSpec hira;
        hira.kind = SchemeKind::HiraMc;
        hira.slackN = 2;
        plan.push_back(SweepPoint{g, hira});
    }
    return plan;
}

PassOutcome
runPass(const std::string &name, const std::string &cacheDir,
        const BenchKnobs &knobs, const std::vector<WorkloadMix> &mixes,
        const std::vector<SweepPoint> &plan)
{
    SweepRunner runner(knobs, mixes);
    runner.setResultCache(std::make_unique<ResultCache>(cacheDir));
    auto t0 = std::chrono::steady_clock::now();
    PassOutcome out;
    out.results = runner.runPoints(plan);
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    out.simulated = runner.pointsSimulated();
    out.fromCache = runner.pointsFromCache();
    out.aloneRuns = runner.aloneRunCount();
    for (std::size_t i = 0; i < plan.size(); ++i) {
        recordPointTiming(strprintf("%s: %s @ %s", name.c_str(),
                                    plan[i].scheme.label().c_str(),
                                    plan[i].geom.key().c_str()),
                          out.results[i].wallSeconds,
                          out.results[i].simCycles,
                          out.results[i].cacheHit);
    }
    recordCacheStats(runner);
    return out;
}

} // namespace

int
main()
{
    BenchKnobs knobs = BenchKnobs::fromEnv();
    banner("Result cache - cold vs warm sweep",
           "infra: warm rerun serves every point from the "
           "content-addressed cache, bitwise-identical, zero "
           "simulation");
    knobsLine(knobs);

    std::string templ = "/tmp/hira_bench_rcache.XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr)
        fatal("mkdtemp(%s) failed", templ.c_str());
    std::string cacheDir = buf.data();

    std::vector<WorkloadMix> mixes = mixesFromEnv(knobs);
    std::vector<SweepPoint> plan = buildPlan();

    PassOutcome cold = runPass("cold", cacheDir, knobs, mixes, plan);
    PassOutcome warm = runPass("warm", cacheDir, knobs, mixes, plan);

    // The whole point: warm simulates nothing and agrees bitwise.
    hira_assert(warm.simulated == 0);
    hira_assert(warm.fromCache == plan.size());
    hira_assert(warm.aloneRuns == 0);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        hira_assert(warm.results[i].cacheHit);
        hira_assert(warm.results[i].meanWs == cold.results[i].meanWs);
        hira_assert(warm.results[i].refresh.rowRefreshes ==
                    cold.results[i].refresh.rowRefreshes);
        hira_assert(warm.results[i].refresh.refCommands ==
                    cold.results[i].refresh.refCommands);
    }

    seriesHeader("pass", {"seconds", "simmed", "cached", "alone"});
    seriesRow("cold", {cold.seconds, static_cast<double>(cold.simulated),
                       static_cast<double>(cold.fromCache),
                       static_cast<double>(cold.aloneRuns)});
    seriesRow("warm", {warm.seconds, static_cast<double>(warm.simulated),
                       static_cast<double>(warm.fromCache),
                       static_cast<double>(warm.aloneRuns)});
    std::printf("\nwarm pass: %zu/%zu points from cache, %.0fx faster "
                "than cold (%.3fs vs %.3fs)\n",
                static_cast<std::size_t>(warm.fromCache), plan.size(),
                warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0,
                cold.seconds, warm.seconds);
    note(strprintf("warm pass verified bitwise against cold over %zu "
                   "points",
                   plan.size()));
    footer();
    std::filesystem::remove_all(cacheDir);
    return 0;
}
