/**
 * @file
 * Kill -9 resume of a cached sweep: runPoints() commits each point by
 * atomic rename as soon as its last mix finishes, so a sweep killed
 * mid-plan leaves exactly its finished points behind, and rerunning
 * the same plan against the same HIRA_RESULT_CACHE directory serves
 * those from disk and simulates only the rest.
 *
 * A forked child runs a 6-point plan through a plain SweepRunner (the
 * cache comes from the environment) as ONE runPoints() call, as a
 * SweepGrid driver does, and is sent SIGKILL once the first .point
 * entry appears. The kill must land mid-plan: at least one point and
 * not all of them committed. The parent then checks that the rerun
 * serves exactly the committed points, simulates the remainder,
 * matches an uncached run bitwise, and that a third, warm pass
 * simulates nothing.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <thread>
#include <vector>

#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/experiment.hh"
#include "sim/result_cache.hh"

using namespace hira;

namespace {

BenchKnobs
planKnobs()
{
    BenchKnobs k;
    k.warmup = 2000;
    k.cycles = 60000;
    // One worker: points complete, and commit, one after another.
    k.threads = 1;
    return k;
}

std::vector<WorkloadMix>
planMixes()
{
    return {{"mcf-like", "gcc-like"}, {"libquantum-like", "h264-like"}};
}

std::vector<SweepPoint>
sixPointPlan()
{
    std::vector<SweepPoint> plan(6);
    plan[0].scheme.kind = SchemeKind::Baseline;
    for (int i = 1; i <= 3; ++i) {
        plan[i].scheme.kind = SchemeKind::HiraMc;
        plan[i].scheme.slackN = 1 << i; // HiRA-2, -4, -8
    }
    plan[4].scheme.kind = SchemeKind::Rfm;
    plan[5].scheme.kind = SchemeKind::Prac;
    return plan;
}

std::size_t
committedPoints(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() == ".point")
            ++n;
    }
    return n;
}

void
expectBitwiseEqual(const std::vector<PointResult> &got,
                   const std::vector<PointResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].meanWs, want[i].meanWs) << "point " << i;
        EXPECT_EQ(got[i].simCycles, want[i].simCycles) << "point " << i;
        EXPECT_EQ(got[i].refresh.refCommands, want[i].refresh.refCommands);
        EXPECT_EQ(got[i].refresh.rowRefreshes,
                  want[i].refresh.rowRefreshes);
        EXPECT_EQ(got[i].refresh.accessPaired,
                  want[i].refresh.accessPaired);
        EXPECT_EQ(got[i].refresh.refreshPaired,
                  want[i].refresh.refreshPaired);
        EXPECT_EQ(got[i].refresh.standalone, want[i].refresh.standalone);
        EXPECT_EQ(got[i].refresh.deadlineMisses,
                  want[i].refresh.deadlineMisses);
        EXPECT_EQ(got[i].refresh.preventiveGenerated,
                  want[i].refresh.preventiveGenerated);
        EXPECT_EQ(got[i].refresh.preventiveDropped,
                  want[i].refresh.preventiveDropped);
    }
}

} // namespace

TEST(SweepResume, KilledSweepResumesFromCommittedPoints)
{
    // Pin every environment input of the cache key.
    ::setenv("HIRA_ENGINE", "event", 1);
    ::unsetenv("HIRA_METRICS");
    ::unsetenv("HIRA_STANDARD");
    ::unsetenv("HIRA_CORPUS");
    ::unsetenv("HIRA_RESULT_CACHE");
    std::string templ = "/tmp/hira_resume.XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    const std::string dir = buf.data();
    const std::vector<SweepPoint> plan = sixPointPlan();

    // The uncached reference. The runner (and its worker threads) is
    // gone before the fork below, so the child starts single-threaded.
    std::vector<PointResult> want;
    {
        SweepRunner plain(planKnobs(), planMixes());
        ASSERT_EQ(plain.resultCache(), nullptr);
        want = plain.runPoints(plan);
    }

    ::setenv("HIRA_RESULT_CACHE", dir.c_str(), 1);
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        SweepRunner runner(planKnobs(), planMixes());
        runner.runPoints(plan);
        ::_exit(0);
    }

    // SIGKILL the child as soon as its first point is on disk.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(300);
    while (committedPoints(dir) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    const std::size_t committed = committedPoints(dir);
    ASSERT_GE(committed, 1u) << "no point was committed before the kill";
    ASSERT_LT(committed, plan.size())
        << "every point was committed before the kill";
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    std::printf("killed after %zu of %zu points\n", committed,
                plan.size());

    // Resume: the same plan, the same cache directory.
    SweepRunner resumed(planKnobs(), planMixes());
    ASSERT_NE(resumed.resultCache(), nullptr);
    std::vector<PointResult> got = resumed.runPoints(plan);
    EXPECT_EQ(resumed.pointsFromCache(), committed);
    EXPECT_EQ(resumed.pointsSimulated(), plan.size() - committed);
    expectBitwiseEqual(got, want);

    // Warm: everything is on disk now.
    SweepRunner warm(planKnobs(), planMixes());
    std::vector<PointResult> warmOut = warm.runPoints(plan);
    EXPECT_EQ(warm.pointsSimulated(), 0u);
    EXPECT_EQ(warm.pointsFromCache(), plan.size());
    expectBitwiseEqual(warmOut, want);

    ::unsetenv("HIRA_RESULT_CACHE");
    ::unsetenv("HIRA_ENGINE");
    std::filesystem::remove_all(dir);
}
