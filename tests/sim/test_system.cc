/**
 * @file
 * Integration tests of the full system: determinism, refresh-scheme
 * ordering (NoRefresh >= HiRA >= Baseline at high capacity), PARA
 * overheads, weighted speedup, and full-system trace audits of every
 * refresh scheme on DDR4 and DDR5.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "dram/timing_checker.hh"
#include "sim/experiment.hh"
#include "sim/scheme_registry.hh"

using namespace hira;

namespace {

constexpr Cycle kWarm = 20000;
constexpr Cycle kRun = 60000;

WorkloadMix
memHeavyMix()
{
    return {"mcf-like", "libquantum-like", "lbm-like", "gems-like",
            "soplex-like", "milc-like", "leslie3d-like", "omnetpp-like"};
}

double
sumIpc(const std::vector<double> &ipc)
{
    double s = 0.0;
    for (double v : ipc)
        s += v;
    return s;
}

RunResult
quickRun(const GeomSpec &g, const SchemeSpec &s, const WorkloadMix &mix,
         std::uint64_t seed = 77)
{
    return runOne(makeSystemConfig(g, s, mix, seed), kWarm, kRun);
}

} // namespace

TEST(SystemSim, DeterministicAcrossRuns)
{
    GeomSpec g;
    SchemeSpec s;
    s.kind = SchemeKind::Baseline;
    RunResult a = quickRun(g, s, memHeavyMix());
    RunResult b = quickRun(g, s, memHeavyMix());
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_DOUBLE_EQ(a.ipc[i], b.ipc[i]);
}

TEST(SystemSim, AllCoresMakeProgress)
{
    GeomSpec g;
    SchemeSpec s;
    RunResult r = quickRun(g, s, memHeavyMix());
    for (double ipc : r.ipc)
        EXPECT_GT(ipc, 0.005);
    EXPECT_GT(r.sys.memReads, 1000u);
}

TEST(SystemSim, RefreshCostsPerformanceAtHighCapacity)
{
    // Fig. 9a's first-order effect: at 128 Gb the baseline pays heavily
    // for tRFC; the ideal No-Refresh system does not.
    GeomSpec g;
    g.capacityGb = 128.0;
    SchemeSpec none, base;
    none.kind = SchemeKind::NoRefresh;
    base.kind = SchemeKind::Baseline;
    double ipc_none = sumIpc(quickRun(g, none, memHeavyMix()).ipc);
    double ipc_base = sumIpc(quickRun(g, base, memHeavyMix()).ipc);
    EXPECT_LT(ipc_base, ipc_none * 0.90);
}

TEST(SystemSim, HiraBeatsBaselineAtHighCapacity)
{
    // The paper's headline (Fig. 9b): HiRA-2 outperforms rank-level REF
    // for high-capacity chips on memory-intensive workloads.
    GeomSpec g;
    g.capacityGb = 128.0;
    SchemeSpec base, hira;
    base.kind = SchemeKind::Baseline;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;
    double ipc_base = sumIpc(quickRun(g, base, memHeavyMix()).ipc);
    double ipc_hira = sumIpc(quickRun(g, hira, memHeavyMix()).ipc);
    EXPECT_GT(ipc_hira, ipc_base * 1.02);
}

TEST(SystemSim, HiraRefreshRateMatchesSchedule)
{
    GeomSpec g;
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 2;
    RunResult r = quickRun(g, hira, memHeavyMix());
    // Expected row refreshes over warmup+run: banks * cycles / interval.
    TimingCycles tc(g.toTiming());
    double interval = static_cast<double>(tc.refi) * 8192.0 /
                      static_cast<double>(g.toGeometry()
                                              .refreshGroupsPerBank);
    double expected =
        static_cast<double>(kWarm + kRun) / interval * 16.0;
    EXPECT_NEAR(static_cast<double>(r.sys.refresh.rowRefreshes), expected,
                expected * 0.15);
    EXPECT_EQ(r.sys.refresh.refCommands, 0u);
}

TEST(SystemSim, ParaSlowsSystemMoreAtLowerNrh)
{
    GeomSpec g;
    SchemeSpec none, p1024, p64;
    none.kind = SchemeKind::Baseline;
    p1024 = none;
    p1024.paraEnabled = true;
    p1024.nrh = 1024.0;
    p64 = p1024;
    p64.nrh = 64.0;
    double ipc_none = sumIpc(quickRun(g, none, memHeavyMix()).ipc);
    double ipc_1024 = sumIpc(quickRun(g, p1024, memHeavyMix()).ipc);
    double ipc_64 = sumIpc(quickRun(g, p64, memHeavyMix()).ipc);
    EXPECT_LT(ipc_1024, ipc_none);
    EXPECT_LT(ipc_64, ipc_1024 * 0.6); // NRH=64 is devastating (Fig. 12)
}

TEST(SystemSim, HiraRecoversParaOverheadAtLowNrh)
{
    // Fig. 12b: HiRA-4 gives a large speedup over plain PARA at NRH=64.
    GeomSpec g;
    SchemeSpec para, hira;
    para.kind = SchemeKind::Baseline;
    para.paraEnabled = true;
    para.nrh = 64.0;
    hira = para;
    hira.preventiveViaHira = true;
    hira.slackN = 4;
    double ipc_para = sumIpc(quickRun(g, para, memHeavyMix()).ipc);
    double ipc_hira = sumIpc(quickRun(g, hira, memHeavyMix()).ipc);
    EXPECT_GT(ipc_hira, ipc_para * 1.2);
}

TEST(SystemSim, WeightedSpeedupMath)
{
    EXPECT_DOUBLE_EQ(weightedSpeedup({1.0, 2.0}, {2.0, 2.0}), 1.5);
    EXPECT_DOUBLE_EQ(weightedSpeedup({0.5}, {1.0}), 0.5);
}

TEST(SystemSim, MultiChannelImprovesThroughput)
{
    GeomSpec one, four;
    four.channels = 4;
    SchemeSpec s;
    double ipc1 = sumIpc(quickRun(one, s, memHeavyMix()).ipc);
    double ipc4 = sumIpc(quickRun(four, s, memHeavyMix()).ipc);
    EXPECT_GT(ipc4, ipc1 * 1.3);
}

namespace {

/**
 * One audited configuration per SchemeKind: immediate PARA on Baseline
 * and PreventiveRC PARA on HiRA-MC, so the preventive-refresh paths of
 * both controller modes issue commands too, and PRAC and Graphene
 * thresholds low enough that benign mixes trigger their refreshes
 * within the run on both standards.
 */
SchemeSpec
auditedScheme(SchemeKind kind)
{
    SchemeSpec s;
    s.kind = kind;
    if (kind == SchemeKind::Baseline) {
        s.paraEnabled = true;
        s.nrh = 256.0;
    } else if (kind == SchemeKind::HiraMc) {
        s.slackN = 4;
        s.paraEnabled = true;
        s.preventiveViaHira = true;
        s.nrh = 512.0;
    } else if (kind == SchemeKind::Prac) {
        s.pracThreshold = 8;
    } else if (kind == SchemeKind::Graphene) {
        s.nrh = 16.0; // tracker threshold nrh / 4
    }
    return s;
}

class SystemTraceAudit
    : public ::testing::TestWithParam<std::tuple<SchemeKind, const char *>>
{
};

} // namespace

TEST_P(SystemTraceAudit, EveryChannelAuditsClean)
{
    // End-to-end protocol audit: every channel's command trace from a
    // full-system run of the scheme is legal under the standard's DDR
    // timing, as checked by the independent TimingChecker.
    const auto [kind, standard] = GetParam();
    GeomSpec g;
    g.standard = standard;
    g.capacityGb = standardByName(standard).defaultCapacityGb;
    g.channels = 2;
    g.ranks = 2;
    SystemConfig cfg =
        makeSystemConfig(g, auditedScheme(kind), memHeavyMix(), 3);
    cfg.recordTraces = true;
    System sys(cfg);
    sys.run(30000);
    // The scheme's own refreshes must be in the traces being audited.
    const SystemResult r = sys.result();
    if (kind == SchemeKind::Baseline) {
        EXPECT_GT(r.controller.refs, 0u);
    } else if (kind != SchemeKind::NoRefresh) {
        EXPECT_GT(r.refresh.rowRefreshes, 0u);
    }
    TimingChecker checker(cfg.geom, cfg.tp);
    for (int ch = 0; ch < sys.channels(); ++ch) {
        std::vector<Command> trace = sys.controller(ch).trace();
        EXPECT_FALSE(trace.empty()) << "channel " << ch;
        auto violations = checker.check(trace);
        EXPECT_TRUE(violations.empty())
            << "channel " << ch << ": " << violations.size()
            << " violations, first: "
            << (violations.empty() ? "" : violations[0].message);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByStandard, SystemTraceAudit,
    ::testing::Combine(
        ::testing::Values(SchemeKind::NoRefresh, SchemeKind::Baseline,
                          SchemeKind::HiraMc, SchemeKind::Rfm,
                          SchemeKind::Prac, SchemeKind::Graphene),
        ::testing::Values("ddr4_2400", "ddr5_4800")),
    [](const auto &p) {
        return std::string(schemeEntryByKind(std::get<0>(p.param)).name) +
               "_" + std::get<1>(p.param);
    });
