/**
 * @file
 * Tests for the experiment-spec layer: spec-to-config wiring (including
 * the slack-adjusted PARA thresholds of §9.1 step 4), labels/keys, and
 * SweepRunner determinism at a tiny scale.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "security/para_analysis.hh"
#include "sim/experiment.hh"

using namespace hira;

TEST(ExperimentSpec, GeomKeyDistinguishesPoints)
{
    GeomSpec a, b;
    b.capacityGb = 32.0;
    GeomSpec c;
    c.ranks = 4;
    GeomSpec d;
    d.capacityGb = 8.04; // must not collapse onto 8.0 (%.17g key)
    EXPECT_NE(a.key(), b.key());
    EXPECT_NE(a.key(), c.key());
    EXPECT_NE(a.key(), d.key());
    EXPECT_EQ(a.key(), GeomSpec().key());
}

TEST(ExperimentSpec, GeomKeySeparatesMemoryStandards)
{
    // The DDR4 default keeps the historical key (so the pre-registry
    // golden seeds and alone-IPC cache keys stay valid); any other
    // standard gets its own suffix, hence its own RNG streams and
    // cache slots.
    GeomSpec d4;
    EXPECT_EQ(d4.key(), "c8-ch1-rk1");
    GeomSpec d5;
    d5.standard = "ddr5_4800";
    EXPECT_EQ(d5.key(), "c8-ch1-rk1-sddr5_4800");
    EXPECT_NE(sweepRunSeed(d4.key(), SchemeSpec().seedKey(), 0),
              sweepRunSeed(d5.key(), SchemeSpec().seedKey(), 0));
}

TEST(ExperimentSpec, SchemeLabels)
{
    SchemeSpec s;
    s.kind = SchemeKind::HiraMc;
    s.slackN = 4;
    EXPECT_EQ(s.label(), "HiRA-4");
    s.paraEnabled = true;
    s.preventiveViaHira = true;
    EXPECT_EQ(s.label(), "HiRA-4+PARA(HiRA)");
    SchemeSpec b;
    b.paraEnabled = true;
    EXPECT_EQ(b.label(), "Baseline+PARA");
}

TEST(ExperimentSpec, GeometryWiring)
{
    GeomSpec g;
    g.capacityGb = 32.0;
    g.channels = 2;
    g.ranks = 4;
    Geometry geom = g.toGeometry();
    EXPECT_EQ(geom.channels, 2);
    EXPECT_EQ(geom.ranksPerChannel, 4);
    EXPECT_EQ(geom.rowsPerBank, 262144u);
    EXPECT_NEAR(g.toTiming().tRFC, TimingParams::scaledRfc(32.0), 1e-9);
}

TEST(ExperimentSpec, ImmediateParaConfigUsesZeroSlackPth)
{
    GeomSpec g;
    SchemeSpec s;
    s.kind = SchemeKind::Baseline;
    s.paraEnabled = true;
    s.nrh = 256.0;
    SystemConfig cfg = makeSystemConfig(g, s, {"gcc-like"}, 1);
    EXPECT_EQ(cfg.scheme, SchemeKind::Baseline);
    EXPECT_TRUE(cfg.para.enabled);
    EXPECT_NEAR(cfg.para.pth, solvePth(256.0, 0.0), 1e-9);
    EXPECT_FALSE(cfg.hira.preventive.enabled);
}

TEST(ExperimentSpec, PreventiveViaHiraUsesSlackAdjustedPth)
{
    GeomSpec g;
    SchemeSpec s;
    s.kind = SchemeKind::Baseline; // periodic stays REF (Fig. 12)
    s.paraEnabled = true;
    s.preventiveViaHira = true;
    s.slackN = 4;
    s.nrh = 128.0;
    SystemConfig cfg = makeSystemConfig(g, s, {"gcc-like"}, 1);
    EXPECT_EQ(cfg.scheme, SchemeKind::HiraMc);
    EXPECT_FALSE(cfg.hira.periodicViaHira);
    EXPECT_TRUE(cfg.hira.preventive.enabled);
    double expect =
        solvePth(128.0, slackActivations(4 * cfg.tp.tRC));
    EXPECT_NEAR(cfg.hira.preventive.pth, expect, 1e-9);
    // The slack-adjusted threshold exceeds the zero-slack one.
    EXPECT_GT(cfg.hira.preventive.pth, solvePth(128.0, 0.0));
    EXPECT_FALSE(cfg.para.enabled);
}

TEST(ExperimentSpec, AblationSwitchesWiring)
{
    GeomSpec g;
    SchemeSpec s;
    s.kind = SchemeKind::HiraMc;
    s.accessPairing = false;
    s.pullAhead = false;
    s.sptIsolation = 0.6;
    SystemConfig cfg = makeSystemConfig(g, s, {"gcc-like"}, 1);
    EXPECT_FALSE(cfg.hira.enableAccessPairing);
    EXPECT_FALSE(cfg.hira.enablePullAhead);
    EXPECT_DOUBLE_EQ(cfg.hira.sptIsolation, 0.6);
}

TEST(ExperimentSpec, SweepRunSeedGoldenValues)
{
    // Pinned golden values for the per-run seeding (PR 3): the seed
    // folds geometry key, scheme seedKey(), and mix index, so no two
    // distinct sweep points share per-mix RNG streams.
    // hashString/hashCombine are pure and platform-independent
    // (src/common/rng.hh contract) and seedKey() round-trips doubles
    // with %.17g, so these constants must hold everywhere; changing
    // the seeding scheme is a results-breaking change and must update
    // them.
    GeomSpec g8; // c8-ch1-rk1
    GeomSpec g32;
    g32.capacityGb = 32.0;
    g32.channels = 4; // c32-ch4-rk1
    SchemeSpec base;  // Baseline defaults
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    hira.slackN = 4; // HiRA-4

    EXPECT_EQ(sweepRunSeed(g8.key(), base.seedKey(), 0),
              0x72aa31c0132305ebULL);
    EXPECT_EQ(sweepRunSeed(g8.key(), base.seedKey(), 1),
              0x9ae0765635c97ce0ULL);
    EXPECT_EQ(sweepRunSeed(g32.key(), hira.seedKey(), 0),
              0xdb04ae1bf281e7d9ULL);
    EXPECT_EQ(sweepRunSeed(g32.key(), hira.seedKey(), 5),
              0xecd98b6eb9805dfaULL);

    // Zoo schemes and the DDR5 standard (PR 9): the registry's seed-key
    // suffixes and the geometry key's standard suffix feed these, so
    // they pin both extension points.
    GeomSpec d5; // c16-ch1-rk1-sddr5_4800
    d5.standard = "ddr5_4800";
    d5.capacityGb = 16.0;
    SchemeSpec rfm;
    rfm.kind = SchemeKind::Rfm;
    SchemeSpec prac;
    prac.kind = SchemeKind::Prac;
    SchemeSpec trr;
    trr.kind = SchemeKind::Graphene;
    EXPECT_EQ(sweepRunSeed(g8.key(), rfm.seedKey(), 0),
              0x7e7c4b19108796e2ULL);
    EXPECT_EQ(sweepRunSeed(d5.key(), prac.seedKey(), 0),
              0x2c546b0a162ebefdULL);
    EXPECT_EQ(sweepRunSeed(d5.key(), trr.seedKey(), 3),
              0xaa9922a0e6ff55a2ULL);
    EXPECT_EQ(sweepRunSeed(d5.key(), base.seedKey(), 0),
              0x5adc4089828c2946ULL);
}

TEST(ExperimentSpec, SweepRunSeedDistinguishesEveryAxis)
{
    GeomSpec g;
    GeomSpec g2;
    g2.channels = 2;
    SchemeSpec base;
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;

    std::uint64_t s = sweepRunSeed(g.key(), base.seedKey(), 0);
    EXPECT_NE(s, sweepRunSeed(g2.key(), base.seedKey(), 0)); // geometry
    EXPECT_NE(s, sweepRunSeed(g.key(), hira.seedKey(), 0));  // scheme
    EXPECT_NE(s, sweepRunSeed(g.key(), base.seedKey(), 1));  // mix index
}

TEST(ExperimentSpec, SeedKeySeparatesPointsThatShareALabel)
{
    // The fig12/15/16 grids: every HiRA-served PARA point has
    // label "Baseline+PARA(HiRA)" regardless of threshold or slack.
    // seedKey() must still separate them (and the ablation switches),
    // or all those sweep points reuse identical RNG streams.
    SchemeSpec a;
    a.paraEnabled = true;
    a.preventiveViaHira = true;
    a.nrh = 1024.0;
    a.slackN = 2;

    SchemeSpec b = a;
    b.nrh = 64.0; // different threshold, same label
    EXPECT_EQ(a.label(), b.label());
    EXPECT_NE(a.seedKey(), b.seedKey());

    SchemeSpec c = a;
    c.slackN = 8; // different slack, same label
    EXPECT_EQ(a.label(), c.label());
    EXPECT_NE(a.seedKey(), c.seedKey());

    SchemeSpec d = a;
    d.accessPairing = false; // ablation switch, label unchanged
    EXPECT_EQ(a.label(), d.label());
    EXPECT_NE(a.seedKey(), d.seedKey());
}

TEST(ExperimentSpec, SeedKeySeparatesZooKnobs)
{
    // The zoo schemes' knobs live outside the base seedKey() fields;
    // the registry's per-scheme suffix must separate them, or an RFM
    // RAAIMT sweep (etc.) would reuse one RNG stream for every point.
    SchemeSpec rfm;
    rfm.kind = SchemeKind::Rfm;
    SchemeSpec rfm2 = rfm;
    rfm2.raaimt = 64;
    EXPECT_EQ(rfm.label(), rfm2.label());
    EXPECT_NE(rfm.seedKey(), rfm2.seedKey());

    SchemeSpec prac;
    prac.kind = SchemeKind::Prac;
    SchemeSpec prac2 = prac;
    prac2.pracThreshold = 512;
    EXPECT_EQ(prac.label(), prac2.label());
    EXPECT_NE(prac.seedKey(), prac2.seedKey());

    SchemeSpec trr;
    trr.kind = SchemeKind::Graphene;
    SchemeSpec trr2 = trr;
    trr2.trackerSize = 32;
    EXPECT_EQ(trr.label(), trr2.label());
    EXPECT_NE(trr.seedKey(), trr2.seedKey());

    // Legacy schemes keep suffix-free keys: the pre-registry golden
    // seeds depend on it.
    SchemeSpec base;
    EXPECT_EQ(base.seedKey().find("-raaimt"), std::string::npos);
    SchemeSpec hira;
    hira.kind = SchemeKind::HiraMc;
    EXPECT_EQ(hira.seedKey().find("-trk"), std::string::npos);
}

TEST(ExperimentSpec, WeightedSpeedupRejectsDegenerateAloneIpc)
{
    // A zero alone-IPC (e.g. an instantly-exhausted "file:" trace)
    // must fail fast with a diagnostic, not return inf/NaN.
    std::vector<double> shared = {0.5, 0.5};
    std::vector<double> zero = {1.0, 0.0};
    EXPECT_EXIT(weightedSpeedup(shared, zero, "mix 7 on c8-ch1-rk1"),
                ::testing::ExitedWithCode(1),
                "mix 7 on c8-ch1-rk1.*ipc_alone\\[1\\].*not a "
                "positive finite IPC");
    std::vector<double> nan = {std::nan(""), 1.0};
    EXPECT_EXIT(weightedSpeedup(shared, nan),
                ::testing::ExitedWithCode(1), "ipc_alone\\[0\\]");
    // Healthy inputs still work.
    std::vector<double> alone = {1.0, 0.5};
    EXPECT_DOUBLE_EQ(weightedSpeedup(shared, alone), 1.5);
}

TEST(ExperimentSpec, RunPointsMatchesSerialMeanWsLoop)
{
    // The sharded plan executor must be bitwise identical to the old
    // serial per-point runPoints loop at the same seeds.
    BenchKnobs k;
    k.mixes = 2;
    k.cycles = 12000;
    k.warmup = 3000;
    k.rows = 64;
    k.threads = 2;

    std::vector<SweepPoint> plan;
    for (int ch : {1, 2}) {
        for (int slack : {-1, 2}) {
            SweepPoint p;
            p.geom.channels = ch;
            if (slack < 0) {
                p.scheme.kind = SchemeKind::Baseline;
            } else {
                p.scheme.kind = SchemeKind::HiraMc;
                p.scheme.slackN = slack;
            }
            plan.push_back(p);
        }
    }

    SweepRunner serial(k);
    std::vector<PointResult> expect;
    for (const SweepPoint &p : plan)
        expect.push_back(serial.runPoints({p}).front());

    SweepRunner planned(k);
    std::vector<PointResult> got = planned.runPoints(plan);
    ASSERT_EQ(got.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(got[i].meanWs, expect[i].meanWs) << "point " << i;
        EXPECT_EQ(got[i].refresh.rowRefreshes,
                  expect[i].refresh.rowRefreshes)
            << "point " << i;
    }
}

TEST(ExperimentSpec, RunPointsEmptyPlanIsANoOp)
{
    BenchKnobs k;
    k.mixes = 1;
    k.threads = 1;
    SweepRunner runner(k);
    EXPECT_TRUE(runner.runPoints({}).empty());
    EXPECT_EQ(runner.aloneRunCount(), 0u);
}

TEST(ExperimentSpec, SweepRunnerDeterministicTinyScale)
{
    BenchKnobs k;
    k.mixes = 2;
    k.cycles = 15000;
    k.warmup = 5000;
    k.rows = 64;
    k.threads = 1;
    SweepRunner a(k), b(k);
    GeomSpec g;
    SchemeSpec s;
    s.kind = SchemeKind::Baseline;
    EXPECT_DOUBLE_EQ(a.meanWs(g, s), b.meanWs(g, s));
    EXPECT_EQ(a.mixes().size(), 2u);
}

TEST(ExperimentSpec, WeightedSpeedupBounds)
{
    // Shared IPC can never exceed alone IPC per core in a contention
    // model, so WS <= core count; and WS > 0 for any progress.
    BenchKnobs k;
    k.mixes = 1;
    k.cycles = 20000;
    k.warmup = 5000;
    k.threads = 1;
    SweepRunner runner(k);
    GeomSpec g;
    SchemeSpec s;
    s.kind = SchemeKind::Baseline;
    double ws = runner.meanWs(g, s);
    EXPECT_GT(ws, 0.0);
    EXPECT_LT(ws, 8.5);
}
