/**
 * @file
 * Unit tests for the metrics registry (src/common/metrics.hh): the
 * HIRA_METRICS level gating (Off hands out nullptr everywhere, Counters
 * withholds histograms), MetricScope prefix composition, histogram
 * clamped binning, and the snapshot / diff / merge algebra the sweep
 * executor relies on to scope metrics to measurement intervals and
 * aggregate per-mix runs into per-point artifacts.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/metrics.hh"

using namespace hira;

namespace {

/** Scoped HIRA_METRICS override, restoring the prior value on exit. */
class ScopedMetricsEnv
{
  public:
    explicit ScopedMetricsEnv(const char *value)
    {
        const char *prev = ::getenv("HIRA_METRICS");
        had_ = prev != nullptr;
        if (had_)
            prev_ = prev;
        if (value != nullptr)
            ::setenv("HIRA_METRICS", value, 1);
        else
            ::unsetenv("HIRA_METRICS");
    }

    ~ScopedMetricsEnv()
    {
        if (had_)
            ::setenv("HIRA_METRICS", prev_.c_str(), 1);
        else
            ::unsetenv("HIRA_METRICS");
    }

  private:
    bool had_ = false;
    std::string prev_;
};

} // namespace

TEST(MetricsLevel, EnvParsing)
{
    {
        ScopedMetricsEnv env(nullptr);
        EXPECT_EQ(defaultMetricsLevel(), MetricsLevel::Off);
    }
    {
        ScopedMetricsEnv env("");
        EXPECT_EQ(defaultMetricsLevel(), MetricsLevel::Off);
    }
    {
        ScopedMetricsEnv env("off");
        EXPECT_EQ(defaultMetricsLevel(), MetricsLevel::Off);
    }
    {
        ScopedMetricsEnv env("counters");
        EXPECT_EQ(defaultMetricsLevel(), MetricsLevel::Counters);
    }
    {
        ScopedMetricsEnv env("full");
        EXPECT_EQ(defaultMetricsLevel(), MetricsLevel::Full);
    }
    {
        // Unknown values fall back to off (and warn once, not per call).
        ScopedMetricsEnv env("bogus");
        EXPECT_EQ(defaultMetricsLevel(), MetricsLevel::Off);
        EXPECT_EQ(defaultMetricsLevel(), MetricsLevel::Off);
    }
}

TEST(MetricsLevel, Names)
{
    EXPECT_STREQ(metricsLevelName(MetricsLevel::Off), "off");
    EXPECT_STREQ(metricsLevelName(MetricsLevel::Counters), "counters");
    EXPECT_STREQ(metricsLevelName(MetricsLevel::Full), "full");
}

TEST(MetricRegistry, OffRegistersNothing)
{
    MetricRegistry reg(MetricsLevel::Off);
    EXPECT_EQ(reg.counter("a"), nullptr);
    EXPECT_EQ(reg.histogram("c", 0.0, 1.0, 4), nullptr);
    EXPECT_TRUE(reg.snapshot().empty());
}

TEST(MetricRegistry, CountersLevelWithholdsHistograms)
{
    MetricRegistry reg(MetricsLevel::Counters);
    EXPECT_NE(reg.counter("a"), nullptr);
    EXPECT_EQ(reg.histogram("c", 0.0, 1.0, 4), nullptr);
}

TEST(MetricRegistry, FullRegistersEverything)
{
    MetricRegistry reg(MetricsLevel::Full);
    EXPECT_NE(reg.counter("a"), nullptr);
    EXPECT_NE(reg.histogram("c", 0.0, 1.0, 4), nullptr);
}

TEST(MetricRegistry, ReregistrationReturnsSameMetric)
{
    MetricRegistry reg(MetricsLevel::Full);
    Counter *c = reg.counter("x");
    count(c, 3);
    EXPECT_EQ(reg.counter("x"), c);
    EXPECT_EQ(reg.counter("x")->value, 3u);
    HistogramMetric *h = reg.histogram("h", 0.0, 8.0, 4);
    EXPECT_EQ(reg.histogram("h", 0.0, 8.0, 4), h);
}

TEST(MetricRegistry, HotPathHelpersAreNullSafe)
{
    // The disabled fast path: every helper must accept nullptr.
    count(static_cast<Counter *>(nullptr));
    count(static_cast<Counter *>(nullptr), 42);
    observe(nullptr, 3.0);

    Counter c;
    count(&c);
    count(&c, 4);
    EXPECT_EQ(c.value, 5u);
}

TEST(MetricScope, PrefixComposition)
{
    MetricRegistry reg(MetricsLevel::Full);
    MetricScope root(&reg, "");
    MetricScope ctrl = root.sub("ctrl0");
    MetricScope bank = ctrl.sub("bank3");
    EXPECT_EQ(ctrl.prefix(), "ctrl0.");
    EXPECT_EQ(bank.prefix(), "ctrl0.bank3.");

    Counter *c = bank.counter("reads");
    ASSERT_NE(c, nullptr);
    count(c, 7);
    MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.values.count("ctrl0.bank3.reads"), 1u);
    EXPECT_EQ(snap.values.at("ctrl0.bank3.reads").count, 7u);
}

TEST(MetricScope, DefaultConstructedIsDisabled)
{
    MetricScope scope;
    EXPECT_EQ(scope.registry(), nullptr);
    EXPECT_EQ(scope.counter("a"), nullptr);
    EXPECT_EQ(scope.histogram("c", 0.0, 1.0, 2), nullptr);
    // sub() of a null scope stays null instead of crashing.
    EXPECT_EQ(scope.sub("x").counter("y"), nullptr);
}

TEST(HistogramMetric, ClampedBinning)
{
    HistogramMetric h(0.0, 4.0, 4);
    h.observe(0.5);   // bin 0
    h.observe(1.0);   // bin 1 (left-inclusive edges)
    h.observe(-10.0); // clamps to bin 0
    h.observe(4.0);   // == hi, clamps to bin 3
    h.observe(99.0);  // clamps to bin 3
    EXPECT_EQ(h.count(), 5u);
    ASSERT_EQ(h.bins().size(), 4u);
    EXPECT_EQ(h.bins()[0], 2u);
    EXPECT_EQ(h.bins()[1], 1u);
    EXPECT_EQ(h.bins()[2], 0u);
    EXPECT_EQ(h.bins()[3], 2u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 - 10.0 + 4.0 + 99.0);
}

namespace {

/** A registry with one of each metric kind, pre-loaded with values. */
MetricsSnapshot
sampleSnapshot(std::uint64_t c, std::initializer_list<double> obs)
{
    MetricRegistry reg(MetricsLevel::Full);
    count(reg.counter("n.counter"), c);
    HistogramMetric *h = reg.histogram("n.hist", 0.0, 4.0, 4);
    for (double x : obs)
        observe(h, x);
    return reg.snapshot();
}

} // namespace

TEST(MetricsSnapshot, CapturesAllKinds)
{
    MetricsSnapshot snap = sampleSnapshot(5, {0.5, 2.5});
    ASSERT_EQ(snap.values.size(), 2u);

    const MetricValue &c = snap.values.at("n.counter");
    EXPECT_EQ(c.kind, MetricValue::Kind::Counter);
    EXPECT_EQ(c.count, 5u);

    const MetricValue &h = snap.values.at("n.hist");
    EXPECT_EQ(h.kind, MetricValue::Kind::Histogram);
    EXPECT_EQ(h.count, 2u);
    EXPECT_DOUBLE_EQ(h.value, 3.0);
    EXPECT_DOUBLE_EQ(h.lo, 0.0);
    EXPECT_DOUBLE_EQ(h.hi, 4.0);
    ASSERT_EQ(h.bins.size(), 4u);
    EXPECT_EQ(h.bins[0], 1u);
    EXPECT_EQ(h.bins[2], 1u);
}

TEST(MetricsSnapshot, DiffScopesToInterval)
{
    // The runOne() protocol: snapshot after warmup, diff at the end.
    MetricsSnapshot base = sampleSnapshot(3, {0.5});
    MetricsSnapshot end = sampleSnapshot(10, {0.5, 1.5, 3.5});
    MetricsSnapshot d = end.diff(base);

    EXPECT_EQ(d.values.at("n.counter").count, 7u);
    const MetricValue &h = d.values.at("n.hist");
    EXPECT_EQ(h.count, 2u);
    EXPECT_DOUBLE_EQ(h.value, 5.0);
    EXPECT_EQ(h.bins[0], 0u);
    EXPECT_EQ(h.bins[1], 1u);
    EXPECT_EQ(h.bins[3], 1u);
}

TEST(MetricsSnapshot, DiffKeepsNamesMissingFromBase)
{
    MetricsSnapshot base;
    MetricsSnapshot end = sampleSnapshot(4, {});
    MetricsSnapshot d = end.diff(base);
    EXPECT_EQ(d.values.at("n.counter").count, 4u);
}

TEST(MetricsSnapshot, MergeAccumulates)
{
    // The runPoints() reduction: per-mix runs merge into the point.
    MetricsSnapshot a = sampleSnapshot(3, {0.5});
    MetricsSnapshot b = sampleSnapshot(5, {0.5, 2.5});
    a.merge(b);

    EXPECT_EQ(a.values.at("n.counter").count, 8u);
    const MetricValue &h = a.values.at("n.hist");
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.bins[0], 2u);
    EXPECT_EQ(h.bins[2], 1u);
}

TEST(MetricsSnapshot, MergeIntoEmptyAdoptsOther)
{
    MetricsSnapshot a;
    MetricsSnapshot b = sampleSnapshot(2, {1.5});
    a.merge(b);
    EXPECT_EQ(a.values.size(), 2u);
    EXPECT_EQ(a.values.at("n.counter").count, 2u);
}

TEST(MetricsSnapshot, DiffThenMergeRoundTrip)
{
    // merge(diff(end, base), base-interval) must reconstruct end for
    // the monotone kinds — the algebra aggregation relies on.
    MetricsSnapshot base = sampleSnapshot(3, {0.5});
    MetricsSnapshot end = sampleSnapshot(10, {0.5, 1.5, 3.5});
    MetricsSnapshot d = end.diff(base);
    MetricsSnapshot rebuilt = base;
    rebuilt.merge(d);
    EXPECT_EQ(rebuilt.values.at("n.counter").count,
              end.values.at("n.counter").count);
    EXPECT_EQ(rebuilt.values.at("n.hist").count,
              end.values.at("n.hist").count);
    EXPECT_EQ(rebuilt.values.at("n.hist").bins,
              end.values.at("n.hist").bins);
}

TEST(MetricsSnapshotDeathTest, MergeRejectsKindMismatch)
{
    MetricRegistry ra(MetricsLevel::Full);
    count(ra.counter("x"), 1);
    MetricsSnapshot a = ra.snapshot();

    MetricRegistry rb(MetricsLevel::Full);
    rb.histogram("x", 0.0, 4.0, 4);
    MetricsSnapshot b = rb.snapshot();

    EXPECT_DEATH(a.merge(b), "assertion failed");
}

TEST(MetricsSnapshotDeathTest, DiffRejectsHistogramShapeMismatch)
{
    MetricRegistry ra(MetricsLevel::Full);
    ra.histogram("h", 0.0, 4.0, 4);
    MetricsSnapshot a = ra.snapshot();

    MetricRegistry rb(MetricsLevel::Full);
    rb.histogram("h", 0.0, 4.0, 8);
    MetricsSnapshot b = rb.snapshot();

    EXPECT_DEATH((void)a.diff(b), "assertion failed");
}

TEST(MetricRegistry, SnapshotIterationIsSorted)
{
    MetricRegistry reg(MetricsLevel::Counters);
    reg.counter("z.last");
    reg.counter("a.first");
    reg.counter("m.middle");
    MetricsSnapshot snap = reg.snapshot();
    std::string prev;
    for (const auto &kv : snap.values) {
        EXPECT_LT(prev, kv.first);
        prev = kv.first;
    }
    EXPECT_EQ(snap.values.begin()->first, "a.first");
}
