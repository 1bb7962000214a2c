/**
 * @file
 * Tests for the statistics helpers, including the paper's
 * box-and-whiskers conventions (footnote 6).
 */

#include <gtest/gtest.h>

#include "common/stats.hh"

using namespace hira;

namespace {

SampleSet
makeSet(std::initializer_list<double> vals)
{
    SampleSet s;
    for (double v : vals)
        s.add(v);
    return s;
}

} // namespace

TEST(SampleSet, Mean)
{
    auto s = makeSet({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(SampleSet, MinMax)
{
    auto s = makeSet({3.0, -1.0, 7.5});
    EXPECT_DOUBLE_EQ(s.min(), -1.0);
    EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

TEST(SampleSet, MedianOddEven)
{
    EXPECT_DOUBLE_EQ(makeSet({1, 2, 3}).quantile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(makeSet({1, 2, 3, 4}).quantile(0.5), 2.5);
}

TEST(SampleSet, QuartilesMedianOfHalves)
{
    // Footnote 6: Q1 = median of lower half, Q3 = median of upper half.
    auto s = makeSet({1, 2, 3, 4, 5, 6, 7, 8});
    EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.5);
    EXPECT_DOUBLE_EQ(s.quantile(0.75), 6.5);
    auto odd = makeSet({1, 2, 3, 4, 5, 6, 7});
    EXPECT_DOUBLE_EQ(odd.quantile(0.25), 2.0);
    EXPECT_DOUBLE_EQ(odd.quantile(0.75), 6.0);
}

TEST(SampleSet, BoxSummary)
{
    auto s = makeSet({1, 2, 3, 4, 5, 6, 7, 8});
    BoxStats b = s.box();
    EXPECT_DOUBLE_EQ(b.min, 1.0);
    EXPECT_DOUBLE_EQ(b.max, 8.0);
    EXPECT_DOUBLE_EQ(b.median, 4.5);
    EXPECT_DOUBLE_EQ(b.iqr(), 4.0);
    EXPECT_EQ(b.count, 8u);
    EXPECT_FALSE(b.str().empty());
}

TEST(SampleSet, QuantileExtremes)
{
    auto s = makeSet({5, 1, 9});
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 9.0);
}

TEST(SampleSet, FractionAbove)
{
    auto s = makeSet({1.0, 1.7, 1.8, 2.0});
    EXPECT_DOUBLE_EQ(s.fractionAbove(1.7), 0.5);
    EXPECT_DOUBLE_EQ(s.fractionAbove(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.fractionAbove(5.0), 0.0);
}

TEST(SampleSet, MergeSets)
{
    auto a = makeSet({1, 2});
    auto b = makeSet({3, 4});
    a.add(b);
    EXPECT_EQ(a.size(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);
}

TEST(Histogram, BinningAndClamping)
{
    std::vector<double> vals = {0.1, 0.1, 0.55, 0.9, -5.0, 99.0};
    auto bins = histogram(vals, 0.0, 1.0, 4);
    ASSERT_EQ(bins.size(), 4u);
    EXPECT_EQ(bins[0].count, 3u); // 0.1, 0.1, clamped -5.0
    EXPECT_EQ(bins[2].count, 1u); // 0.55
    EXPECT_EQ(bins[3].count, 2u); // 0.9, clamped 99.0
    double total = 0.0;
    for (const auto &b : bins)
        total += b.fraction;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, EdgesCoverRange)
{
    auto bins = histogram({0.5}, 0.0, 2.0, 4);
    EXPECT_DOUBLE_EQ(bins.front().lo, 0.0);
    EXPECT_DOUBLE_EQ(bins.back().hi, 2.0);
}

TEST(Histogram, SparklineShape)
{
    auto bins = histogram({0.1, 0.1, 0.1, 0.9}, 0.0, 1.0, 2);
    std::string s = sparkline(bins);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0], '#'); // peak bin renders at max level
}

TEST(Histogram, EmptySamples)
{
    auto bins = histogram({}, 0.0, 1.0, 3);
    for (const auto &b : bins) {
        EXPECT_EQ(b.count, 0u);
        EXPECT_DOUBLE_EQ(b.fraction, 0.0);
    }
}

TEST(SampleSet, EmptySetSummaries)
{
    SampleSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.fractionAbove(0.0), 0.0);
    // box() on an empty set is the zeroed summary, not a panic.
    BoxStats b = s.box();
    EXPECT_EQ(b.count, 0u);
    EXPECT_DOUBLE_EQ(b.min, 0.0);
    EXPECT_DOUBLE_EQ(b.max, 0.0);
    EXPECT_DOUBLE_EQ(b.iqr(), 0.0);
}

TEST(SampleSetDeathTest, QuantileOnEmptyPanics)
{
    SampleSet s;
    EXPECT_DEATH((void)s.quantile(0.5), "assertion failed");
    EXPECT_DEATH((void)s.min(), "assertion failed");
    EXPECT_DEATH((void)s.max(), "assertion failed");
}

TEST(SampleSet, SingleSample)
{
    auto s = makeSet({42.0});
    BoxStats b = s.box();
    EXPECT_EQ(b.count, 1u);
    EXPECT_DOUBLE_EQ(b.min, 42.0);
    EXPECT_DOUBLE_EQ(b.q1, 42.0);
    EXPECT_DOUBLE_EQ(b.median, 42.0);
    EXPECT_DOUBLE_EQ(b.q3, 42.0);
    EXPECT_DOUBLE_EQ(b.max, 42.0);
    EXPECT_DOUBLE_EQ(b.mean, 42.0);
    EXPECT_DOUBLE_EQ(b.iqr(), 0.0);
}

TEST(SampleSet, AllEqualValues)
{
    auto s = makeSet({3.0, 3.0, 3.0, 3.0, 3.0});
    BoxStats b = s.box();
    EXPECT_DOUBLE_EQ(b.min, 3.0);
    EXPECT_DOUBLE_EQ(b.q1, 3.0);
    EXPECT_DOUBLE_EQ(b.median, 3.0);
    EXPECT_DOUBLE_EQ(b.q3, 3.0);
    EXPECT_DOUBLE_EQ(b.max, 3.0);
    EXPECT_DOUBLE_EQ(b.iqr(), 0.0);
    // Strictly-above semantics: equal samples do not count.
    EXPECT_DOUBLE_EQ(s.fractionAbove(3.0), 0.0);
}

TEST(Histogram, AllSamplesOutOfRange)
{
    // Everything clamps to the edge bins (the Fig. 5 tail convention):
    // nothing is dropped, fractions still sum to 1.
    auto bins = histogram({-10.0, -0.001, 5.0, 7.0, 99.0}, 0.0, 1.0, 4);
    EXPECT_EQ(bins.front().count, 2u);
    EXPECT_EQ(bins.back().count, 3u);
    double total = 0.0;
    for (const auto &b : bins)
        total += b.fraction;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, BoundaryValuesBinLeftInclusive)
{
    // Bins are [lo, hi): a sample exactly on an interior edge lands in
    // the right-hand bin; hi itself clamps into the last bin.
    auto bins = histogram({0.0, 0.5, 1.0}, 0.0, 1.0, 2);
    EXPECT_EQ(bins[0].count, 1u); // 0.0
    EXPECT_EQ(bins[1].count, 2u); // 0.5 (edge) and 1.0 (== hi, clamped)
}
