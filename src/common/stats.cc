#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace hira {

std::string
BoxStats::str() const
{
    return strprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f",
                     min, q1, median, q3, max, mean);
}

double
SampleSet::mean() const
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : samples)
        sum += x;
    return sum / static_cast<double>(samples.size());
}

double
SampleSet::min() const
{
    hira_assert(!samples.empty());
    return *std::min_element(samples.begin(), samples.end());
}

double
SampleSet::max() const
{
    hira_assert(!samples.empty());
    return *std::max_element(samples.begin(), samples.end());
}

namespace {

/** Median of sorted[first, last) by midpoint averaging. */
double
medianOfRange(const std::vector<double> &sorted, std::size_t first,
              std::size_t last)
{
    std::size_t n = last - first;
    if (n == 0)
        return 0.0;
    std::size_t mid = first + n / 2;
    if (n % 2 == 1)
        return sorted[mid];
    return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

} // namespace

double
SampleSet::quantile(double q) const
{
    hira_assert(!samples.empty());
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    std::size_t n = sorted.size();

    // Degenerate set: every quantile is the sample itself. Without this
    // the median-of-halves convention below would hand q1/q3 an empty
    // half and report 0 for a set that never contained one.
    if (n == 1)
        return sorted.front();

    if (q <= 0.0)
        return sorted.front();
    if (q >= 1.0)
        return sorted.back();
    if (q == 0.5)
        return medianOfRange(sorted, 0, n);
    if (q == 0.25)
        return medianOfRange(sorted, 0, n / 2);
    if (q == 0.75)
        return medianOfRange(sorted, (n + 1) / 2, n);

    double pos = q * static_cast<double>(n - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= n)
        return sorted.back();
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

BoxStats
SampleSet::box() const
{
    BoxStats b;
    if (samples.empty())
        return b;
    b.min = min();
    b.q1 = quantile(0.25);
    b.median = quantile(0.5);
    b.q3 = quantile(0.75);
    b.max = max();
    b.mean = mean();
    b.count = samples.size();
    return b;
}

double
SampleSet::fractionAbove(double threshold) const
{
    if (samples.empty())
        return 0.0;
    std::size_t n = 0;
    for (double x : samples) {
        if (x > threshold)
            ++n;
    }
    return static_cast<double>(n) / static_cast<double>(samples.size());
}

std::vector<HistBin>
histogram(const std::vector<double> &samples, double lo, double hi,
          std::size_t bins)
{
    hira_assert(bins > 0 && hi > lo);
    std::vector<HistBin> out(bins);
    double width = (hi - lo) / static_cast<double>(bins);
    for (std::size_t i = 0; i < bins; ++i) {
        out[i].lo = lo + width * static_cast<double>(i);
        out[i].hi = out[i].lo + width;
        out[i].count = 0;
        out[i].fraction = 0.0;
    }
    for (double x : samples) {
        double pos = (x - lo) / width;
        std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(std::floor(pos));
        idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                         static_cast<std::ptrdiff_t>(bins) - 1);
        ++out[static_cast<std::size_t>(idx)].count;
    }
    if (!samples.empty()) {
        for (auto &b : out) {
            b.fraction = static_cast<double>(b.count) /
                         static_cast<double>(samples.size());
        }
    }
    return out;
}

std::string
sparkline(const std::vector<HistBin> &bins)
{
    static const char *levels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
    double peak = 0.0;
    for (const auto &b : bins)
        peak = std::max(peak, b.fraction);
    std::string out;
    for (const auto &b : bins) {
        int lvl = peak > 0.0
                      ? static_cast<int>(std::round(b.fraction / peak * 7.0))
                      : 0;
        out += levels[std::clamp(lvl, 0, 7)];
    }
    return out;
}

} // namespace hira
