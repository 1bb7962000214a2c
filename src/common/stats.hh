/**
 * @file
 * Lightweight statistics helpers used by the characterization suite and the
 * system simulator: sample accumulation, quartiles, box-and-whiskers
 * summaries (the paper's preferred presentation), and fixed-bin histograms.
 */

#ifndef HIRA_COMMON_STATS_HH
#define HIRA_COMMON_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace hira {

/**
 * Five-number summary of a distribution, matching the paper's
 * box-and-whiskers plots (footnote 6): whiskers are min/max, box is
 * Q1..Q3, line is the median.
 */
struct BoxStats
{
    double min = 0.0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    double max = 0.0;
    double mean = 0.0;
    std::size_t count = 0;

    /** Interquartile range (box height). */
    double iqr() const { return q3 - q1; }

    /** "min/avg/max" rendering used by Table 4. */
    std::string str() const;
};

/** Accumulates samples; computes summaries on demand. */
class SampleSet
{
  public:
    void add(double x) { samples.push_back(x); }
    void
    add(const SampleSet &other)
    {
        samples.insert(samples.end(), other.samples.begin(),
                       other.samples.end());
    }
    std::size_t size() const { return samples.size(); }
    bool empty() const { return samples.empty(); }
    const std::vector<double> &values() const { return samples; }

    double mean() const;
    double min() const;
    double max() const;

    /**
     * Quantile with the median-of-halves convention the paper's footnote 6
     * describes (Q1 = median of the lower half, Q3 = median of the upper
     * half) for q = 0.25/0.75, linear interpolation otherwise.
     */
    double quantile(double q) const;

    /** Full five-number summary. */
    BoxStats box() const;

    /** Fraction of samples strictly above the threshold. */
    double fractionAbove(double threshold) const;

  private:
    std::vector<double> samples;
};

/** One bin of a histogram. */
struct HistBin
{
    double lo;
    double hi;
    std::size_t count;
    double fraction;
};

/**
 * Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
 * edge bins (matches how the paper's Fig. 5 renders tails).
 */
std::vector<HistBin> histogram(const std::vector<double> &samples, double lo,
                               double hi, std::size_t bins);

/** Render a one-line ASCII sparkline of bin fractions (for bench output). */
std::string sparkline(const std::vector<HistBin> &bins);

} // namespace hira

#endif // HIRA_COMMON_STATS_HH
