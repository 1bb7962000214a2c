/**
 * @file
 * Hierarchical metrics registry in the spirit of gem5's per-SimObject
 * stats: named counters and fixed-bin histograms grouped per
 * component instance (`ctrl0.bank3.reads`, `ctrl0.scheme.pr_fifo_depth`,
 * `llc.hits`, `core2.ff_ticks`, `kernel.skip_len`, ...), with
 * snapshot / diff / merge so sweep executors can aggregate per-mix
 * simulations into per-point artifacts.
 *
 * Design constraints (see BUILDING.md "Metrics and event tracing"):
 *
 *  - Instrumentation must never perturb simulation state: metrics only
 *    *read* simulator state, so results are bitwise identical with
 *    metrics on and off (pinned by tests/sim/test_metrics_equivalence).
 *  - Near-zero overhead when disabled: components hold raw pointers to
 *    their metrics, and every pointer is nullptr when the registry is
 *    off (or, for histograms, below MetricsLevel::Full) — hot paths pay
 *    a single predictable null test via the count()/observe() helpers.
 *  - A registry belongs to one simulation instance (one System) and is
 *    NOT thread-safe; concurrent sweeps each own their registry.
 *    Registration happens on the cold construction path; name lookup is
 *    never on the per-cycle path.
 */

#ifndef HIRA_COMMON_METRICS_HH
#define HIRA_COMMON_METRICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hira {

/**
 * Instrumentation level, from the HIRA_METRICS environment variable.
 * `off` registers nothing (every metric pointer is nullptr),
 * `counters` enables counters, `full` adds histograms.
 */
enum class MetricsLevel
{
    Off,
    Counters,
    Full,
};

/**
 * Level selected by HIRA_METRICS ("off", "counters", "full"; default
 * "off"). Read on every call so tests can flip the variable between
 * runs; unknown values warn once and fall back to "off".
 */
MetricsLevel defaultMetricsLevel();

/** Display name ("off" / "counters" / "full"). */
const char *metricsLevelName(MetricsLevel level);

/** Monotone event count. */
struct Counter
{
    std::uint64_t value = 0;
};

/**
 * Fixed-width-bin histogram over [lo, hi); out-of-range samples clamp
 * to the edge bins (the same tail convention as stats.hh histogram()).
 */
class HistogramMetric
{
  public:
    HistogramMetric(double lo, double hi, std::size_t bins);

    void observe(double x);

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    const std::vector<std::uint64_t> &bins() const { return bins_; }

  private:
    double lo_, hi_, width_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    std::vector<std::uint64_t> bins_;
};

// Hot-path helpers: one predictable null test when metrics are off.
inline void
count(Counter *c, std::uint64_t n = 1)
{
    if (c != nullptr)
        c->value += n;
}

inline void
observe(HistogramMetric *h, double x)
{
    if (h != nullptr)
        h->observe(x);
}

/** One metric's value captured by MetricRegistry::snapshot(). */
struct MetricValue
{
    enum class Kind
    {
        Counter,
        Histogram,
    };

    Kind kind = Kind::Counter;
    std::uint64_t count = 0; //!< counter value / histogram sample count
    double value = 0.0;      //!< histogram sample sum
    double lo = 0.0, hi = 0.0;        //!< histogram bounds
    std::vector<std::uint64_t> bins;  //!< histogram bin counts
};

/**
 * Immutable capture of a registry's metrics, keyed by full dotted
 * name (std::map: deterministic iteration order for artifacts).
 */
struct MetricsSnapshot
{
    std::map<std::string, MetricValue> values;

    bool empty() const { return values.empty(); }

    /**
     * This snapshot minus @p base: counters and histogram bins
     * subtract (names missing from @p base keep their full value).
     * Used to scope metrics to the
     * measurement interval (runOne diffs the post-warmup snapshot
     * away). Histogram shapes must match; panics otherwise.
     */
    MetricsSnapshot diff(const MetricsSnapshot &base) const;

    /**
     * Accumulate @p other into this snapshot: counters and histogram
     * bins add. Kinds and histogram shapes of shared names must
     * match; panics otherwise.
     */
    void merge(const MetricsSnapshot &other);
};

/**
 * The per-simulation-instance metrics registry. Components register
 * metrics by full dotted name at construction (usually through a
 * MetricScope) and keep the returned pointer for the hot path;
 * registering an existing name returns the same metric.
 */
class MetricRegistry
{
  public:
    explicit MetricRegistry(MetricsLevel level);

    MetricsLevel level() const { return level_; }

    /** nullptr when the registry is Off. */
    Counter *counter(const std::string &name);

    /** nullptr below MetricsLevel::Full. */
    HistogramMetric *histogram(const std::string &name, double lo,
                               double hi, std::size_t bins);

    MetricsSnapshot snapshot() const;

  private:
    MetricsLevel level_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

/**
 * A naming prefix into a registry ("ctrl0.", "ctrl0.scheme.", ...), so
 * components register relative names without knowing where they live.
 * Copyable; a default-constructed (or null-registry) scope hands out
 * nullptr for everything, which is the disabled fast path.
 */
class MetricScope
{
  public:
    MetricScope() = default;
    MetricScope(MetricRegistry *registry, std::string prefix)
        : reg(registry), prefix_(std::move(prefix))
    {
    }

    /** Child scope: "ctrl0." + "bank3." -> "ctrl0.bank3.". */
    MetricScope
    sub(const std::string &name) const
    {
        return MetricScope(reg, prefix_ + name + ".");
    }

    Counter *
    counter(const std::string &name) const
    {
        return reg != nullptr ? reg->counter(prefix_ + name) : nullptr;
    }

    HistogramMetric *
    histogram(const std::string &name, double lo, double hi,
              std::size_t bins) const
    {
        return reg != nullptr
                   ? reg->histogram(prefix_ + name, lo, hi, bins)
                   : nullptr;
    }

    MetricRegistry *registry() const { return reg; }
    const std::string &prefix() const { return prefix_; }

  private:
    MetricRegistry *reg = nullptr;
    std::string prefix_;
};

} // namespace hira

#endif // HIRA_COMMON_METRICS_HH
