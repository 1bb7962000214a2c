#include "common/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace hira {

MetricsLevel
defaultMetricsLevel()
{
    const char *v = std::getenv("HIRA_METRICS");
    if (v == nullptr || *v == '\0' || std::strcmp(v, "off") == 0)
        return MetricsLevel::Off;
    if (std::strcmp(v, "counters") == 0)
        return MetricsLevel::Counters;
    if (std::strcmp(v, "full") == 0)
        return MetricsLevel::Full;
    warn_once("unknown HIRA_METRICS='%s' (expected 'off', 'counters', or "
              "'full'); using 'off'",
              v);
    return MetricsLevel::Off;
}

const char *
metricsLevelName(MetricsLevel level)
{
    switch (level) {
      case MetricsLevel::Off: return "off";
      case MetricsLevel::Counters: return "counters";
      case MetricsLevel::Full: return "full";
    }
    return "off";
}

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi)
{
    hira_assert(bins > 0 && hi > lo);
    width_ = (hi - lo) / static_cast<double>(bins);
    bins_.assign(bins, 0);
}

void
HistogramMetric::observe(double x)
{
    ++count_;
    sum_ += x;
    double pos = (x - lo_) / width_;
    std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(std::floor(pos));
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(bins_.size()) - 1);
    ++bins_[static_cast<std::size_t>(idx)];
}

MetricsSnapshot
MetricsSnapshot::diff(const MetricsSnapshot &base) const
{
    MetricsSnapshot out;
    for (const auto &kv : values) {
        MetricValue v = kv.second;
        auto it = base.values.find(kv.first);
        if (it != base.values.end()) {
            const MetricValue &b = it->second;
            hira_assert(b.kind == v.kind);
            switch (v.kind) {
              case MetricValue::Kind::Counter:
                v.count -= b.count;
                break;
              case MetricValue::Kind::Histogram:
                hira_assert(b.bins.size() == v.bins.size() &&
                            b.lo == v.lo && b.hi == v.hi);
                v.count -= b.count;
                v.value -= b.value;
                for (std::size_t i = 0; i < v.bins.size(); ++i)
                    v.bins[i] -= b.bins[i];
                break;
            }
        }
        out.values.emplace(kv.first, std::move(v));
    }
    return out;
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &kv : other.values) {
        auto it = values.find(kv.first);
        if (it == values.end()) {
            values.emplace(kv.first, kv.second);
            continue;
        }
        MetricValue &v = it->second;
        const MetricValue &o = kv.second;
        hira_assert(v.kind == o.kind);
        switch (v.kind) {
          case MetricValue::Kind::Counter:
            v.count += o.count;
            break;
          case MetricValue::Kind::Histogram:
            hira_assert(v.bins.size() == o.bins.size() && v.lo == o.lo &&
                        v.hi == o.hi);
            v.count += o.count;
            v.value += o.value;
            for (std::size_t i = 0; i < v.bins.size(); ++i)
                v.bins[i] += o.bins[i];
            break;
        }
    }
}

MetricRegistry::MetricRegistry(MetricsLevel level) : level_(level) {}

Counter *
MetricRegistry::counter(const std::string &name)
{
    if (level_ == MetricsLevel::Off)
        return nullptr;
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(name, std::make_unique<Counter>()).first;
    }
    return it->second.get();
}

HistogramMetric *
MetricRegistry::histogram(const std::string &name, double lo, double hi,
                          std::size_t bins)
{
    if (level_ != MetricsLevel::Full)
        return nullptr;
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(name,
                          std::make_unique<HistogramMetric>(lo, hi, bins))
                 .first;
    }
    return it->second.get();
}

MetricsSnapshot
MetricRegistry::snapshot() const
{
    MetricsSnapshot snap;
    for (const auto &kv : counters_) {
        MetricValue v;
        v.kind = MetricValue::Kind::Counter;
        v.count = kv.second->value;
        snap.values.emplace(kv.first, std::move(v));
    }
    for (const auto &kv : histograms_) {
        MetricValue v;
        v.kind = MetricValue::Kind::Histogram;
        v.count = kv.second->count();
        v.value = kv.second->sum();
        v.lo = kv.second->lo();
        v.hi = kv.second->hi();
        v.bins = kv.second->bins();
        snap.values.emplace(kv.first, std::move(v));
    }
    return snap;
}

} // namespace hira
