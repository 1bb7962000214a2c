#include "common/knobs.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <thread>

#include "common/logging.hh"

namespace hira {

std::int64_t
envKnob(const std::string &name, std::int64_t fallback)
{
    const char *v = std::getenv(name.c_str());
    if (v == nullptr || *v == '\0')
        return fallback;
    char *end = nullptr;
    long long parsed = std::strtoll(v, &end, 10);
    if (end == v) {
        warn("ignoring unparsable env knob %s=%s", name.c_str(), v);
        return fallback;
    }
    return parsed;
}

namespace {

/** Clamp a scale knob into [floor, ceiling]; zero mixes or cycles would
 * only produce NaN means / empty sweeps downstream, and values past the
 * ceiling would wrap when narrowed to int. */
std::int64_t
envKnobClamped(const std::string &name, std::int64_t fallback,
               std::int64_t floor,
               std::int64_t ceiling = std::numeric_limits<std::int64_t>::max())
{
    std::int64_t v = envKnob(name, fallback);
    std::int64_t clamped = std::min(std::max(v, floor), ceiling);
    if (clamped != v) {
        warn("clamping env knob %s=%lld to %lld", name.c_str(),
             static_cast<long long>(v), static_cast<long long>(clamped));
    }
    return clamped;
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

} // namespace

BenchKnobs
BenchKnobs::fromEnv()
{
    BenchKnobs k;
    k.mixes = static_cast<int>(envKnobClamped("HIRA_MIXES", 6, 1, kIntMax));
    k.cycles = envKnobClamped("HIRA_CYCLES", 150000, 1);
    k.warmup = envKnobClamped("HIRA_WARMUP", 30000, 0);
    k.rows = static_cast<int>(envKnobClamped("HIRA_ROWS", 256, 1, kIntMax));
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    k.threads = static_cast<int>(
        envKnobClamped("HIRA_THREADS", hw > 0 ? hw : 4, 1, kIntMax));
    // 1024 cores is far past anything the model is calibrated for, but
    // bounds memory: each core carries a window plus a trace source.
    k.cores = static_cast<int>(envKnobClamped("HIRA_CORES", 8, 1, 1024));
    return k;
}

} // namespace hira
