/**
 * @file
 * Environment-variable scale knobs for benchmark harnesses.
 *
 * Defaults keep the full bench suite fast; paper-scale runs set e.g.
 * HIRA_MIXES=125 HIRA_CYCLES=2000000.
 */

#ifndef HIRA_COMMON_KNOBS_HH
#define HIRA_COMMON_KNOBS_HH

#include <cstdint>
#include <string>

namespace hira {

/** Integer knob: $name from the environment, or fallback. */
std::int64_t envKnob(const std::string &name, std::int64_t fallback);

/** Bench-scale knobs used across all harnesses. */
struct BenchKnobs
{
    /** Number of workload mixes per data point (paper: 125). */
    int mixes = 6;
    /** Measured memory-bus cycles per simulation (paper: 200M instrs). */
    std::int64_t cycles = 150000;
    /** Warmup memory-bus cycles. */
    std::int64_t warmup = 30000;
    /** Rows per bank tested by characterization harnesses (paper: 6K). */
    int rows = 256;
    /** Worker threads for simulation sweeps. */
    int threads = 4;
    /** Cores per workload mix (paper: 8). */
    int cores = 8;

    static BenchKnobs fromEnv();
};

} // namespace hira

#endif // HIRA_COMMON_KNOBS_HH
