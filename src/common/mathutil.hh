/**
 * @file
 * Numerics helper for the PARA security analysis (log-space summation of
 * astronomically small probabilities).
 */

#ifndef HIRA_COMMON_MATHUTIL_HH
#define HIRA_COMMON_MATHUTIL_HH

#include <cmath>
#include <cstdint>

namespace hira {

/**
 * log of the geometric series sum_{i=0}^{n} r^i given log(r) < 0.
 * Uses the closed form log((1 - r^{n+1}) / (1 - r)).
 */
inline double
logGeometricSum(double log_r, std::uint64_t n)
{
    // r^{n+1} in log space.
    double log_rn1 = log_r * static_cast<double>(n + 1);
    // log(1 - r^{n+1}): expm1-free since r^{n+1} may underflow to 0 anyway.
    double log_num = std::log1p(-std::exp(log_rn1));
    double log_den = std::log1p(-std::exp(log_r));
    return log_num - log_den;
}

} // namespace hira

#endif // HIRA_COMMON_MATHUTIL_HH
