/**
 * @file
 * Tests for log-space numerics used by the PARA security analysis.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/mathutil.hh"

using namespace hira;

TEST(MathUtil, GeometricSumMatchesDirect)
{
    double r = 0.3;
    double direct = 0.0, term = 1.0;
    for (int i = 0; i <= 10; ++i) {
        direct += term;
        term *= r;
    }
    EXPECT_NEAR(logGeometricSum(std::log(r), 10), std::log(direct), 1e-12);
}

TEST(MathUtil, GeometricSumLargeN)
{
    // For |r| < 1 and huge n the sum converges to 1 / (1 - r).
    double r = 0.5;
    double inf_sum = 1.0 / (1.0 - r);
    EXPECT_NEAR(logGeometricSum(std::log(r), 1u << 20), std::log(inf_sum),
                1e-9);
}
