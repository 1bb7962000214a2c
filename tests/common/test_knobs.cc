/**
 * @file
 * Tests for environment-variable bench knobs.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/knobs.hh"

using namespace hira;

TEST(Knobs, FallbackWhenUnset)
{
    unsetenv("HIRA_TEST_KNOB");
    EXPECT_EQ(envKnob("HIRA_TEST_KNOB", 42), 42);
}

TEST(Knobs, ParsesInteger)
{
    setenv("HIRA_TEST_KNOB", "1234", 1);
    EXPECT_EQ(envKnob("HIRA_TEST_KNOB", 0), 1234);
    unsetenv("HIRA_TEST_KNOB");
}

TEST(Knobs, GarbageFallsBack)
{
    setenv("HIRA_TEST_KNOB", "not-a-number", 1);
    EXPECT_EQ(envKnob("HIRA_TEST_KNOB", 7), 7);
    unsetenv("HIRA_TEST_KNOB");
}

TEST(Knobs, EmptyFallsBack)
{
    setenv("HIRA_TEST_KNOB", "", 1);
    EXPECT_EQ(envKnob("HIRA_TEST_KNOB", 7), 7);
    unsetenv("HIRA_TEST_KNOB");
}

TEST(Knobs, BenchKnobsDefaults)
{
    unsetenv("HIRA_MIXES");
    unsetenv("HIRA_CYCLES");
    unsetenv("HIRA_WARMUP");
    unsetenv("HIRA_ROWS");
    unsetenv("HIRA_THREADS");
    BenchKnobs k = BenchKnobs::fromEnv();
    EXPECT_EQ(k.mixes, 6);
    EXPECT_EQ(k.cycles, 150000);
    EXPECT_EQ(k.warmup, 30000);
    EXPECT_EQ(k.rows, 256);
    EXPECT_GT(k.threads, 0);
}

TEST(Knobs, BenchKnobsOverride)
{
    setenv("HIRA_MIXES", "125", 1);
    setenv("HIRA_ROWS", "6144", 1);
    BenchKnobs k = BenchKnobs::fromEnv();
    EXPECT_EQ(k.mixes, 125);
    EXPECT_EQ(k.rows, 6144);
    unsetenv("HIRA_MIXES");
    unsetenv("HIRA_ROWS");
}

TEST(Knobs, FromEnvClampsNonPositiveScales)
{
    // Zero or negative scales would only produce NaN means / empty
    // sweeps downstream, so fromEnv clamps them to a sane floor.
    setenv("HIRA_MIXES", "0", 1);
    setenv("HIRA_CYCLES", "-5", 1);
    setenv("HIRA_WARMUP", "-1", 1);
    setenv("HIRA_ROWS", "0", 1);
    setenv("HIRA_THREADS", "0", 1);
    BenchKnobs k = BenchKnobs::fromEnv();
    EXPECT_EQ(k.mixes, 1);
    EXPECT_EQ(k.cycles, 1);
    EXPECT_EQ(k.warmup, 0);
    EXPECT_EQ(k.rows, 1);
    EXPECT_EQ(k.threads, 1);
    unsetenv("HIRA_MIXES");
    unsetenv("HIRA_CYCLES");
    unsetenv("HIRA_WARMUP");
    unsetenv("HIRA_ROWS");
    unsetenv("HIRA_THREADS");
}

TEST(Knobs, FromEnvCapsIntKnobsBeforeNarrowing)
{
    // 2^31 would wrap negative in the int-typed knobs without the cap.
    setenv("HIRA_MIXES", "2147483648", 1);
    setenv("HIRA_ROWS", "9223372036854775807", 1);
    BenchKnobs k = BenchKnobs::fromEnv();
    EXPECT_EQ(k.mixes, 2147483647);
    EXPECT_EQ(k.rows, 2147483647);
    unsetenv("HIRA_MIXES");
    unsetenv("HIRA_ROWS");
}
