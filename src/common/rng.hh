/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic element in the library (process variation, synthetic
 * traces, PARA coin flips, workload mixes) derives from named 64-bit seeds
 * through these generators, so every experiment is bit-reproducible.
 *
 * Generator contract (relied on by tests/common/test_rng.cc golden
 * values — do not change any of these without a major version bump):
 *  - Rng is xoshiro256** (Blackman/Vigna reference constants: mul 5,
 *    rotl 7, mul 9; state rotl 45, shift 17), seeded by four successive
 *    splitmix64 outputs of the 64-bit seed.
 *  - splitmix64 / hashCombine / hashString are pure functions of their
 *    inputs; hashString is FNV-1a (offset 0xcbf29ce484222325, prime
 *    0x100000001b3) finalized through splitmix64.
 *  - uniform() maps the top 53 bits of next() onto [0, 1) as
 *    (next() >> 11) * 2^-53; hashUniform() does the same to a
 *    hashCombine chain. Same seed therefore yields the same stream on
 *    every conforming platform, independent of compiler, OS, or
 *    evaluation order.
 */

#ifndef HIRA_COMMON_RNG_HH
#define HIRA_COMMON_RNG_HH

#include <cmath>
#include <cstdint>
#include <string_view>

namespace hira {

/**
 * The splitmix64 mixing function. Used both as a seed expander and as a
 * stateless hash for "per-entity" randomness (e.g., per-row timing
 * variation that must not depend on evaluation order).
 */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine two 64-bit values into a new stream seed. */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return splitmix64(a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2) + b));
}

/** Hash a short string (e.g., a module label) into a seed. */
constexpr std::uint64_t
hashString(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return splitmix64(h);
}

/**
 * xoshiro256** generator: fast, high-quality, 2^256 period.
 * Seeded via splitmix64 per the reference implementation.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

    /** Reset the stream from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        for (auto &word : state) {
            seed = splitmix64(seed);
            word = seed;
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). n must be > 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        // Lemire's multiply-shift rejection-free variant is overkill here;
        // 128-bit multiply keeps the bias below 2^-64.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * n) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Bernoulli trial with success probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

/**
 * Stateless per-entity randomness: a deterministic uniform in [0, 1) keyed
 * by an arbitrary tuple of identifiers. Evaluation-order independent.
 */
inline double
hashUniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
            std::uint64_t c = 0)
{
    std::uint64_t h = hashCombine(hashCombine(hashCombine(seed, a), b), c);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** Stateless per-entity standard-normal value (inverse-CDF approximation). */
double hashGaussian(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                    std::uint64_t c = 0);

} // namespace hira

#endif // HIRA_COMMON_RNG_HH
