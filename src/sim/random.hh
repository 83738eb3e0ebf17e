/**
 * @file
 * Deterministic pseudo-random number generation. Every experiment
 * seeds its own Rng; no global RNG exists, so subsystems cannot
 * perturb each other's random streams.
 */

#ifndef SNPU_SIM_RANDOM_HH
#define SNPU_SIM_RANDOM_HH

#include <bit>
#include <cstdint>

namespace snpu
{

/**
 * xoshiro256** generator seeded via SplitMix64. Small, fast, and
 * reproducible across platforms (unlike std::mt19937 distributions).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL);

    /** Uniform 64-bit value. Inline: fault probes draw on hot paths. */
    std::uint64_t next()
    {
        const std::uint64_t result = std::rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = std::rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli trial with probability @p p of true: uniform() < p. */
    bool chance(double p) { return hits(chanceThreshold(p)); }

    /**
     * chance(p) with p's threshold computed once: uniform() < p is
     * exactly (next() >> 11) < p * 2^53, since scaling by a power of
     * two is exact in both operands.
     */
    static constexpr double chanceThreshold(double p) { return p * 0x1p53; }

    /** One chance() draw against a chanceThreshold(). */
    bool hits(double threshold)
    {
        return static_cast<double>(next() >> 11) < threshold;
    }

  private:
    std::uint64_t s[4];
};

} // namespace snpu

#endif // SNPU_SIM_RANDOM_HH
