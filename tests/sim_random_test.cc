/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace snpu
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowZeroPanics)
{
    Rng rng(7);
    EXPECT_THROW(rng.below(0), PanicError);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        const std::int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RangeLoGreaterThanHiPanics)
{
    Rng rng(1);
    EXPECT_THROW(rng.range(5, 4), PanicError);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    // Mean should be near 0.5.
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) {
        if (rng.chance(0.25))
            ++hits;
    }
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

/**
 * The precomputed-threshold draw is chance(p) bit for bit: on twin
 * streams uniform() < p, hits(chanceThreshold(p)) and chance(p)
 * agree on every draw, for edge probabilities and for probabilities
 * that a draw lands on exactly (or one ulp below).
 */
TEST(Rng, ThresholdCompareMatchesChance)
{
    std::vector<double> probabilities = {
        0.0, 0x1p-53, 1e-3, 0.5, std::nextafter(1.0, 0.0), 1.0,
        0x1p-54, std::numeric_limits<double>::denorm_min(), -0.0, 2.0};
    Rng exact(29);
    for (int i = 0; i < 8; ++i) {
        const double u = exact.uniform();
        probabilities.push_back(u);
        probabilities.push_back(std::nextafter(u, 0.0));
    }
    for (const double p : probabilities) {
        const double threshold = Rng::chanceThreshold(p);
        Rng a(29), b(29), c(29);
        for (int i = 0; i < 20000; ++i) {
            const bool want = a.uniform() < p;
            ASSERT_EQ(b.hits(threshold), want) << "p " << p << " draw " << i;
            ASSERT_EQ(c.chance(p), want) << "p " << p << " draw " << i;
        }
    }
}

class RngBucketTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngBucketTest, BelowIsRoughlyUniform)
{
    const std::uint64_t bound = GetParam();
    Rng rng(bound * 31 + 1);
    std::vector<int> buckets(bound, 0);
    const int samples = 4000 * static_cast<int>(bound);
    for (int i = 0; i < samples; ++i)
        ++buckets[rng.below(bound)];
    const double expected = static_cast<double>(samples) / bound;
    for (std::uint64_t b = 0; b < bound; ++b) {
        EXPECT_NEAR(buckets[b], expected, expected * 0.15)
            << "bucket " << b << " bound " << bound;
    }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBucketTest,
                         ::testing::Values(2, 3, 5, 7, 16));

} // namespace
} // namespace snpu
