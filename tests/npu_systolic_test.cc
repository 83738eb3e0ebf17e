/**
 * @file
 * Unit tests for the systolic array timing and functional model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "npu/systolic_model.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace snpu
{
namespace
{

TEST(Systolic, TimingFormulas)
{
    SystolicArray array;
    EXPECT_EQ(array.dim(), 16u);
    EXPECT_EQ(array.preloadCycles(), 16u);
    EXPECT_EQ(array.computeCycles(64), 64u + 32);
    EXPECT_EQ(array.peakMacsPerCycle(), 256u);
}

TEST(Systolic, BadDimIsFatal)
{
    SystolicParams p;
    p.dim = 0;
    EXPECT_THROW(SystolicArray array(p), FatalError);
}

TEST(Systolic, ComputeRowMatchesReference)
{
    SystolicArray array;
    std::vector<std::int8_t> weights(16 * 16);
    Rng rng(42);
    for (auto &w : weights)
        w = static_cast<std::int8_t>(rng.range(-128, 127));
    array.preload(weights.data());

    std::int8_t a[16];
    for (auto &v : a)
        v = static_cast<std::int8_t>(rng.range(-128, 127));

    std::int32_t acc[16] = {};
    array.computeRow(a, 16, acc, false);

    for (int col = 0; col < 16; ++col) {
        std::int32_t expected = 0;
        for (int i = 0; i < 16; ++i)
            expected += static_cast<std::int32_t>(a[i]) *
                        weights[i * 16 + col];
        EXPECT_EQ(acc[col], expected) << "col " << col;
    }
}

TEST(Systolic, AccumulateAddsToPriorValues)
{
    SystolicArray array;
    std::vector<std::int8_t> weights(256, 1);
    array.preload(weights.data());
    std::int8_t a[16];
    std::fill(std::begin(a), std::end(a), 2);

    std::int32_t acc[16];
    std::fill(std::begin(acc), std::end(acc), 100);
    array.computeRow(a, 16, acc, true);
    for (int col = 0; col < 16; ++col)
        EXPECT_EQ(acc[col], 100 + 2 * 16);
}

TEST(Systolic, OverwriteClearsPriorValues)
{
    SystolicArray array;
    std::vector<std::int8_t> weights(256, 1);
    array.preload(weights.data());
    std::int8_t a[16] = {};
    std::int32_t acc[16];
    std::fill(std::begin(acc), std::end(acc), 999);
    array.computeRow(a, 16, acc, false);
    for (int col = 0; col < 16; ++col)
        EXPECT_EQ(acc[col], 0);
}

TEST(Systolic, PartialKUsesOnlyLiveElements)
{
    SystolicArray array;
    std::vector<std::int8_t> weights(256, 1);
    array.preload(weights.data());
    std::int8_t a[16];
    std::fill(std::begin(a), std::end(a), 1);
    std::int32_t acc[16] = {};
    array.computeRow(a, 5, acc, false);
    for (int col = 0; col < 16; ++col)
        EXPECT_EQ(acc[col], 5);
}

TEST(Systolic, KBeyondDimPanics)
{
    SystolicArray array;
    std::int8_t a[16] = {};
    std::int32_t acc[16] = {};
    EXPECT_THROW(array.computeRow(a, 17, acc, false), PanicError);
}

TEST(Systolic, NullPreloadZeroesWeights)
{
    SystolicArray array;
    std::vector<std::int8_t> weights(256, 3);
    array.preload(weights.data());
    array.preload(nullptr);
    std::int8_t a[16];
    std::fill(std::begin(a), std::end(a), 7);
    std::int32_t acc[16] = {};
    array.computeRow(a, 16, acc, false);
    for (int col = 0; col < 16; ++col)
        EXPECT_EQ(acc[col], 0);
}

TEST(Systolic, Avx2RowKernelMatchesScalar)
{
    // computeRow takes the AVX2 kernel whenever the host has it, so
    // on such a host only this test runs the scalar kernel against it:
    // random tiles and rows, every live width k, both modes.
    const systolic_detail::RowKernel avx2 =
        systolic_detail::avx2RowKernel();
    if (!avx2)
        GTEST_SKIP() << "host has no AVX2";
    Rng rng(29);
    for (std::uint32_t dim : {16u, 32u, 64u}) {
        std::vector<std::int8_t> weights(dim * dim);
        std::vector<std::int8_t> a(dim);
        std::vector<std::int32_t> scalar(dim), vector(dim);
        for (int trial = 0; trial < 200; ++trial) {
            for (auto &w : weights)
                w = static_cast<std::int8_t>(rng.range(-128, 127));
            for (auto &v : a)
                v = static_cast<std::int8_t>(rng.range(-128, 127));
            const auto k = static_cast<std::uint32_t>(rng.range(0, dim));
            const bool accumulate = trial % 2 == 1;
            for (std::uint32_t c = 0; c < dim; ++c) {
                scalar[c] = static_cast<std::int32_t>(
                    rng.range(-(1 << 24), 1 << 24));
            }
            vector = scalar;
            systolic_detail::computeRowScalar(a.data(), k, weights.data(),
                                              dim, scalar.data(),
                                              accumulate);
            avx2(a.data(), k, weights.data(), dim, vector.data(),
                 accumulate);
            ASSERT_EQ(scalar, vector)
                << "dim " << dim << " k " << k << " trial " << trial;
        }
    }
}

} // namespace
} // namespace snpu
