#include "npu/systolic_model.hh"

#include <cstring>

#include "sim/logging.hh"

/*
 * Vectorized functional GEMM. The AVX2 path is compiled behind a
 * per-function target attribute (no global -mavx2 needed) and only
 * taken after a runtime CPUID check, with the scalar loop as the
 * fallback everywhere else. int8 x int8 products fit int16 and the
 * int32 accumulation is exact, so both paths are bit-identical.
 */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SNPU_X86_SIMD 1
#include <immintrin.h>
#endif

namespace snpu
{

namespace
{

#if SNPU_X86_SIMD

__attribute__((target("avx2"))) void
computeRowAvx2(const std::int8_t *a_row, std::uint32_t k,
               const std::int8_t *weights, std::uint32_t dim,
               std::int32_t *acc, bool accumulate)
{
    // Caller guarantees dim % 16 == 0. Iterate column blocks of 16,
    // broadcasting each live activation across the block: weight row
    // i is contiguous, so the loads are dense where the scalar loop
    // was column-strided.
    for (std::uint32_t c = 0; c < dim; c += 16) {
        __m256i acc_lo, acc_hi;
        if (accumulate) {
            acc_lo = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(acc + c));
            acc_hi = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(acc + c + 8));
        } else {
            acc_lo = _mm256_setzero_si256();
            acc_hi = _mm256_setzero_si256();
        }
        for (std::uint32_t i = 0; i < k; ++i) {
            const __m256i w16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    weights + static_cast<std::size_t>(i) * dim + c)));
            const __m256i prod = _mm256_mullo_epi16(
                w16, _mm256_set1_epi16(a_row[i]));
            acc_lo = _mm256_add_epi32(
                acc_lo,
                _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
            acc_hi = _mm256_add_epi32(
                acc_hi,
                _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod,
                                                               1)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + c),
                            acc_lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + c + 8),
                            acc_hi);
    }
}

#endif // SNPU_X86_SIMD

} // namespace

namespace systolic_detail
{

void
computeRowScalar(const std::int8_t *a_row, std::uint32_t k,
                 const std::int8_t *weights, std::uint32_t dim,
                 std::int32_t *acc, bool accumulate)
{
    for (std::uint32_t col = 0; col < dim; ++col) {
        std::int32_t sum = accumulate ? acc[col] : 0;
        for (std::uint32_t i = 0; a_row && i < k; ++i) {
            sum += static_cast<std::int32_t>(a_row[i]) *
                   static_cast<std::int32_t>(
                       weights[static_cast<std::size_t>(i) * dim + col]);
        }
        acc[col] = sum;
    }
}

RowKernel
avx2RowKernel()
{
#if SNPU_X86_SIMD
    static const bool have = __builtin_cpu_supports("avx2");
    return have ? computeRowAvx2 : nullptr;
#else
    return nullptr;
#endif
}

} // namespace systolic_detail

SystolicArray::SystolicArray(SystolicParams params)
    : params(params),
      weights(static_cast<std::size_t>(params.dim) * params.dim, 0)
{
    if (params.dim == 0)
        fatal("systolic array dimension must be positive");
}

void
SystolicArray::preload(const std::int8_t *w, std::size_t row_stride)
{
    const std::size_t dim = params.dim;
    if (!w) {
        std::memset(weights.data(), 0, weights.size());
    } else if (row_stride == 0 || row_stride == dim) {
        std::memcpy(weights.data(), w, weights.size());
    } else {
        for (std::size_t r = 0; r < dim; ++r)
            std::memcpy(weights.data() + r * dim, w + r * row_stride, dim);
    }
}

void
SystolicArray::computeRow(const std::int8_t *a_row, std::uint32_t k,
                          std::int32_t *acc, bool accumulate) const
{
    if (k > params.dim)
        panic("computeRow: k exceeds array dimension");
    if (!acc)
        return;
#if SNPU_X86_SIMD
    if (a_row && params.dim % 16 == 0 && systolic_detail::avx2RowKernel()) {
        computeRowAvx2(a_row, k, weights.data(), params.dim, acc,
                       accumulate);
        return;
    }
#endif
    systolic_detail::computeRowScalar(a_row, k, weights.data(), params.dim,
                                      acc, accumulate);
}

} // namespace snpu
