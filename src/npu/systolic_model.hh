/**
 * @file
 * Weight-stationary systolic array model (Gemmini-style, 16x16 PEs
 * per tile in the Table II configuration). Provides both the cycle
 * cost of operations and, optionally, the functional int8 GEMM so
 * correctness tests and attack demos operate on real data.
 */

#ifndef SNPU_NPU_SYSTOLIC_MODEL_HH
#define SNPU_NPU_SYSTOLIC_MODEL_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace snpu
{

/** Systolic array geometry. */
struct SystolicParams
{
    /** Array dimension (PE rows == PE columns). */
    std::uint32_t dim = 16;
};

/**
 * One systolic array. Holds the currently preloaded weight tile
 * (weight-stationary dataflow) and computes cycle counts.
 */
class SystolicArray
{
  public:
    explicit SystolicArray(SystolicParams params = {});

    std::uint32_t dim() const { return params.dim; }

    /** Cycles to preload a dim x dim weight tile into the PEs. */
    Tick preloadCycles() const { return params.dim; }

    /**
     * Cycles to stream @p rows activation rows through the array:
     * fill + drain latency of 2*dim plus one row per cycle.
     */
    Tick computeCycles(std::uint32_t rows) const
    {
        return rows + 2 * static_cast<Tick>(params.dim);
    }

    /** Peak MAC throughput: dim*dim MACs per cycle. */
    std::uint64_t peakMacsPerCycle() const
    {
        return static_cast<std::uint64_t>(params.dim) * params.dim;
    }

    /**
     * Functionally preload weights from a row-major int8 buffer of
     * dim rows of dim elements, @p row_stride bytes apart (0: dense),
     * so scratchpad rows wider than the array load in place. Null
     * (timing-only mode) zeroes the weights.
     */
    void preload(const std::int8_t *weights, std::size_t row_stride = 0);

    /**
     * Functionally compute one activation row (dim int8 values, the
     * first @p k of which are live) against the preloaded weights,
     * producing dim int32 partial sums.
     *
     * @param acc  accumulator row (dim int32); accumulated into when
     *             @p accumulate, overwritten otherwise.
     */
    void computeRow(const std::int8_t *a_row, std::uint32_t k,
                    std::int32_t *acc, bool accumulate) const;

  private:
    SystolicParams params;
    std::vector<std::int8_t> weights; // dim*dim, row-major
};

namespace systolic_detail
{

/**
 * A functional row kernel: SystolicArray::computeRow over a dense
 * dim x dim row-major weight tile into a non-null @p acc.
 */
using RowKernel = void (*)(const std::int8_t *a_row, std::uint32_t k,
                           const std::int8_t *weights, std::uint32_t dim,
                           std::int32_t *acc, bool accumulate);

/** The portable kernel: any host, any dim, null @p a_row as zeros. */
void computeRowScalar(const std::int8_t *a_row, std::uint32_t k,
                      const std::int8_t *weights, std::uint32_t dim,
                      std::int32_t *acc, bool accumulate);

/**
 * The AVX2 kernel (non-null @p a_row, dim % 16 == 0), or null on a
 * host without AVX2.
 */
RowKernel avx2RowKernel();

} // namespace systolic_detail

} // namespace snpu

#endif // SNPU_NPU_SYSTOLIC_MODEL_HH
