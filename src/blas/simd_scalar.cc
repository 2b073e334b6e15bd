/**
 * @file
 * The scalar tier: the retained PR-4 fast-path kernels (compiled -O3
 * in fast_gemm.cc) and the software conversion loops, wrapped into a
 * SimdKernels table. This is the baseline every vector tier must match
 * bit-for-bit, and the tier MC_SIMD=scalar pins for debugging.
 */

#include "blas/fast_gemm.hh"
#include "blas/simd_kernels.hh"
#include "fp/convert.hh"

namespace mc {
namespace blas {
namespace detail {

namespace {

void
axpyF32(const float *arow, const float *bpanel, std::size_t ldb,
        std::size_t nk, float *accs, std::size_t nj)
{
    axpyPanel<float>(arow, bpanel, ldb, nk, accs, nj);
}

void
axpyRoundHalfF32(const float *arow, const float *bpanel, std::size_t ldb,
                 std::size_t nk, float *accs, std::size_t nj)
{
    axpyPanelRound<fp::Half, float>(arow, bpanel, ldb, nk, accs, nj);
}

void
axpyF64(const double *arow, const double *bpanel, std::size_t ldb,
        std::size_t nk, double *accs, std::size_t nj)
{
    axpyPanel<double>(arow, bpanel, ldb, nk, accs, nj);
}

} // namespace

const SimdKernels &
scalarSimdKernels()
{
    static const SimdKernels kernels = {
        .tier = SimdTier::Scalar,
        .axpyF32 = axpyF32,
        .axpyRoundHalfF32 = axpyRoundHalfF32,
        .axpyF64 = axpyF64,
        .widenHalfToF32 = fp::widenHalfBits,
        .widenBf16ToF32 = fp::widenBf16Bits,
    };
    return kernels;
}

} // namespace detail
} // namespace blas
} // namespace mc
