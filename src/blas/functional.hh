/**
 * @file
 * Functional (numeric) GEMM execution paths.
 *
 * Two implementations of D <- alpha*A*B + beta*C exist so they can be
 * checked against each other:
 *  - referenceGemm: explicit accumulator semantics (including the
 *    per-step rounding a SIMD f16 FMA chain performs, which is how
 *    HGEMM really behaves on the VALU path);
 *  - tiledMatrixCoreGemm: the Matrix Core dataflow — 16x16 micro-tiles
 *    accumulated through executeMfma in the accumulator precision, with
 *    the alpha/beta scaling applied afterwards in the compute type,
 *    exactly as the library kernel does it.
 *
 * Both public entry points are a batch of one through the strided-
 * batched driver (batched_gemm.hh) over the blocked/packed/threaded
 * backend in fast_gemm.hh, which is bit-identical to the scalar loops
 * retained here as scalarReferenceGemm / scalarTiledMatrixCoreGemm
 * (the baseline the bit-exactness suite and host verification compare
 * against).
 * See docs/PERF.md.
 */

#ifndef MC_BLAS_FUNCTIONAL_HH
#define MC_BLAS_FUNCTIONAL_HH

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "arch/mfma_exec.hh"
#include "arch/mfma_isa.hh"
#include "blas/batched_gemm.hh"
#include "common/logging.hh"
#include "common/matrix.hh"
#include "fp/traits.hh"

namespace mc {
namespace blas {

/**
 * Scalar reference GEMM, kept as the semantic ground truth the fast
 * backend must match bit-for-bit: every D(i, j) is one TAcc
 * accumulator over the products widen(a(i,kk)) * widen(b(kk,j)) in
 * ascending kk, then alpha/beta in TAcc and one narrowing to TCD.
 * The k loop is outermost over a row of accumulators per output row,
 * so each B row is widened once per call (in an n-element buffer,
 * skipped when TAB already is TAcc); the per-element sum is unchanged.
 *
 * @tparam TCD storage type of C and D.
 * @tparam TAB storage type of A and B.
 * @tparam TAcc accumulator type of the dot product.
 * @param round_each_step round the accumulator back to TCD after every
 *        FMA (models a reduced-precision VALU FMA chain; only
 *        meaningful when TCD is narrower than TAcc).
 */
template <typename TCD, typename TAB, typename TAcc>
void
scalarReferenceGemm(double alpha, const Matrix<TAB> &a,
                    const Matrix<TAB> &b, double beta,
                    const Matrix<TCD> &c, Matrix<TCD> &d,
                    bool round_each_step = false)
{
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    mc_assert(b.rows() == k, "GEMM inner dimensions disagree");
    mc_assert(c.rows() == m && c.cols() == n, "C shape mismatch");
    mc_assert(d.rows() == m && d.cols() == n, "D shape mismatch");

    std::vector<TAcc> acc(m * n, TAcc(0));
    std::vector<TAcc> widened(std::is_same_v<TAB, TAcc> ? 0 : n);
    for (std::size_t kk = 0; kk < k; ++kk) {
        const TAcc *brow;
        if constexpr (std::is_same_v<TAB, TAcc>) {
            brow = &b(kk, 0);
        } else {
            for (std::size_t j = 0; j < n; ++j)
                widened[j] = static_cast<TAcc>(
                    fp::NumericTraits<TAB>::widen(b(kk, j)));
            brow = widened.data();
        }
        for (std::size_t i = 0; i < m; ++i) {
            const TAcc av = static_cast<TAcc>(
                fp::NumericTraits<TAB>::widen(a(i, kk)));
            TAcc *arow = &acc[i * n];
            for (std::size_t j = 0; j < n; ++j) {
                arow[j] += av * brow[j];
                if (round_each_step) {
                    arow[j] = static_cast<TAcc>(
                        fp::NumericTraits<TCD>::widen(TCD(arow[j])));
                }
            }
        }
    }
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const TAcc scaled =
                static_cast<TAcc>(alpha) * acc[i * n + j] +
                static_cast<TAcc>(beta) *
                    static_cast<TAcc>(
                        fp::NumericTraits<TCD>::widen(c(i, j)));
            d(i, j) = TCD(scaled);
        }
    }
}

/**
 * Reference GEMM entry point: a batch of one through the blocked/
 * packed/threaded strided-batched driver (batched_gemm.hh), which is
 * bit-identical to scalarReferenceGemm for every shape, option setting
 * and thread count (@p opts only tunes speed).
 */
template <typename TCD, typename TAB, typename TAcc>
void
referenceGemm(double alpha, const Matrix<TAB> &a, const Matrix<TAB> &b,
              double beta, const Matrix<TCD> &c, Matrix<TCD> &d,
              bool round_each_step = false,
              const FunctionalGemmOptions &opts = FunctionalGemmOptions())
{
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    mc_assert(b.rows() == k, "GEMM inner dimensions disagree");
    mc_assert(c.rows() == m && c.cols() == n, "C shape mismatch");
    mc_assert(d.rows() == m && d.cols() == n, "D shape mismatch");
    fastBatchedGemm<TCD, TAB, TAcc>(1, alpha, a.data(), 0, b.data(), 0,
                                    beta, c.data(), 0, d.data(), 0, m, n,
                                    k, round_each_step, opts);
}

/**
 * Scalar tiled Matrix Core GEMM: pad to the instruction shape,
 * accumulate each 16x16 (or instruction-shaped) output tile across K
 * through executeMfma in @p TAcc precision, then apply the alpha/beta
 * pass. Kept as the ground truth for tiledMatrixCoreGemm. The operand
 * tiles are gathered already widened to TAcc (widening is exact), so
 * the MFMA chain runs as executeMfma<TAcc, TAcc> without a widen per
 * product.
 *
 * @tparam TAcc the Matrix Core accumulator type for this input type
 *         (float for f16/bf16/f32 inputs, double for f64).
 */
template <typename TCD, typename TAB, typename TAcc>
void
scalarTiledMatrixCoreGemm(const arch::MfmaInstruction &inst, double alpha,
                          const Matrix<TAB> &a, const Matrix<TAB> &b,
                          double beta, const Matrix<TCD> &c, Matrix<TCD> &d)
{
    mc_assert(inst.shape.blocks == 1,
              "the tiled path uses single-block instructions");
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    mc_assert(b.rows() == k, "GEMM inner dimensions disagree");
    mc_assert(c.rows() == m && c.cols() == n, "C shape mismatch");
    mc_assert(d.rows() == m && d.cols() == n, "D shape mismatch");

    const int tm = inst.shape.m;
    const int tn = inst.shape.n;
    const int tk = inst.shape.k;
    const auto widen = [](TAB v) {
        return static_cast<TAcc>(fp::NumericTraits<TAB>::widen(v));
    };

    // Zero-padded, widened operand tiles, gathered per (tile, k-slice).
    std::vector<TAcc> a_tile(static_cast<std::size_t>(tm) * tk);
    std::vector<TAcc> b_tile(static_cast<std::size_t>(tk) * tn);
    std::vector<TAcc> acc_tile(static_cast<std::size_t>(tm) * tn);
    std::vector<TAcc> out_tile(static_cast<std::size_t>(tm) * tn);

    for (std::size_t i0 = 0; i0 < m; i0 += tm) {
        // Tile rows are independent dot products, so a tile past the
        // last row runs the instruction on its valid rows only (a
        // sampled-row call is often a fraction of one tile tall).
        arch::MfmaInstruction rows_inst = inst;
        rows_inst.shape.m =
            static_cast<int>(std::min<std::size_t>(tm, m - i0));
        for (std::size_t j0 = 0; j0 < n; j0 += tn) {
            std::fill(acc_tile.begin(), acc_tile.end(), TAcc(0));
            for (std::size_t k0 = 0; k0 < k; k0 += tk) {
                for (int i = 0; i < tm; ++i) {
                    for (int kk = 0; kk < tk; ++kk) {
                        const std::size_t gi = i0 + i, gk = k0 + kk;
                        a_tile[static_cast<std::size_t>(i) * tk + kk] =
                            (gi < m && gk < k) ? widen(a(gi, gk))
                                               : TAcc(0);
                    }
                }
                for (int kk = 0; kk < tk; ++kk) {
                    for (int j = 0; j < tn; ++j) {
                        const std::size_t gk = k0 + kk, gj = j0 + j;
                        b_tile[static_cast<std::size_t>(kk) * tn + j] =
                            (gk < k && gj < n) ? widen(b(gk, gj))
                                               : TAcc(0);
                    }
                }
                arch::executeMfma<TAcc, TAcc>(rows_inst, a_tile.data(),
                                              b_tile.data(),
                                              acc_tile.data(),
                                              out_tile.data());
                acc_tile.swap(out_tile);
            }
            // Alpha/beta pass in the compute (accumulator) type.
            for (int i = 0; i < tm; ++i) {
                for (int j = 0; j < tn; ++j) {
                    const std::size_t gi = i0 + i, gj = j0 + j;
                    if (gi >= m || gj >= n)
                        continue;
                    const TAcc scaled =
                        static_cast<TAcc>(alpha) *
                            acc_tile[static_cast<std::size_t>(i) * tn + j] +
                        static_cast<TAcc>(beta) *
                            static_cast<TAcc>(
                                fp::NumericTraits<TCD>::widen(c(gi, gj)));
                    d(gi, gj) = TCD(scaled);
                }
            }
        }
    }
}

/**
 * Tiled Matrix Core GEMM entry point: a batch of one through the
 * strided-batched driver, which executes the scalarTiledMatrixCoreGemm
 * dataflow bit-identically (k zero-padded to the instruction's k
 * multiple — the executeMfma chain consumes whole k-slices, and the
 * padding's +0.0 products are part of its accumulation sequence — and
 * no per-step rounding; @p opts only tunes speed).
 */
template <typename TCD, typename TAB, typename TAcc>
void
tiledMatrixCoreGemm(const arch::MfmaInstruction &inst, double alpha,
                    const Matrix<TAB> &a, const Matrix<TAB> &b,
                    double beta, const Matrix<TCD> &c, Matrix<TCD> &d,
                    const FunctionalGemmOptions &opts =
                        FunctionalGemmOptions())
{
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    mc_assert(b.rows() == k, "GEMM inner dimensions disagree");
    mc_assert(c.rows() == m && c.cols() == n, "C shape mismatch");
    mc_assert(d.rows() == m && d.cols() == n, "D shape mismatch");
    fastBatchedTiledMatrixCoreGemm<TCD, TAB, TAcc>(
        inst, 1, alpha, a.data(), 0, b.data(), 0, beta, c.data(), 0,
        d.data(), 0, m, n, k, opts);
}

} // namespace blas
} // namespace mc

#endif // MC_BLAS_FUNCTIONAL_HH
