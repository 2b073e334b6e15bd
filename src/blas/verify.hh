/**
 * @file
 * Functional GEMM verification, in the paper's style.
 *
 * Section IV-A: "values in A and C are set to 1, while B is set to the
 * identity matrix. The result in D should be a n x n matrix filled
 * with 2, which makes the correctness of results easily verifiable."
 * verifyGemm() runs that scheme (and a randomized variant) once through
 * the engine-selected execution path — the tiled Matrix Core dataflow
 * or the per-step-rounded SIMD path — and checks the result bitwise:
 * on a seeded sample of rows against the independent scalar reference
 * (functional.hh, int8_gemm.hh), and under the paper scheme against
 * the closed form over every element.
 */

#ifndef MC_BLAS_VERIFY_HH
#define MC_BLAS_VERIFY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "blas/fast_gemm.hh"
#include "blas/gemm_types.hh"
#include "blas/tiling.hh"
#include "common/status.hh"

namespace mc {
namespace blas {

/** Which operand-filling scheme a verification run uses. */
enum class VerifyScheme
{
    /** A = 1, B = I, C = 1: D must be alpha + beta everywhere. */
    PaperOnesIdentity,
    /** Uniform random operands, checked against the scalar reference
     *  on the sampled rows. */
    Random,
};

/** Outcome of a verification run. */
struct VerifyResult
{
    bool passed = false;
    bool usedMatrixCores = false;
    /** Checked elements whose bits differ from the expected value. */
    std::size_t mismatches = 0;
    /** Largest |computed - expected| over the mismatches (in the C/D
     *  type's widened representation). */
    double maxAbsError = 0.0;
    /** Always 0: bit-exactness is the fast path's contract
     *  (docs/PERF.md), so any difference fails. */
    double tolerance = 0.0;
    /** Largest ULP distance over the mismatches, in the C/D storage
     *  type (fp::ulpDistance; fp::kUlpNan when a NaN appeared; the
     *  integer difference for int8). */
    std::uint64_t maxUlp = 0;
    /** The (i, j) index, as an entry row and column, of the first
     *  mismatch with the largest ULP distance — the actionable pointer
     *  when a failure at large N needs debugging. */
    std::size_t errorRow = 0;
    std::size_t errorCol = 0;
    /** Distinct batch entries the run checked (1 for plain GEMMs;
     *  min(batchCount, kMaxVerifyBatchEntries) for batched configs,
     *  executed through the strided-batched drivers). */
    std::size_t batchEntries = 1;
    std::string detail;
};

/** Batched configs verify this many distinct entries through the
 *  strided-batched drivers — enough to exercise shared-B staging and
 *  per-entry A/C strides while keeping the host O(m*n*k*entries) check
 *  affordable at sweep sizes (batch counts reach 1024). */
inline constexpr std::size_t kMaxVerifyBatchEntries = 4;

/** Rows per batch entry that verifyGemm checks against the scalar
 *  reference (all of them when m is smaller). */
inline constexpr std::size_t kVerifySampleRows = 8;

/**
 * The half-width r of the random scheme's int8 A and B draws (uniform
 * on [-r, r]): sized from the depth @p k and the effective requantize
 * scale @p eff_scale (effectiveQuantScale) so that the outputs spread
 * over about a third of the int8 range. Over the whole int8 range
 * nearly every output saturates at +-127, and a saturated element
 * cannot show a kernel fault.
 */
int randomSchemeI8HalfWidth(std::size_t k, double eff_scale);

/**
 * The rows of an @p m -row entry that verifyGemm compares with the
 * scalar reference: min(m, kVerifySampleRows) distinct rows in
 * ascending order. They always include row 0, the last row of the
 * first row block (@p block_m - 1), the first row of the last row
 * block and m - 1; seeded picks derived from @p seed fill the rest.
 * @p block_m is the fast path's resolved FunctionalGemmOptions::blockM.
 */
std::vector<std::size_t> verifySampleRows(std::size_t m,
                                          std::size_t block_m,
                                          std::uint64_t seed);

/**
 * Compare the fast output @p d (entries x m rows of n, entry e at rows
 * [e*m, (e+1)*m)) bitwise with the reference @p ref of the sampled
 * @p rows (entry e's sample s at row e*rows.size() + s), recording
 * every mismatch in @p result and setting result.passed to "no
 * mismatch so far". Instantiated for float, double, fp::Half and
 * int8.
 */
template <typename TCD>
void compareSampledRows(const TCD *d, const TCD *ref, std::size_t m,
                        std::size_t n, std::size_t entries,
                        const std::vector<std::size_t> &rows,
                        VerifyResult &result);

/**
 * Execute @p config functionally on the host, once, with the same path
 * selection the engine uses (Matrix Core tiling vs per-step-rounded
 * SIMD arithmetic), and verify the result at zero ULP: sampled rows
 * (verifySampleRows) against the independent scalar reference, plus,
 * under the paper scheme, every element against the closed form
 * evaluated in the kernel's own arithmetic.
 *
 * Problem sizes are limited by host O(n^3) work; the fast functional
 * backend makes n <= ~4096 practical (see docs/PERF.md).
 *
 * @param seed randomization seed for VerifyScheme::Random and the
 *        sampled rows.
 * @param func thread/block knobs of the functional backend (results
 *        are identical for every setting).
 */
VerifyResult verifyGemm(const GemmConfig &config,
                        VerifyScheme scheme = VerifyScheme::PaperOnesIdentity,
                        std::uint64_t seed = 0x5eed,
                        const PlannerOptions &opts = PlannerOptions(),
                        const FunctionalGemmOptions &func =
                            FunctionalGemmOptions());

} // namespace blas
} // namespace mc

#endif // MC_BLAS_VERIFY_HH
