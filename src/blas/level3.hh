/**
 * @file
 * Additional BLAS level-3 routines: triangular solve with multiple
 * right-hand sides (TRSM) and symmetric rank-k update (SYRK).
 *
 * These are the routines LAPACK-style factorizations delegate to
 * besides GEMM: blocked LU uses TRSM for its U12 panels, blocked
 * Cholesky uses TRSM and SYRK for its trailing updates. rocBLAS maps
 * both onto Matrix Cores through the same tiling machinery as GEMM
 * (TRSM via blocked diagonal inversion plus GEMM updates), so the
 * planner here models them as GEMM-equivalent Matrix Core work with
 * the triangular-shape discount. Level3Engine runs them (and GEMV) on
 * the simulated device only; there is no host numeric implementation.
 */

#ifndef MC_BLAS_LEVEL3_HH
#define MC_BLAS_LEVEL3_HH

#include "blas/gemm.hh"

namespace mc {
namespace blas {

/** Which side the triangular matrix multiplies from. */
enum class Side
{
    Left,  ///< solve op(A) * X = alpha * B
    Right, ///< solve X * op(A) = alpha * B
};

/** Which triangle of the matrix is referenced. */
enum class Fill
{
    Lower,
    Upper,
};

/**
 * A triangular solve problem: X such that op(A) X = alpha B (Left) or
 * X op(A) = alpha B (Right), with A triangular m x m (Left) or
 * n x n (Right), and B m x n.
 */
struct TrsmConfig
{
    GemmCombo combo = GemmCombo::Sgemm; ///< datatype selection
    Side side = Side::Left;
    Fill fill = Fill::Lower;
    bool unitDiagonal = false;
    std::size_t m = 0; ///< rows of B
    std::size_t n = 0; ///< columns of B
    double alpha = 1.0;
    int device = 0;

    /** Algorithmic FLOPs: m^2 n (Left) or m n^2 (Right). */
    double flops() const
    {
        const double mm = static_cast<double>(m);
        const double nn = static_cast<double>(n);
        return side == Side::Left ? mm * mm * nn : mm * nn * nn;
    }
};

/**
 * A symmetric rank-k update: C = alpha * A * A^T + beta * C with C
 * n x n (one triangle updated) and A n x k.
 */
struct SyrkConfig
{
    GemmCombo combo = GemmCombo::Sgemm;
    Fill fill = Fill::Lower;
    std::size_t n = 0;
    std::size_t k = 0;
    double alpha = 1.0;
    double beta = 0.0;
    int device = 0;

    /** Algorithmic FLOPs: n^2 k (half of the equivalent GEMM). */
    double flops() const
    {
        return static_cast<double>(n) * n * k;
    }
};

/**
 * A matrix-vector multiply: y = alpha * A * x + beta * y, A m x n.
 * GEMV has O(1) arithmetic intensity — every element of A is touched
 * once per FLOP pair — so it never profits from Matrix Cores and runs
 * bandwidth-bound on the SIMDs, the counterpoint to GEMM on the
 * roofline.
 */
struct GemvConfig
{
    GemmCombo combo = GemmCombo::Sgemm;
    std::size_t m = 0;
    std::size_t n = 0;
    double alpha = 1.0;
    double beta = 0.0;
    int device = 0;

    /** Algorithmic FLOPs: 2 m n. */
    double flops() const { return 2.0 * static_cast<double>(m) * n; }
};

/**
 * Level-2/3 routines executed against the simulated device through a
 * GemmEngine (sharing its planner options and runtime).
 */
class Level3Engine
{
  public:
    explicit Level3Engine(GemmEngine &engine) : _engine(engine) {}

    /**
     * Execute a TRSM on the device (timing path). Matrix Core usage
     * follows the underlying datatype's GEMM path.
     */
    Result<GemmResult> runTrsm(const TrsmConfig &config);

    /** Execute a SYRK on the device (timing path). */
    Result<GemmResult> runSyrk(const SyrkConfig &config);

    /** Execute a GEMV on the device (always the SIMD path). */
    Result<GemmResult> runGemv(const GemvConfig &config);

  private:
    GemmEngine &_engine;
};

} // namespace blas
} // namespace mc

#endif // MC_BLAS_LEVEL3_HH
