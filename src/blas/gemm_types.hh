/**
 * @file
 * The GEMM datatype combinations the paper evaluates (Table III plus
 * the plain single/double routines), and the result record of one GEMM
 * execution.
 */

#ifndef MC_BLAS_GEMM_TYPES_HH
#define MC_BLAS_GEMM_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>

#include "arch/types.hh"
#include "blas/simd_dispatch.hh"
#include "common/logging.hh"
#include "fp/half.hh"
#include "sim/device.hh"

namespace mc {
namespace blas {

/**
 * Datatype combination of a rocblas_gemm_ex-style call.
 *
 * Naming follows the paper: HGEMM/HSS/HHS operate on FP16 A/B and
 * differ in the C/D and compute types (Table III).
 */
enum class GemmCombo
{
    Dgemm,  ///< f64 <- f64, compute f64
    Sgemm,  ///< f32 <- f32, compute f32
    Hgemm,  ///< f16 <- f16, compute f16 (no Matrix Core support!)
    Hhs,    ///< f16 C/D, f16 A/B, compute f32
    Hss,    ///< f32 C/D, f16 A/B, compute f32
    I8gemm, ///< i8 C/D, i8 A/B, i32 accumulate + requantize
};

/** Static description of a combo (the paper's Table III row). */
struct ComboInfo
{
    const char *name;
    arch::DataType typeAB;
    arch::DataType typeCD;
    arch::DataType computeType; ///< type of the alpha/beta arithmetic
};

/** Table III lookup. */
const ComboInfo &comboInfo(GemmCombo combo);

/** The paper's five float combos, in its presentation order. The
 *  figure benches and Table III renderings iterate this list; the
 *  INT8 extension is deliberately not part of the paper's layout. */
inline constexpr GemmCombo allCombos[] = {
    GemmCombo::Dgemm, GemmCombo::Sgemm, GemmCombo::Hgemm,
    GemmCombo::Hhs, GemmCombo::Hss,
};

/** Every combo the library implements: the paper's five plus the
 *  quantized INT8 path (docs/PERF.md "Integer kernels"). Name parsing
 *  (CLI flags, tuning artifacts, serve requests) accepts all of
 *  these. */
inline constexpr GemmCombo allLibraryCombos[] = {
    GemmCombo::Dgemm, GemmCombo::Sgemm, GemmCombo::Hgemm,
    GemmCombo::Hhs, GemmCombo::Hss, GemmCombo::I8gemm,
};

/** Parse a combo name ("dgemm", "i8gemm", ...); fatal on unknown
 *  names. */
GemmCombo parseCombo(const std::string &name);

/**
 * The host types one combo computes in, as visitCombo hands them to
 * its visitor: C/D storage, A/B storage and accumulator.
 */
template <typename CD, typename AB, typename Acc, bool RoundEachStep>
struct ComboTypes
{
    using TCD = CD;
    using TAB = AB;
    using TAcc = Acc;
    /** The accumulator rounds to TCD after every multiply-add (the
     *  f16 FMA chain of HGEMM). */
    static constexpr bool roundEachStep = RoundEachStep;
    /** Integer storage with a requantizing epilogue (QuantParams):
     *  runs through the int8 entry points, not the float templates. */
    static constexpr bool quantized = std::is_integral_v<AB>;
};

/** The I8gemm combo's types. */
using QuantizedComboTypes =
    ComboTypes<std::int8_t, std::int8_t, std::int32_t, false>;

/**
 * Call @p visitor with the ComboTypes of @p combo and return what it
 * returns. This is the one place that maps a combo to its host types
 * and rounding rule; a new combo is one case here.
 */
template <typename F>
decltype(auto)
visitCombo(GemmCombo combo, F &&visitor)
{
    switch (combo) {
      case GemmCombo::Dgemm:
        return visitor(ComboTypes<double, double, double, false>{});
      case GemmCombo::Sgemm:
        return visitor(ComboTypes<float, float, float, false>{});
      case GemmCombo::Hgemm:
        return visitor(ComboTypes<fp::Half, fp::Half, float, true>{});
      case GemmCombo::Hhs:
        return visitor(ComboTypes<fp::Half, fp::Half, float, false>{});
      case GemmCombo::Hss:
        return visitor(ComboTypes<float, fp::Half, float, false>{});
      case GemmCombo::I8gemm:
        return visitor(QuantizedComboTypes{});
    }
    mc_panic("unknown GemmCombo ", static_cast<int>(combo));
}

// ---- Quantization -------------------------------------------------------

/**
 * Per-tensor affine quantization parameters of an I8gemm call:
 * real = scale * (q - zero) for each of A, B and C/D.
 *
 * The kernel contract (docs/PERF.md "Integer kernels"): accumulate
 * sum_k (a - zeroA)*(b - zeroB) exactly in int32, then requantize
 *
 *   D = saturate_i8(rne(alpha*effScale*acc + beta*(c - zeroD)) + zeroD)
 *
 * with effScale = scaleA*scaleB/scaleD and rne = round-to-nearest,
 * ties-to-even. Integer accumulation is exact in any order, so every
 * SIMD tier produces bit-identical D by construction.
 */
struct QuantParams
{
    float scaleA = 1.0f; ///< positive, finite
    float scaleB = 1.0f;
    float scaleD = 1.0f;
    std::int32_t zeroA = 0; ///< in [-128, 127]
    std::int32_t zeroB = 0;
    std::int32_t zeroD = 0;

    bool operator==(const QuantParams &) const = default;
};

// ---- Functional-backend knobs -------------------------------------------

/** Built-in block constants of the fast functional backend: what an
 *  auto (0) field resolves to when no tuning artifact supplies a
 *  better value (docs/PERF.md "Autotuning"). */
inline constexpr int kDefaultBlockM = 64;
inline constexpr int kDefaultBlockN = 128;
inline constexpr int kDefaultBlockK = 256;

/**
 * Thread / block-size knobs of the fast functional backend
 * (src/blas/fast_gemm.hh). Results are identical for every setting —
 * the knobs trade speed only.
 *
 * Block fields default to 0 = "auto": resolved at plan/dispatch time
 * to the persisted autotuner configuration for this (combo, SIMD tier,
 * problem-size bucket) when a tuning artifact is active, and to the
 * kDefaultBlock* constants otherwise (blas/tune.hh). An explicit
 * (> 0) value always wins over the artifact, and MC_TUNE=off disables
 * the artifact process-wide.
 */
struct FunctionalGemmOptions
{
    /** Row-block fan-out width: >= 1 explicit (1 = serial), 0 = auto
     *  (tuned thread count when an artifact is active, hardware
     *  concurrency otherwise), < 0 = hardware concurrency. */
    int threads = 1;
    /** Rows per parallel task (also the i-block); 0 = auto. */
    int blockM = 0;
    /** Output-panel width (j-block; accumulator row length); 0 = auto. */
    int blockN = 0;
    /** Depth of one k-panel; 0 = auto. */
    int blockK = 0;
    /** SIMD micro-kernel tier. Auto defers to the MC_SIMD environment
     *  override, then to the best tier the CPU supports. Results are
     *  bit-identical across tiers — this knob trades speed (and aids
     *  debugging) only. An unavailable explicit tier clamps down the
     *  ladder with a one-time stderr note. */
    SimdTier simd = SimdTier::Auto;
};

/**
 * One D <- alpha*A*B + beta*C problem.
 */
struct GemmConfig
{
    GemmCombo combo = GemmCombo::Sgemm;
    std::size_t m = 0;
    std::size_t n = 0;
    std::size_t k = 0;
    double alpha = 1.0;
    double beta = 0.0;
    int device = 0;

    /**
     * Independent problems solved by one call (the
     * rocblas_gemm_strided_batched_ex pattern ML workloads use);
     * 1 = plain GEMM.
     */
    std::size_t batchCount = 1;

    /** Ablation knob: force the macro-tile edge (0 = heuristic). */
    int forceMacroTile = 0;
    /** Ablation knob: force the Matrix Core path decision. */
    std::optional<bool> forceMatrixCorePath;

    /** Quantization parameters; consulted by I8gemm only (and part of
     *  that combo's plan identity). */
    QuantParams quant;

    /** Algorithmic multiply-add FLOPs of the matrix product
     *  (2mnk per batch entry). */
    double productFlops() const
    {
        return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
               static_cast<double>(k) * static_cast<double>(batchCount);
    }
};

/** Outcome of one GEMM execution. */
struct GemmResult
{
    sim::KernelResult kernel;
    bool usedMatrixCores = false;
    int macroTile = 0;

    /** Delivered FLOP/s (matrix product + scaling work over time). */
    double throughput() const { return kernel.throughput(); }
};

} // namespace blas
} // namespace mc

#endif // MC_BLAS_GEMM_TYPES_HH
