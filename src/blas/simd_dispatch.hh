/**
 * @file
 * Runtime CPU-feature dispatch for the fast functional-GEMM backend's
 * SIMD micro-kernels (docs/PERF.md, "The dispatch ladder").
 *
 * Tiers form a ladder: scalar < sse2 < avx2 < avx512 on x86-64, and
 * scalar < neon on aarch64. Every tier computes bit-identical results
 * (the kernels vectorize across the j lanes of the axpy panels, one
 * ascending-k accumulator per output element, mul and add pinned as
 * separate roundings), so the choice trades speed only. The process
 * default comes from the MC_SIMD environment variable intersected with
 * the feature probe; an explicitly requested tier the machine cannot
 * run clamps down to the best available tier at or below its rung, so
 * forced-tier CI entries stay portable.
 */

#ifndef MC_BLAS_SIMD_DISPATCH_HH
#define MC_BLAS_SIMD_DISPATCH_HH

#include <string>
#include <string_view>
#include <vector>

namespace mc {
namespace blas {

/** One rung of the micro-kernel ladder (Auto = resolve at call time). */
enum class SimdTier
{
    Auto,
    Scalar,
    Sse2,
    Avx2,
    Avx512,
    Neon,
};

/** The runtime feature probe (cached after the first call). */
struct CpuFeatures
{
    bool sse2 = false;
    bool avx2 = false;
    /** F16C (vcvtps2ph/vcvtph2ps), probed on its own: separate from
     *  AVX2 in CPUID, and the avx2 rung needs both. */
    bool f16c = false;
    /** AVX-512 F+BW+VL+DQ (the Skylake-server baseline). */
    bool avx512 = false;
    /** AVX512-VNNI (vpdpbusd); refines the Avx512 tier's int8 dot
     *  kernel, not a ladder rung of its own. */
    bool avx512vnni = false;
    bool neon = false;
};

/** Detected host features, accounting for OS state-saving support. */
const CpuFeatures &cpuFeatures();

/** Lower-case tier name ("auto", "scalar", "sse2", ...). */
const char *simdTierName(SimdTier tier);

/** Parse a tier name; returns false (and leaves @p out alone) on an
 *  unknown spelling. */
bool parseSimdTier(std::string_view text, SimdTier *out);

/** True when the host can run @p tier's kernels (Scalar always can). */
bool simdTierAvailable(SimdTier tier);

/** Every available tier, lowest rung first (always starts Scalar). */
std::vector<SimdTier> availableSimdTiers();

/** The highest available rung. */
SimdTier bestSimdTier();

/**
 * The MC_SIMD environment tier, read and cached on first use (Auto
 * when unset or empty; fatal on an unknown value — a typo in a gating
 * CI variable must not silently fall back).
 */
SimdTier envSimdTier();

/**
 * The tier that will actually run for @p requested: Auto consults
 * MC_SIMD and then the feature probe; an unavailable explicit request
 * clamps down the ladder (one stderr note per distinct clamped
 * request). Never returns Auto.
 */
SimdTier resolveSimdTier(SimdTier requested);

/**
 * Label of every tier this process has actually dispatched to (fetched
 * a kernel table for), '+'-joined in ladder order — e.g. "avx2", or
 * "scalar+avx2" after a run that forced both. Before any dispatch it
 * falls back to what Auto would resolve to, so a completion line
 * printed by a bench that never ran a GEMM still names the process
 * default. Benches put this on their stderr completion line so sweep
 * artifacts are attributable to the kernel tier that produced them.
 */
std::string usedSimdTierLabel();

} // namespace blas
} // namespace mc

#endif // MC_BLAS_SIMD_DISPATCH_HH
