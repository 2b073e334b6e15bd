#include "simd_dispatch.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "blas/simd_int_kernels.hh"
#include "blas/simd_kernels.hh"
#include "common/logging.hh"

namespace mc {
namespace blas {

namespace {

/** Ladder rung for clamping: an unavailable request falls to the best
 *  available tier at or below its rung. Neon shares the Sse2 rung (the
 *  128-bit baseline of the other architecture). */
int
tierRank(SimdTier tier)
{
    switch (tier) {
      case SimdTier::Auto: return -1;
      case SimdTier::Scalar: return 0;
      case SimdTier::Sse2: return 1;
      case SimdTier::Neon: return 1;
      case SimdTier::Avx2: return 2;
      case SimdTier::Avx512: return 3;
    }
    mc_panic("unreachable SimdTier");
}

CpuFeatures
probeCpu()
{
    CpuFeatures f;
#if defined(MC_SIMD_HAVE_X86)
    // The GCC/Clang builtins account for OS XSAVE support, not just
    // the CPUID bits, so an AVX-capable CPU under an AVX-less kernel
    // correctly reports false.
    f.sse2 = __builtin_cpu_supports("sse2");
    f.avx2 = __builtin_cpu_supports("avx2");
    f.f16c = __builtin_cpu_supports("f16c");
    f.avx512 = __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512vl") &&
               __builtin_cpu_supports("avx512dq");
    f.avx512vnni = f.avx512 && __builtin_cpu_supports("avx512vnni");
#endif
#if defined(MC_SIMD_HAVE_NEON)
    f.neon = true; // baseline on aarch64
#endif
    return f;
}

/** Bitmask (1 << int(tier)) of every tier simdKernels() has handed
 *  out, so completion lines can report the tiers actually dispatched
 *  rather than the process-default resolution. */
std::atomic<unsigned> g_dispatched_tiers{0};

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures features = probeCpu();
    return features;
}

const char *
simdTierName(SimdTier tier)
{
    switch (tier) {
      case SimdTier::Auto: return "auto";
      case SimdTier::Scalar: return "scalar";
      case SimdTier::Sse2: return "sse2";
      case SimdTier::Avx2: return "avx2";
      case SimdTier::Avx512: return "avx512";
      case SimdTier::Neon: return "neon";
    }
    mc_panic("unreachable SimdTier");
}

bool
parseSimdTier(std::string_view text, SimdTier *out)
{
    for (SimdTier tier :
         {SimdTier::Auto, SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2,
          SimdTier::Avx512, SimdTier::Neon}) {
        if (text == simdTierName(tier)) {
            *out = tier;
            return true;
        }
    }
    return false;
}

bool
simdTierAvailable(SimdTier tier)
{
    const CpuFeatures &f = cpuFeatures();
    switch (tier) {
      case SimdTier::Auto: return false;
      case SimdTier::Scalar: return true;
      case SimdTier::Sse2: return f.sse2;
      // The avx2 kernels use the F16C converts; a host without them
      // clamps down to sse2 like any other missing feature.
      case SimdTier::Avx2: return f.avx2 && f.f16c;
      case SimdTier::Avx512: return f.avx512;
      case SimdTier::Neon: return f.neon;
    }
    mc_panic("unreachable SimdTier");
}

std::vector<SimdTier>
availableSimdTiers()
{
    std::vector<SimdTier> tiers;
    for (SimdTier tier : {SimdTier::Scalar, SimdTier::Sse2, SimdTier::Neon,
                          SimdTier::Avx2, SimdTier::Avx512}) {
        if (simdTierAvailable(tier))
            tiers.push_back(tier);
    }
    return tiers;
}

SimdTier
bestSimdTier()
{
    SimdTier best = SimdTier::Scalar;
    for (SimdTier tier : availableSimdTiers())
        if (tierRank(tier) > tierRank(best))
            best = tier;
    return best;
}

SimdTier
envSimdTier()
{
    static const SimdTier tier = [] {
        const char *value = std::getenv("MC_SIMD");
        if (value == nullptr || value[0] == '\0')
            return SimdTier::Auto;
        SimdTier parsed = SimdTier::Auto;
        if (!parseSimdTier(value, &parsed))
            mc_fatal("bad MC_SIMD value '", value,
                     "': expected auto|scalar|sse2|avx2|avx512|neon");
        return parsed;
    }();
    return tier;
}

SimdTier
resolveSimdTier(SimdTier requested)
{
    if (requested == SimdTier::Auto)
        requested = envSimdTier();
    if (requested == SimdTier::Auto)
        return bestSimdTier();
    if (simdTierAvailable(requested))
        return requested;

    SimdTier clamped = SimdTier::Scalar;
    for (SimdTier tier : availableSimdTiers())
        if (tierRank(tier) <= tierRank(requested) &&
            tierRank(tier) > tierRank(clamped))
            clamped = tier;

    // One note per distinct clamped request, on stderr: stdout must
    // stay byte-identical across tiers (and it will be — the clamped
    // tier computes the same bits).
    static std::once_flag noted[6];
    std::call_once(noted[static_cast<int>(requested)], [&] {
        std::fprintf(stderr,
                     "[mc] MC_SIMD tier '%s' is unavailable on this host; "
                     "clamping to '%s'\n",
                     simdTierName(requested), simdTierName(clamped));
    });
    return clamped;
}

const SimdKernels &
simdKernels(SimdTier resolved)
{
    mc_assert(resolved != SimdTier::Auto,
              "simdKernels needs a resolved tier");
    const SimdKernels *kernels = &detail::scalarSimdKernels();
    switch (resolved) {
#if defined(MC_SIMD_HAVE_X86)
      case SimdTier::Sse2: kernels = &detail::sse2SimdKernels(); break;
      case SimdTier::Avx2: kernels = &detail::avx2SimdKernels(); break;
      case SimdTier::Avx512:
        kernels = &detail::avx512SimdKernels();
        break;
#endif
#if defined(MC_SIMD_HAVE_NEON)
      case SimdTier::Neon: kernels = &detail::neonSimdKernels(); break;
#endif
      default: break;
    }
    // Record the tier of the table handed out (not the request — an
    // unavailable compiled-out tier lands on scalar here).
    g_dispatched_tiers.fetch_or(1u << static_cast<int>(kernels->tier),
                                std::memory_order_relaxed);
    return *kernels;
}

std::string
usedSimdTierLabel()
{
    const unsigned mask =
        g_dispatched_tiers.load(std::memory_order_relaxed);
    if (mask == 0)
        return simdTierName(resolveSimdTier(SimdTier::Auto));
    std::string label;
    for (SimdTier tier : {SimdTier::Scalar, SimdTier::Sse2, SimdTier::Neon,
                          SimdTier::Avx2, SimdTier::Avx512}) {
        if ((mask & (1u << static_cast<int>(tier))) == 0)
            continue;
        if (!label.empty())
            label += '+';
        label += simdTierName(tier);
    }
    return label;
}

const SimdKernels &
simdKernelsFor(SimdTier requested)
{
    return simdKernels(resolveSimdTier(requested));
}

const Int8Kernels &
int8Kernels(SimdTier resolved)
{
    mc_assert(resolved != SimdTier::Auto,
              "int8Kernels needs a resolved tier");
    const Int8Kernels *kernels = &detail::scalarInt8Kernels();
    switch (resolved) {
#if defined(MC_SIMD_HAVE_X86)
      case SimdTier::Sse2: kernels = &detail::sse2Int8Kernels(); break;
      case SimdTier::Avx2: kernels = &detail::avx2Int8Kernels(); break;
      case SimdTier::Avx512:
        kernels = &detail::avx512Int8Kernels();
        break;
#endif
#if defined(MC_SIMD_HAVE_NEON)
      case SimdTier::Neon: kernels = &detail::neonInt8Kernels(); break;
#endif
      default: break;
    }
    g_dispatched_tiers.fetch_or(1u << static_cast<int>(kernels->tier),
                                std::memory_order_relaxed);
    return *kernels;
}

const Int8Kernels &
int8KernelsFor(SimdTier requested)
{
    return int8Kernels(resolveSimdTier(requested));
}

} // namespace blas
} // namespace mc
