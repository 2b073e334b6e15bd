/**
 * @file
 * The tier-generic SIMD micro-kernel algorithms, templated over a
 * per-ISA `Ops` wrapper (simd_sse2.cc / simd_avx2.cc / simd_avx512.cc
 * / simd_neon.cc, and the one-lane simd_scalar.cc, define one each and
 * instantiate makeVecKernels). Only those translation units may
 * include this header: they are compiled with the matching -m<isa>
 * flag plus -ffp-contract=off, which is what keeps the algorithms
 * below bit-exact.
 *
 * Why every kernel is bit-identical to the scalar tier:
 *
 *  - The micro-kernel holds an Ops::kMR-row x Ops::kNV-vector block
 *    of accumulators and vectorizes across j (columns). Every (row,
 *    lane) is its own accumulator, so each one performs the same two
 *    roundings per k step, in the same ascending-k order, as the
 *    scalar loop — PROVIDED mul and add stay separate. The TU's
 *    -ffp-contract=off (and the absence of -mfma) pins that; a fused
 *    mul-add would skip the product rounding and change bits. The
 *    block shape (MR, NV) only decides which accumulators share a
 *    register pass, so it never changes bits either.
 *  - The round_each_step chain's f16 round trip is a per-Ops
 *    primitive (roundTripHalf below). The avx2 and avx512 Ops supply
 *    the hardware converts: vcvtps2ph with the RNE immediate equals
 *    Half::fromFloatBits on all 2^32 f32 inputs (NaN payload rule
 *    included), and vcvtph2ps differs from the software widen only by
 *    quieting the signalling-NaN halves, which the narrow never emits.
 *    The sse2 and neon Ops leave it to the integer code below. The
 *    batch widen used for operand packing always stays on the integer
 *    code: packing sees caller bits, signalling NaNs included.
 *  - The integer f32->f16 narrow is RNE: rebias the exponent by
 *    subtracting 0x38000000, then add 0xfff plus the kept lsb so the
 *    carry implements round-to-nearest-even exactly (round up iff
 *    round_bit && (sticky || kept&1)), clamp the overflow to infinity,
 *    and handle subnormals by converting |x| * 2^24 to int with the
 *    hardware's RNE convert (the multiply is a pure exponent shift, so
 *    it is exact). NaNs keep the software payload rule
 *    (quiet bit | top 10 fraction bits). tests/fp/simd_convert_test.cc
 *    checks all of this exhaustively against fp::Half.
 *  - The integer f16->f32 widen rebiases normals, maps exp==31 onto
 *    the f32 inf/NaN pattern, and renormalizes subnormals as
 *    frac * 2^-24 (again an exact multiply). The bf16 widen is a
 *    16-bit shift.
 *
 * The subnormal paths use the vector float<->int converts, which
 * follow the default MXCSR/FPCR rounding mode (round to nearest even)
 * and assume denormals are not flushed; this process never changes
 * either setting.
 */

#ifndef MC_BLAS_SIMD_VEC_KERNELS_HH
#define MC_BLAS_SIMD_VEC_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <utility>

#include "blas/simd_kernels.hh"
#include "fp/bfloat16.hh"
#include "fp/half.hh"

namespace mc {
namespace blas {
namespace detail {

/** One accumulator type's lanes: the f32 or f64 half of Ops. */
template <typename Ops, typename T>
struct Lanes;

template <typename Ops>
struct Lanes<Ops, float>
{
    using V = typename Ops::VF;
    static constexpr std::size_t kWidth = Ops::kWidthF;
    static V load(const float *p) { return Ops::loadF(p); }
    static void store(float *p, V v) { Ops::storeF(p, v); }
    static V set1(float v) { return Ops::set1F(v); }
    static V add(V a, V b) { return Ops::addF(a, b); }
    static V mul(V a, V b) { return Ops::mulF(a, b); }
};

template <typename Ops>
struct Lanes<Ops, double>
{
    using V = typename Ops::VD;
    static constexpr std::size_t kWidth = Ops::kWidthD;
    static V load(const double *p) { return Ops::loadD(p); }
    static void store(double *p, V v) { Ops::storeD(p, v); }
    static V set1(double v) { return Ops::set1D(v); }
    static V add(V a, V b) { return Ops::addD(a, b); }
    static V mul(V a, V b) { return Ops::mulD(a, b); }
};

template <typename Ops>
struct VecKernels
{
    using VF = typename Ops::VF;
    using VI = typename Ops::VI;
    static constexpr std::size_t WF = Ops::kWidthF;

    // ---- f32 <-> f16 lane conversions (f32 bits in, f16 bits out,
    // both in 32-bit lanes) ----------------------------------------

    static VI
    narrowLanesHalf(VI f)
    {
        const VI abs = Ops::andI(f, Ops::set1I(0x7fffffff));
        const VI sign =
            Ops::andI(Ops::template srli<16>(f), Ops::set1I(0x8000));
        // Normal halves: rebias (f32 bias 127 -> f16 bias 15, mantissa
        // 23 -> 10 bits) and round to nearest even with one add.
        const VI base = Ops::subI(abs, Ops::set1I(0x38000000));
        const VI lsb =
            Ops::andI(Ops::template srli<13>(base), Ops::set1I(1));
        VI norm = Ops::template srli<13>(
            Ops::addI(base, Ops::addI(Ops::set1I(0xfff), lsb)));
        // Values that round past the largest finite half become inf.
        norm = Ops::blendI(norm, Ops::set1I(0x7c00),
                           Ops::cmpgtI(norm, Ops::set1I(0x7c00)));
        // Subnormal halves (|x| below the smallest normal, 2^-14):
        // |x| * 2^24 is exact, and the RNE float->int convert performs
        // the software kept/round/sticky logic in one instruction.
        const VI subn = Ops::cvtF2I(
            Ops::mulF(Ops::castI2F(abs), Ops::set1F(16777216.0f)));
        // Inf and NaN; NaNs keep the quiet bit plus the payload's top
        // 10 bits, exactly like Half::fromFloatBits.
        const VI payload =
            Ops::andI(Ops::template srli<13>(abs), Ops::set1I(0x3ff));
        VI spec = Ops::set1I(0x7c00);
        spec = Ops::blendI(spec,
                           Ops::orI(Ops::set1I(0x7c00 | 0x200), payload),
                           Ops::cmpgtI(abs, Ops::set1I(0x7f800000)));
        VI h = norm;
        h = Ops::blendI(h, subn,
                        Ops::cmpgtI(Ops::set1I(0x38800000), abs));
        h = Ops::blendI(h, spec,
                        Ops::cmpgtI(abs, Ops::set1I(0x7f7fffff)));
        return Ops::orI(h, sign);
    }

    static VI
    widenLanesHalf(VI h)
    {
        const VI sign =
            Ops::template slli<16>(Ops::andI(h, Ops::set1I(0x8000)));
        const VI exp16 =
            Ops::andI(Ops::template srli<10>(h), Ops::set1I(0x1f));
        const VI frac = Ops::andI(h, Ops::set1I(0x3ff));
        // Normal halves: rebias the exponent, shift the fraction up.
        VI bits = Ops::orI(
            Ops::template slli<23>(Ops::addI(exp16, Ops::set1I(112))),
            Ops::template slli<13>(frac));
        // Subnormal halves renormalize as frac * 2^-24 (exact; frac==0
        // yields +0, and the sign OR below restores -0).
        const VI subn = Ops::castF2I(Ops::mulF(
            Ops::cvtI2F(frac), Ops::set1F(5.9604644775390625e-08f)));
        bits = Ops::blendI(bits, subn,
                           Ops::cmpeqI(exp16, Ops::set1I(0)));
        // Inf/NaN: all-ones f32 exponent, fraction shifted up.
        bits = Ops::blendI(bits,
                           Ops::orI(Ops::set1I(0x7f800000),
                                    Ops::template slli<13>(frac)),
                           Ops::cmpeqI(exp16, Ops::set1I(31)));
        return Ops::orI(bits, sign);
    }

    // ---- the register-blocked micro-kernel -----------------------

    /**
     * acc[r * ldacc + j] += a[r * lda + kk] * bpanel[kk * NR + j] for
     * r < R, j < NR = kNV * W, kk < nk ascending (the SimdKernels
     * MicroFn contract at a fixed row count). The R x kNV accumulator
     * vectors are loaded once, consume the whole k-block from
     * registers, and are stored once; each k step loads kNV vectors of
     * B and broadcasts R values of A. With kRoundHalf every sum is
     * rounded to binary16 and widened back (the round_each_step chain);
     * the round trip's latency sits on each accumulator's own chain,
     * and the R * kNV chains are what keep the converts busy.
     */
    template <typename T, std::size_t R, bool kRoundHalf>
    static void
    microBlock(const T *a, std::size_t lda, const T *bpanel,
               std::size_t nk, T *acc, std::size_t ldacc)
    {
        using L = Lanes<Ops, T>;
        using V = typename L::V;
        constexpr std::size_t NV = Ops::kNV;
        constexpr std::size_t W = L::kWidth;
        V c[R][NV];
        for (std::size_t r = 0; r < R; ++r)
            for (std::size_t v = 0; v < NV; ++v)
                c[r][v] = L::load(acc + r * ldacc + v * W);
        for (std::size_t kk = 0; kk < nk; ++kk, bpanel += NV * W) {
            V b[NV];
            for (std::size_t v = 0; v < NV; ++v)
                b[v] = L::load(bpanel + v * W);
            for (std::size_t r = 0; r < R; ++r) {
                const V av = L::set1(a[r * lda + kk]);
                for (std::size_t v = 0; v < NV; ++v) {
                    const V sum = L::add(c[r][v], L::mul(av, b[v]));
                    if constexpr (kRoundHalf)
                        c[r][v] = roundTripHalf(sum);
                    else
                        c[r][v] = sum;
                }
            }
        }
        for (std::size_t r = 0; r < R; ++r)
            for (std::size_t v = 0; v < NV; ++v)
                L::store(acc + r * ldacc + v * W, c[r][v]);
    }

    /** The MicroFn entry: microBlock at rows (1..kMR) rows. Leftover
     *  row groups run the same loop with fewer rows. */
    template <typename T, bool kRoundHalf>
    static void
    micro(const T *a, std::size_t lda, const T *bpanel, std::size_t nk,
          T *acc, std::size_t ldacc, std::size_t rows)
    {
        [&]<std::size_t... R>(std::index_sequence<R...>) {
            ((rows == R + 1
                  ? microBlock<T, R + 1, kRoundHalf>(a, lda, bpanel, nk,
                                                     acc, ldacc)
                  : void()),
             ...);
        }(std::make_index_sequence<Ops::kMR>{});
    }

    /** One f16 round trip per lane, f32(f16(acc)) with Half's RNE:
     *  the tier's own Ops::roundTripHalf when it has one (the hardware
     *  converts of avx2/avx512, the software Half of the scalar tier),
     *  else the integer emulation above. */
    static VF
    roundTripHalf(VF acc)
    {
        if constexpr (requires { Ops::roundTripHalf(acc); })
            return Ops::roundTripHalf(acc);
        else
            return Ops::castI2F(
                widenLanesHalf(narrowLanesHalf(Ops::castF2I(acc))));
    }

    // ---- batched conversions --------------------------------------

    static void
    widenHalf(const std::uint16_t *in, float *out, std::size_t n)
    {
        std::size_t i = 0;
        for (; i + WF <= n; i += WF)
            Ops::storeF(out + i, Ops::castI2F(widenLanesHalf(
                                     Ops::loadU16(in + i))));
        for (; i < n; ++i)
            out[i] = fp::Half::fromBits(in[i]).toFloat();
    }

    static void
    widenBf16(const std::uint16_t *in, float *out, std::size_t n)
    {
        std::size_t i = 0;
        for (; i + WF <= n; i += WF)
            Ops::storeF(out + i,
                        Ops::castI2F(Ops::template slli<16>(
                            Ops::loadU16(in + i))));
        for (; i < n; ++i)
            out[i] = fp::BFloat16::fromBits(in[i]).toFloat();
    }
};

/** The micro-kernel half of one tier's dispatch table: block shape,
 *  micro-panel widths and the three MicroFn entries. */
template <typename Ops>
SimdKernels
makeMicroKernels(SimdTier tier)
{
    using K = VecKernels<Ops>;
    SimdKernels ker;
    ker.tier = tier;
    ker.mr = Ops::kMR;
    ker.nrF32 = Ops::kNV * Ops::kWidthF;
    ker.nrF64 = Ops::kNV * Ops::kWidthD;
    ker.microF32 = K::template micro<float, false>;
    ker.microRoundHalfF32 = K::template micro<float, true>;
    ker.microF64 = K::template micro<double, false>;
    return ker;
}

/** Build the dispatch table of one vector tier from its Ops wrapper. */
template <typename Ops>
SimdKernels
makeVecKernels(SimdTier tier)
{
    using K = VecKernels<Ops>;
    SimdKernels ker = makeMicroKernels<Ops>(tier);
    ker.widenHalfToF32 = K::widenHalf;
    ker.widenBf16ToF32 = K::widenBf16;
    return ker;
}

} // namespace detail
} // namespace blas
} // namespace mc

#endif // MC_BLAS_SIMD_VEC_KERNELS_HH
