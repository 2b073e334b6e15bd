/**
 * @file
 * The tier-generic SIMD micro-kernel algorithms, templated over a
 * per-ISA `Ops` wrapper (simd_sse2.cc / simd_avx2.cc / simd_avx512.cc
 * / simd_neon.cc define one each and instantiate makeVecKernels). Only
 * those translation units may include this header: they are compiled
 * with the matching -m<isa> flag plus -ffp-contract=off, which is what
 * keeps the algorithms below bit-exact.
 *
 * Why every kernel is bit-identical to the scalar tier:
 *
 *  - The axpy panels vectorize across j (columns). Different j are
 *    different accumulators, so W lanes of "acc += av * b" perform the
 *    same two roundings per element, in the same ascending-k order, as
 *    the scalar loop — PROVIDED mul and add stay separate. The TU's
 *    -ffp-contract=off (and the absence of -mfma) pins that; a fused
 *    mul-add would skip the product rounding and change bits.
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

#include "blas/simd_kernels.hh"
#include "fp/bfloat16.hh"
#include "fp/half.hh"

namespace mc {
namespace blas {
namespace detail {

template <typename Ops>
struct VecKernels
{
    using VF = typename Ops::VF;
    using VD = typename Ops::VD;
    using VI = typename Ops::VI;
    static constexpr std::size_t WF = Ops::kWidthF;
    static constexpr std::size_t WD = Ops::kWidthD;

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

    // ---- axpy panels ----------------------------------------------

    // The panel loops run j-outer / kk-inner: a group of accumulator
    // vectors is loaded once, consumes the whole k-block from
    // registers, and is stored once. Relative to the textbook kk-outer
    // order this removes the per-step accumulator load/store (3 memory
    // ops per mul+add become 1) without touching the bits: element j's
    // accumulator still receives its k-terms one at a time, ascending.

    static void
    axpyF32(const float *arow, const float *bpanel, std::size_t ldb,
            std::size_t nk, float *accs, std::size_t nj)
    {
        std::size_t j = 0;
        for (; j + 4 * WF <= nj; j += 4 * WF) {
            VF acc0 = Ops::loadF(accs + j);
            VF acc1 = Ops::loadF(accs + j + WF);
            VF acc2 = Ops::loadF(accs + j + 2 * WF);
            VF acc3 = Ops::loadF(accs + j + 3 * WF);
            const float *brow = bpanel + j;
            for (std::size_t kk = 0; kk < nk; ++kk, brow += ldb) {
                const VF av = Ops::set1F(arow[kk]);
                const VF p0 = Ops::mulF(av, Ops::loadF(brow));
                const VF p1 = Ops::mulF(av, Ops::loadF(brow + WF));
                const VF p2 = Ops::mulF(av, Ops::loadF(brow + 2 * WF));
                const VF p3 = Ops::mulF(av, Ops::loadF(brow + 3 * WF));
                acc0 = Ops::addF(acc0, p0);
                acc1 = Ops::addF(acc1, p1);
                acc2 = Ops::addF(acc2, p2);
                acc3 = Ops::addF(acc3, p3);
            }
            Ops::storeF(accs + j, acc0);
            Ops::storeF(accs + j + WF, acc1);
            Ops::storeF(accs + j + 2 * WF, acc2);
            Ops::storeF(accs + j + 3 * WF, acc3);
        }
        for (; j + WF <= nj; j += WF) {
            VF acc = Ops::loadF(accs + j);
            const float *brow = bpanel + j;
            for (std::size_t kk = 0; kk < nk; ++kk, brow += ldb) {
                const VF p = Ops::mulF(Ops::set1F(arow[kk]),
                                       Ops::loadF(brow));
                acc = Ops::addF(acc, p);
            }
            Ops::storeF(accs + j, acc);
        }
        for (; j < nj; ++j) {
            float acc = accs[j];
            const float *brow = bpanel + j;
            for (std::size_t kk = 0; kk < nk; ++kk, brow += ldb) {
                acc += arow[kk] * *brow;
            }
            accs[j] = acc;
        }
    }

    static void
    axpyF64(const double *arow, const double *bpanel, std::size_t ldb,
            std::size_t nk, double *accs, std::size_t nj)
    {
        std::size_t j = 0;
        for (; j + 4 * WD <= nj; j += 4 * WD) {
            VD acc0 = Ops::loadD(accs + j);
            VD acc1 = Ops::loadD(accs + j + WD);
            VD acc2 = Ops::loadD(accs + j + 2 * WD);
            VD acc3 = Ops::loadD(accs + j + 3 * WD);
            const double *brow = bpanel + j;
            for (std::size_t kk = 0; kk < nk; ++kk, brow += ldb) {
                const VD av = Ops::set1D(arow[kk]);
                const VD p0 = Ops::mulD(av, Ops::loadD(brow));
                const VD p1 = Ops::mulD(av, Ops::loadD(brow + WD));
                const VD p2 = Ops::mulD(av, Ops::loadD(brow + 2 * WD));
                const VD p3 = Ops::mulD(av, Ops::loadD(brow + 3 * WD));
                acc0 = Ops::addD(acc0, p0);
                acc1 = Ops::addD(acc1, p1);
                acc2 = Ops::addD(acc2, p2);
                acc3 = Ops::addD(acc3, p3);
            }
            Ops::storeD(accs + j, acc0);
            Ops::storeD(accs + j + WD, acc1);
            Ops::storeD(accs + j + 2 * WD, acc2);
            Ops::storeD(accs + j + 3 * WD, acc3);
        }
        for (; j + WD <= nj; j += WD) {
            VD acc = Ops::loadD(accs + j);
            const double *brow = bpanel + j;
            for (std::size_t kk = 0; kk < nk; ++kk, brow += ldb) {
                const VD p = Ops::mulD(Ops::set1D(arow[kk]),
                                       Ops::loadD(brow));
                acc = Ops::addD(acc, p);
            }
            Ops::storeD(accs + j, acc);
        }
        for (; j < nj; ++j) {
            double acc = accs[j];
            const double *brow = bpanel + j;
            for (std::size_t kk = 0; kk < nk; ++kk, brow += ldb) {
                acc += arow[kk] * *brow;
            }
            accs[j] = acc;
        }
    }

    /** One f16 round trip per lane, f32(f16(acc)) with Half's RNE:
     *  the tier's own Ops::roundTripHalf when it has one (the hardware
     *  converts of avx2/avx512), else the integer emulation above. */
    static VF
    roundTripHalf(VF acc)
    {
        if constexpr (requires { Ops::roundTripHalf(acc); })
            return Ops::roundTripHalf(acc);
        else
            return Ops::castI2F(
                widenLanesHalf(narrowLanesHalf(Ops::castF2I(acc))));
    }

    /** N independent round_each_step chains, one per vector of
     *  accs[0, N*WF): loaded once, fed the whole k-block, stored once.
     *  The round trip's latency sits on each chain's critical path, so
     *  the chains are what keep the converts (or the integer
     *  emulation) busy. */
    template <std::size_t N>
    static void
    roundHalfChains(const float *arow, const float *bpanel,
                    std::size_t ldb, std::size_t nk, float *accs)
    {
        VF acc[N];
        for (std::size_t v = 0; v < N; ++v)
            acc[v] = Ops::loadF(accs + v * WF);
        for (std::size_t kk = 0; kk < nk; ++kk, bpanel += ldb) {
            const VF av = Ops::set1F(arow[kk]);
            for (std::size_t v = 0; v < N; ++v)
                acc[v] = roundTripHalf(Ops::addF(
                    acc[v], Ops::mulF(av, Ops::loadF(bpanel + v * WF))));
        }
        for (std::size_t v = 0; v < N; ++v)
            Ops::storeF(accs + v * WF, acc[v]);
    }

    /** The round_each_step HGEMM chain: the f16 round trip stays in
     *  32-bit lanes, so one narrow+widen per mul-add, no packing. A
     *  default 128-column panel runs as groups of 8 chains; the rest
     *  falls to 4-, 2- and 1-chain groups, then scalar columns. */
    static void
    axpyRoundHalfF32(const float *arow, const float *bpanel,
                     std::size_t ldb, std::size_t nk, float *accs,
                     std::size_t nj)
    {
        std::size_t j = 0;
        for (; j + 8 * WF <= nj; j += 8 * WF)
            roundHalfChains<8>(arow, bpanel + j, ldb, nk, accs + j);
        if (j + 4 * WF <= nj) {
            roundHalfChains<4>(arow, bpanel + j, ldb, nk, accs + j);
            j += 4 * WF;
        }
        if (j + 2 * WF <= nj) {
            roundHalfChains<2>(arow, bpanel + j, ldb, nk, accs + j);
            j += 2 * WF;
        }
        if (j + WF <= nj) {
            roundHalfChains<1>(arow, bpanel + j, ldb, nk, accs + j);
            j += WF;
        }
        for (; j < nj; ++j) {
            float acc = accs[j];
            const float *brow = bpanel + j;
            for (std::size_t kk = 0; kk < nk; ++kk, brow += ldb)
                acc = fp::Half(acc + arow[kk] * *brow).toFloat();
            accs[j] = acc;
        }
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

/** Build the dispatch table of one tier from its Ops wrapper. */
template <typename Ops>
SimdKernels
makeVecKernels(SimdTier tier)
{
    using K = VecKernels<Ops>;
    return SimdKernels{
        .tier = tier,
        .axpyF32 = K::axpyF32,
        .axpyRoundHalfF32 = K::axpyRoundHalfF32,
        .axpyF64 = K::axpyF64,
        .widenHalfToF32 = K::widenHalf,
        .widenBf16ToF32 = K::widenBf16,
    };
}

} // namespace detail
} // namespace blas
} // namespace mc

#endif // MC_BLAS_SIMD_VEC_KERNELS_HH
