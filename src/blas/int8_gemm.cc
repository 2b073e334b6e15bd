#include "int8_gemm.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "blas/pack_cache.hh"
#include "blas/scratch_arena.hh"
#include "blas/simd_int_kernels.hh"
#include "blas/tune.hh"
#include "common/logging.hh"
#include "exec/thread_pool.hh"

namespace mc {
namespace blas {

namespace {

void
validateQuantShapes(std::size_t m, std::size_t n, std::size_t k,
                    const QuantParams &qp)
{
    mc_assert(k <= kMaxQuantizedK,
              "quantized GEMM: k beyond the int32 accumulator bound");
    mc_assert(std::isfinite(qp.scaleA) && qp.scaleA > 0.0f &&
                  std::isfinite(qp.scaleB) && qp.scaleB > 0.0f &&
                  std::isfinite(qp.scaleD) && qp.scaleD > 0.0f,
              "quantized GEMM: scales must be positive and finite");
    mc_assert(qp.zeroA >= -128 && qp.zeroA <= 127 && qp.zeroB >= -128 &&
                  qp.zeroB <= 127 && qp.zeroD >= -128 && qp.zeroD <= 127,
              "quantized GEMM: zero points must lie in int8 range");
    (void)m;
    (void)n;
}

void
validateQuantProblem(const Matrix<std::int8_t> &a,
                     const Matrix<std::int8_t> &b,
                     const Matrix<std::int8_t> &c,
                     const Matrix<std::int8_t> &d, const QuantParams &qp)
{
    mc_assert(b.rows() == a.cols(), "quantized GEMM: A/B depth mismatch");
    mc_assert(c.rows() == a.rows() && c.cols() == b.cols(),
              "quantized GEMM: C shape mismatch");
    mc_assert(d.rows() == a.rows() && d.cols() == b.cols(),
              "quantized GEMM: D shape mismatch");
    validateQuantShapes(a.rows(), b.cols(), a.cols(), qp);
}

// ---- Staging routines (the bytes, however obtained, are identical) ---

void
padAInto(const std::int8_t *a, std::size_t m, std::size_t k,
         std::size_t kp, std::int8_t *out)
{
    std::fill_n(out, m * kp, std::int8_t{0});
    for (std::size_t i = 0; i < m; ++i)
        std::copy_n(a + i * k, k, out + i * kp);
}

/** B in the tier's k-group layout (simd_int_kernels.hh). */
void
packBInto(const std::int8_t *b, std::size_t k, std::size_t n,
          std::size_t kp, std::size_t g, std::int8_t *out)
{
    std::fill_n(out, kp * n, std::int8_t{0});
    for (std::size_t kk = 0; kk < k; ++kk) {
        const std::int8_t *brow = b + kk * n;
        std::int8_t *dst = out + (kk / g) * n * g + (kk % g);
        for (std::size_t j = 0; j < n; ++j)
            dst[j * g] = brow[j];
    }
}

/** Operand sums for the zero-point correction (and the VNNI +128
 *  bias). |rowsum| <= 32768 * 128 — comfortably int32. */
void
rowSumInto(const std::int8_t *a, std::size_t m, std::size_t k,
           std::int32_t *out)
{
    for (std::size_t i = 0; i < m; ++i) {
        const std::int8_t *arow = a + i * k;
        std::int32_t sum = 0;
        for (std::size_t kk = 0; kk < k; ++kk)
            sum += arow[kk];
        out[i] = sum;
    }
}

void
colSumInto(const std::int8_t *b, std::size_t k, std::size_t n,
           std::int32_t *out)
{
    std::fill_n(out, n, 0);
    for (std::size_t kk = 0; kk < k; ++kk) {
        const std::int8_t *brow = b + kk * n;
        for (std::size_t j = 0; j < n; ++j)
            out[j] += brow[j];
    }
}

/** Cache-or-arena staging of one int8 byproduct; @p fingerprint is the
 *  source operand's CRC (computed once per operand and shared by its
 *  pack and sum entries). */
template <typename TOut, typename Fill>
const TOut *
stageI8(PackKind kind, std::uint8_t tier, std::uint32_t fingerprint,
        std::size_t src_bytes, std::size_t rows, std::size_t cols,
        std::size_t pad, std::size_t out_elems, ScratchArena::Frame &frame,
        std::shared_ptr<const PackEntry> &keep, const Fill &fill)
{
    if (PackCache::shouldCache(src_bytes)) {
        PackKey key;
        key.kind = kind;
        key.srcType = packTypeTag<std::int8_t>();
        key.accType = packTypeTag<TOut>();
        key.tier = tier;
        key.fingerprint = fingerprint;
        key.srcBytes = src_bytes;
        key.rows = rows;
        key.cols = cols;
        key.pad = pad;
        keep = PackCache::instance().findOrPack(
            key, out_elems * sizeof(TOut),
            [&](void *out) { fill(static_cast<TOut *>(out)); });
        return keep->template as<TOut>();
    }
    TOut *out = frame.alloc<TOut>(out_elems);
    fill(out);
    return out;
}

/** The staged inputs one quantized GEMM consumes. */
struct I8Staged
{
    const std::int8_t *abase = nullptr;
    std::size_t lda = 0;
    const std::int8_t *bpack = nullptr;
    const std::int32_t *rowsum = nullptr;
    const std::int32_t *colsum = nullptr;
    std::shared_ptr<const PackEntry> keep[4];
};

I8Staged
stageQuantizedA(const std::int8_t *a, std::size_t m, std::size_t k,
                std::size_t kp, std::uint8_t tier,
                ScratchArena::Frame &frame)
{
    I8Staged staged;
    const std::size_t src_bytes = m * k;
    const std::uint32_t crc =
        PackCache::shouldCache(src_bytes) ? packFingerprint(a, src_bytes)
                                          : 0;
    if (kp == k) {
        staged.abase = a;
        staged.lda = k;
    } else {
        staged.abase = stageI8<std::int8_t>(
            PackKind::I8PadA, tier, crc, src_bytes, m, k, kp, m * kp,
            frame, staged.keep[0],
            [&](std::int8_t *out) { padAInto(a, m, k, kp, out); });
        staged.lda = kp;
    }
    staged.rowsum = stageI8<std::int32_t>(
        PackKind::I8RowSum, tier, crc, src_bytes, m, k, 0, m, frame,
        staged.keep[1],
        [&](std::int32_t *out) { rowSumInto(a, m, k, out); });
    return staged;
}

void
stageQuantizedB(I8Staged &staged, const std::int8_t *b, std::size_t k,
                std::size_t n, std::size_t kp, std::size_t g,
                std::uint8_t tier, ScratchArena::Frame &frame)
{
    const std::size_t src_bytes = k * n;
    const std::uint32_t crc =
        PackCache::shouldCache(src_bytes) ? packFingerprint(b, src_bytes)
                                          : 0;
    staged.bpack = stageI8<std::int8_t>(
        PackKind::I8PackB, tier, crc, src_bytes, k, n, kp, kp * n, frame,
        staged.keep[2],
        [&](std::int8_t *out) { packBInto(b, k, n, kp, g, out); });
    staged.colsum = stageI8<std::int32_t>(
        PackKind::I8ColSum, tier, crc, src_bytes, k, n, 0, n, frame,
        staged.keep[3],
        [&](std::int32_t *out) { colSumInto(b, k, n, out); });
}

/** The blocked multiply/epilogue over staged inputs: bit-identical to
 *  scalarQuantizedGemm by exact integer arithmetic. */
void
quantizedCore(std::size_t m, std::size_t n, std::size_t k, std::size_t kp,
              double alpha, const I8Staged &staged, double beta,
              const std::int8_t *c, std::int8_t *d, const QuantParams &qp,
              const Int8Kernels &ker, const FunctionalGemmOptions &res)
{
    const std::size_t g = ker.kGroup;
    const std::size_t bm = static_cast<std::size_t>(res.blockM);
    const std::size_t bn = static_cast<std::size_t>(res.blockN);
    const std::size_t bk =
        (static_cast<std::size_t>(res.blockK) + 3) / 4 * 4;

    const double eff = effectiveQuantScale(alpha, qp);
    const std::int64_t za = qp.zeroA;
    const std::int64_t zb = qp.zeroB;
    const std::int64_t kzz = static_cast<std::int64_t>(k) * za * zb;
    const std::int64_t abias = ker.biasA128 ? 128 : 0;

    exec::parallelChunks(m, bm, res.threads, [&](std::size_t i0,
                                                 std::size_t i1) {
        ScratchArena::Frame frame;
        std::int32_t *accs = frame.alloc<std::int32_t>(bn);
        for (std::size_t i = i0; i < i1; ++i) {
            const std::int8_t *arow = staged.abase + i * staged.lda;
            for (std::size_t j0 = 0; j0 < n; j0 += bn) {
                const std::size_t nj = std::min(bn, n - j0);
                std::fill_n(accs, nj, 0);
                for (std::size_t k0 = 0; k0 < kp; k0 += bk) {
                    const std::size_t nk = std::min(bk, kp - k0);
                    // Panel origin: (k0/g)*n*g + j0*g = k0*n + j0*g
                    // since g divides k0.
                    ker.dotI8(arow + k0, staged.bpack + k0 * n + j0 * g,
                              n, nk, accs, nj);
                }
                for (std::size_t j = 0; j < nj; ++j) {
                    const std::size_t col = j0 + j;
                    const std::int64_t acc =
                        static_cast<std::int64_t>(accs[j]) -
                        (abias + za) * staged.colsum[col] -
                        zb * staged.rowsum[i] + kzz;
                    mc_assert(
                        acc >= std::numeric_limits<std::int32_t>::min() &&
                            acc <= std::numeric_limits<std::int32_t>::max(),
                        "quantized GEMM: corrected accumulator overflow");
                    d[i * n + col] =
                        requantizeI8(static_cast<std::int32_t>(acc), eff,
                                     beta, c[i * n + col], qp);
                }
            }
        }
    });
}

} // namespace

void
scalarQuantizedGemm(double alpha, const Matrix<std::int8_t> &a,
                    const Matrix<std::int8_t> &b, double beta,
                    const Matrix<std::int8_t> &c, Matrix<std::int8_t> &d,
                    const QuantParams &qp)
{
    validateQuantProblem(a, b, c, d, qp);
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    const double eff = effectiveQuantScale(alpha, qp);
    // k outermost over a row of accumulators: B is read row-wise, and
    // each acc(i, j) still sums its products in ascending k.
    std::vector<std::int32_t> acc(n);
    for (std::size_t i = 0; i < m; ++i) {
        std::fill(acc.begin(), acc.end(), 0);
        for (std::size_t kk = 0; kk < k; ++kk) {
            const std::int32_t av =
                static_cast<std::int32_t>(a(i, kk)) - qp.zeroA;
            for (std::size_t j = 0; j < n; ++j)
                acc[j] += av *
                          (static_cast<std::int32_t>(b(kk, j)) - qp.zeroB);
        }
        for (std::size_t j = 0; j < n; ++j)
            d(i, j) = requantizeI8(acc[j], eff, beta, c(i, j), qp);
    }
}

void
fastQuantizedGemm(double alpha, const Matrix<std::int8_t> &a,
                  const Matrix<std::int8_t> &b, double beta,
                  const Matrix<std::int8_t> &c, Matrix<std::int8_t> &d,
                  const QuantParams &qp, const FunctionalGemmOptions &opts)
{
    validateQuantProblem(a, b, c, d, qp);
    fastBatchedQuantizedGemm(1, alpha, a.data(), 0, b.data(), 0, beta,
                             c.data(), 0, d.data(), 0, a.rows(), b.cols(),
                             a.cols(), qp, opts);
}

void
fastBatchedQuantizedGemm(std::size_t batch, double alpha,
                         const std::int8_t *a, std::size_t stride_a,
                         const std::int8_t *b, std::size_t stride_b,
                         double beta, const std::int8_t *c,
                         std::size_t stride_c, std::int8_t *d,
                         std::size_t stride_d, std::size_t m,
                         std::size_t n, std::size_t k,
                         const QuantParams &qp,
                         const FunctionalGemmOptions &opts)
{
    validateQuantShapes(m, n, k, qp);
    mc_assert(stride_c != 0 || batch <= 1,
              "batched quantized GEMM: C entries may not alias");
    mc_assert(stride_d != 0 || batch <= 1,
              "batched quantized GEMM: D entries may not alias");

    const FunctionalGemmOptions res =
        resolveFunctionalOptions(opts, GemmCombo::I8gemm, n);
    const Int8Kernels &ker = int8KernelsFor(res.simd);
    const std::uint8_t tier = static_cast<std::uint8_t>(ker.tier);

    // Pad k to a multiple of 4 (every tier's group divides 4) with
    // zeros on both operands — zero products leave the sum exact. The
    // panel depth also rounds up so panel origins stay group-aligned.
    const std::size_t kp = (k + 3) / 4 * 4;

    // Shared (stride-0) operands stage once for the whole batch; the
    // weight-side B pack and column sums are the expensive ones.
    ScratchArena::Frame shared_frame;
    I8Staged shared_a;
    bool have_shared_a = false;
    I8Staged shared_b;
    bool have_shared_b = false;
    if (stride_a == 0) {
        shared_a = stageQuantizedA(a, m, k, kp, tier, shared_frame);
        have_shared_a = true;
    }
    if (stride_b == 0) {
        stageQuantizedB(shared_b, b, k, n, kp, ker.kGroup, tier,
                        shared_frame);
        have_shared_b = true;
    }

    for (std::size_t e = 0; e < batch; ++e) {
        ScratchArena::Frame frame;
        I8Staged staged =
            have_shared_a
                ? shared_a
                : stageQuantizedA(a + e * stride_a, m, k, kp, tier, frame);
        if (have_shared_b) {
            staged.bpack = shared_b.bpack;
            staged.colsum = shared_b.colsum;
        } else {
            stageQuantizedB(staged, b + e * stride_b, k, n, kp,
                            ker.kGroup, tier, frame);
        }
        quantizedCore(m, n, k, kp, alpha, staged, beta, c + e * stride_c,
                      d + e * stride_d, qp, ker, res);
    }
}

} // namespace blas
} // namespace mc
