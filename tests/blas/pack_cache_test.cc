/**
 * @file
 * The packed-operand cache's contracts: content-addressed keys (a
 * mutated operand can never serve stale panels), strict byte-capped
 * LRU eviction, oversized entries built but not retained, and — the
 * one that matters — cache on and cache off produce memcmp-identical
 * GEMM results for every SIMD tier, datatype combination, and thread
 * count, because cached bytes come from the exact packing routines
 * the uncached path runs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "blas/fast_gemm.hh"
#include "blas/functional.hh"
#include "blas/int8_gemm.hh"
#include "blas/pack_cache.hh"
#include "blas/simd_dispatch.hh"
#include "common/random.hh"

namespace mc {
namespace blas {
namespace {

template <typename T>
Matrix<T>
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix<T> m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m(i, j) = T(static_cast<float>(rng.uniform(-1.0, 1.0)));
    return m;
}

Matrix<std::int8_t>
randomI8(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix<std::int8_t> m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m(i, j) = static_cast<std::int8_t>(
                std::lround(rng.uniform(-128.0, 127.0)));
    return m;
}

template <typename T>
::testing::AssertionResult
bitIdentical(const Matrix<T> &x, const Matrix<T> &y)
{
    if (x.rows() != y.rows() || x.cols() != y.cols())
        return ::testing::AssertionFailure() << "shape mismatch";
    if (std::memcmp(x.data(), y.data(),
                    x.rows() * x.cols() * sizeof(T)) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < x.rows(); ++i)
        for (std::size_t j = 0; j < x.cols(); ++j)
            if (std::memcmp(&x(i, j), &y(i, j), sizeof(T)) != 0)
                return ::testing::AssertionFailure()
                       << "first differing element at (" << i << ", "
                       << j << ")";
    return ::testing::AssertionFailure() << "memcmp/element disagree";
}

/** Every test in this binary toggles the shared cache; restore a
 *  clean enabled-and-empty state around each one. */
class PackCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        PackCache::setEnabled(true);
        PackCache::setMinSourceBytes(0); // tiny test panels must cache
        PackCache::instance().clear();
    }
    void TearDown() override
    {
        PackCache::setEnabled(true);
        PackCache::setMinSourceBytes(PackCache::kDefaultMinSourceBytes);
        PackCache::instance().clear();
    }
};

PackKey
keyFor(std::uint32_t fingerprint, std::uint64_t rows, std::uint64_t cols)
{
    PackKey key;
    key.kind = PackKind::WidenA;
    key.srcType = packTypeTag<float>();
    key.accType = packTypeTag<float>();
    key.tier = 0;
    key.fingerprint = fingerprint;
    key.srcBytes = rows * cols * sizeof(float);
    key.rows = rows;
    key.cols = cols;
    key.pad = cols;
    return key;
}

// ---- Fingerprint ----------------------------------------------------

TEST(PackFingerprint, DeterministicAndContentSensitive)
{
    // Straddle the hardware path's three-chain split and its byte tail.
    std::vector<unsigned char> buf(4096 + 7, 0x5a);
    const std::uint32_t base = packFingerprint(buf.data(), buf.size());
    EXPECT_EQ(packFingerprint(buf.data(), buf.size()), base);

    // Any single flipped byte — head, interior, tail — changes it.
    for (std::size_t at : {std::size_t{0}, buf.size() / 2,
                           buf.size() - 1}) {
        buf[at] ^= 0x01;
        EXPECT_NE(packFingerprint(buf.data(), buf.size()), base)
            << "mutation at byte " << at << " not detected";
        buf[at] ^= 0x01;
    }
    EXPECT_EQ(packFingerprint(buf.data(), buf.size()), base);

    // A shorter prefix of the same bytes is a different fingerprint.
    EXPECT_NE(packFingerprint(buf.data(), buf.size() - 8), base);
}

TEST(PackFingerprint, IndependentOfAddress)
{
    // Content-addressing: the same bytes at a different (and
    // differently aligned) address fingerprint identically.
    std::vector<unsigned char> a(333);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<unsigned char>(i * 37 + 11);
    std::vector<unsigned char> shifted(a.size() + 3);
    std::memcpy(shifted.data() + 3, a.data(), a.size());
    EXPECT_EQ(packFingerprint(a.data(), a.size()),
              packFingerprint(shifted.data() + 3, a.size()));
}

// ---- LRU mechanics (standalone instances) ---------------------------

TEST(PackCacheLru, ByteCapEvictsLeastRecentlyUsed)
{
    // Three 1 KB entries in a 2.5 KB cache: inserting C must evict A
    // (the least recently used), keep B and C.
    constexpr std::size_t kEntry = 1024;
    PackCache cache(2 * kEntry + kEntry / 2);

    int fills = 0;
    const auto fill = [&](void *out) {
        std::memset(out, 0, kEntry);
        ++fills;
    };
    const PackKey ka = keyFor(1, 16, 16);
    const PackKey kb = keyFor(2, 16, 16);
    const PackKey kc = keyFor(3, 16, 16);

    cache.findOrPack(ka, kEntry, fill);
    cache.findOrPack(kb, kEntry, fill);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.residentBytes(), 2 * kEntry);

    // Touch A so B becomes least recently used, then insert C.
    cache.findOrPack(ka, kEntry, fill);
    EXPECT_EQ(cache.hits(), 1u);
    cache.findOrPack(kc, kEntry, fill);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.residentBytes(), 2 * kEntry);

    // A and C hit; B was the eviction victim and must refill.
    cache.findOrPack(ka, kEntry, fill);
    cache.findOrPack(kc, kEntry, fill);
    EXPECT_EQ(cache.hits(), 3u);
    fills = 0;
    cache.findOrPack(kb, kEntry, fill);
    EXPECT_EQ(fills, 1);
}

TEST(PackCacheLru, OversizedEntriesBuiltNotRetained)
{
    PackCache cache(1024);
    bool filled = false;
    auto entry = cache.findOrPack(keyFor(9, 64, 64), 4096,
                                  [&](void *out) {
                                      std::memset(out, 0x77, 4096);
                                      filled = true;
                                  });
    ASSERT_TRUE(filled);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->bytes, 4096u);
    // The caller got live bytes...
    EXPECT_EQ(entry->as<unsigned char>()[4095], 0x77);
    // ...but the cache kept nothing.
    EXPECT_EQ(cache.residentBytes(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(PackCacheLru, EvictedEntryBytesSurviveWhileHeld)
{
    PackCache cache(1024);
    auto held = cache.findOrPack(keyFor(1, 8, 8), 1024, [](void *out) {
        std::memset(out, 0x11, 1024);
    });
    // This insert evicts the held entry from the cache...
    cache.findOrPack(keyFor(2, 8, 8), 1024, [](void *out) {
        std::memset(out, 0x22, 1024);
    });
    EXPECT_EQ(cache.evictions(), 1u);
    // ...but the shared_ptr keeps its bytes alive and intact.
    EXPECT_EQ(held->as<unsigned char>()[0], 0x11);
    EXPECT_EQ(held->as<unsigned char>()[1023], 0x11);
}

TEST(PackCacheLru, ShrinkingCapacityEvictsAtOnce)
{
    PackCache cache(4096);
    for (std::uint32_t i = 0; i < 4; ++i)
        cache.findOrPack(keyFor(i, 8, 8), 1024,
                         [](void *out) { std::memset(out, 0, 1024); });
    EXPECT_EQ(cache.residentBytes(), 4096u);
    cache.setCapacityBytes(1536);
    EXPECT_EQ(cache.residentBytes(), 1024u);
    EXPECT_EQ(cache.evictions(), 3u);
}

TEST(PackCacheLru, ClearResetsEntriesAndCounters)
{
    PackCache cache(4096);
    cache.findOrPack(keyFor(1, 8, 8), 512,
                     [](void *out) { std::memset(out, 0, 512); });
    cache.findOrPack(keyFor(1, 8, 8), 512,
                     [](void *out) { std::memset(out, 0, 512); });
    EXPECT_EQ(cache.hits(), 1u);
    cache.clear();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.residentBytes(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

// ---- Stale-data rejection through the GEMM entry points -------------

TEST_F(PackCacheTest, MutatedOperandNeverServesStalePanels)
{
    // Run the same GEMM twice (second run hits), then mutate A in
    // place and run again: the fingerprint changes, the lookup misses,
    // and the result matches a fresh cache-off computation — never the
    // stale panel.
    Rng rng(0x9acc + 1);
    auto a = randomMatrix<fp::Half>(rng, 9, 23);
    const auto b = randomMatrix<fp::Half>(rng, 23, 17);
    const auto c = randomMatrix<float>(rng, 9, 17);
    Matrix<float> d(9, 17);

    referenceGemm<float, fp::Half, float>(1.5, a, b, 0.25, c, d);
    const PackCacheStats first = PackCache::globalStats();
    referenceGemm<float, fp::Half, float>(1.5, a, b, 0.25, c, d);
    const PackCacheStats second = PackCache::globalStats();
    EXPECT_GT(second.hits, first.hits);

    a(4, 11) = fp::Half(3.25f);
    Matrix<float> d_cached(9, 17);
    referenceGemm<float, fp::Half, float>(1.5, a, b, 0.25, c,
                                          d_cached);
    const PackCacheStats third = PackCache::globalStats();
    EXPECT_GT(third.misses, second.misses);

    PackCache::setEnabled(false);
    Matrix<float> d_fresh(9, 17);
    referenceGemm<float, fp::Half, float>(1.5, a, b, 0.25, c,
                                          d_fresh);
    EXPECT_TRUE(bitIdentical(d_fresh, d_cached));
}

TEST_F(PackCacheTest, RepeatedI8OperandsHitAllPanelKinds)
{
    // i8gemm stages four cached artifacts per call (padded A, packed
    // B, row sums, column sums); a replay with identical operands must
    // hit all of them.
    Rng rng(0x1808);
    const auto a = randomI8(rng, 13, 31);
    const auto b = randomI8(rng, 31, 21);
    const auto c = randomI8(rng, 13, 21);
    Matrix<std::int8_t> d(13, 21);
    QuantParams qp;
    qp.scaleA = 0.02f;
    qp.scaleB = 0.05f;
    qp.scaleD = 0.25f;
    qp.zeroA = 3;
    qp.zeroB = -5;
    qp.zeroD = 1;

    fastQuantizedGemm(1.0, a, b, 0.0, c, d, qp);
    const PackCacheStats cold = PackCache::globalStats();
    Matrix<std::int8_t> d2(13, 21);
    fastQuantizedGemm(1.0, a, b, 0.0, c, d2, qp);
    const PackCacheStats warm = PackCache::globalStats();
    EXPECT_GE(warm.hits - cold.hits, 4u);
    EXPECT_EQ(warm.misses, cold.misses);
    EXPECT_TRUE(bitIdentical(d, d2));
}

// ---- Cache on/off bit-identity matrix -------------------------------

struct Shape
{
    std::size_t m, n, k;
};

/** Odd shapes straddling the vector widths plus the degenerate N = 1
 *  (decode) and K = 1 panels. */
const Shape kShapes[] = {
    {1, 1, 1}, {1, 13, 1},  {5, 1, 9},    {3, 5, 7},
    {7, 15, 9}, {13, 31, 8}, {27, 47, 29}, {33, 65, 40},
};

const int kThreadCounts[] = {1, 3};

/** Cache off, then cold cache, then warm cache: all three must agree
 *  byte for byte. */
template <typename TCD, typename TAB, typename TAcc>
void
expectOnOffIdentical(SimdTier tier, const Shape &s, int threads,
                     bool round_each_step, std::uint64_t seed)
{
    Rng rng(seed);
    const auto a = randomMatrix<TAB>(rng, s.m, s.k);
    const auto b = randomMatrix<TAB>(rng, s.k, s.n);
    const auto c = randomMatrix<TCD>(rng, s.m, s.n);
    FunctionalGemmOptions opts;
    opts.simd = tier;
    opts.threads = threads;

    PackCache::setEnabled(false);
    Matrix<TCD> d_off(s.m, s.n);
    referenceGemm<TCD, TAB, TAcc>(1.25, a, b, 0.5, c, d_off,
                                  round_each_step, opts);

    PackCache::setEnabled(true);
    PackCache::instance().clear();
    Matrix<TCD> d_cold(s.m, s.n);
    referenceGemm<TCD, TAB, TAcc>(1.25, a, b, 0.5, c, d_cold,
                                  round_each_step, opts);
    Matrix<TCD> d_warm(s.m, s.n);
    referenceGemm<TCD, TAB, TAcc>(1.25, a, b, 0.5, c, d_warm,
                                  round_each_step, opts);

    EXPECT_TRUE(bitIdentical(d_off, d_cold))
        << simdTierName(tier) << " m=" << s.m << " n=" << s.n
        << " k=" << s.k << " threads=" << threads << " (cold)";
    EXPECT_TRUE(bitIdentical(d_off, d_warm))
        << simdTierName(tier) << " m=" << s.m << " n=" << s.n
        << " k=" << s.k << " threads=" << threads << " (warm)";
}

class PackCacheTierTest
    : public ::testing::TestWithParam<SimdTier>
{
  protected:
    void SetUp() override
    {
        PackCache::setEnabled(true);
        PackCache::setMinSourceBytes(0); // tiny test panels must cache
        PackCache::instance().clear();
    }
    void TearDown() override
    {
        PackCache::setEnabled(true);
        PackCache::setMinSourceBytes(PackCache::kDefaultMinSourceBytes);
        PackCache::instance().clear();
    }
};

TEST_P(PackCacheTierTest, FloatCombosMatchWithCacheOnAndOff)
{
    std::uint64_t seed = 0x9100;
    for (const Shape &s : kShapes) {
        for (int threads : kThreadCounts) {
            // sgemm, dgemm, hss, hhs, and hgemm's per-step rounding.
            expectOnOffIdentical<float, float, float>(
                GetParam(), s, threads, false, ++seed);
            expectOnOffIdentical<double, double, double>(
                GetParam(), s, threads, false, ++seed);
            expectOnOffIdentical<float, fp::Half, float>(
                GetParam(), s, threads, false, ++seed);
            expectOnOffIdentical<fp::Half, fp::Half, float>(
                GetParam(), s, threads, false, ++seed);
            expectOnOffIdentical<fp::Half, fp::Half, float>(
                GetParam(), s, threads, true, ++seed);
            expectOnOffIdentical<float, fp::BFloat16, float>(
                GetParam(), s, threads, false, ++seed);
        }
    }
}

TEST_P(PackCacheTierTest, I8GemmMatchesWithCacheOnAndOff)
{
    QuantParams qp;
    qp.scaleA = 0.02f;
    qp.scaleB = 0.05f;
    qp.scaleD = 0.25f;
    qp.zeroA = 3;
    qp.zeroB = -5;
    qp.zeroD = 1;

    std::uint64_t seed = 0xa200;
    for (const Shape &s : kShapes) {
        for (int threads : kThreadCounts) {
            Rng rng(++seed);
            const auto a = randomI8(rng, s.m, s.k);
            const auto b = randomI8(rng, s.k, s.n);
            const auto c = randomI8(rng, s.m, s.n);
            FunctionalGemmOptions opts;
            opts.simd = GetParam();
            opts.threads = threads;

            PackCache::setEnabled(false);
            Matrix<std::int8_t> d_off(s.m, s.n);
            fastQuantizedGemm(1.25, a, b, 0.5, c, d_off, qp, opts);

            PackCache::setEnabled(true);
            PackCache::instance().clear();
            Matrix<std::int8_t> d_cold(s.m, s.n);
            fastQuantizedGemm(1.25, a, b, 0.5, c, d_cold, qp, opts);
            Matrix<std::int8_t> d_warm(s.m, s.n);
            fastQuantizedGemm(1.25, a, b, 0.5, c, d_warm, qp, opts);

            EXPECT_TRUE(bitIdentical(d_off, d_cold))
                << simdTierName(GetParam()) << " m=" << s.m
                << " n=" << s.n << " k=" << s.k
                << " threads=" << threads << " (cold)";
            EXPECT_TRUE(bitIdentical(d_off, d_warm))
                << simdTierName(GetParam()) << " m=" << s.m
                << " n=" << s.n << " k=" << s.k
                << " threads=" << threads << " (warm)";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, PackCacheTierTest,
    ::testing::ValuesIn(availableSimdTiers()),
    [](const ::testing::TestParamInfo<SimdTier> &info) {
        return simdTierName(info.param);
    });

} // namespace
} // namespace blas
} // namespace mc
