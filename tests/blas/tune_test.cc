/**
 * @file
 * The autotuner (blas/tune.hh): deterministic coordinate-descent
 * search under a stubbed cost model, artifact round-trip through the
 * CRC32-guarded JSON form, rejection of corrupted and stale artifacts,
 * MC_TUNE environment semantics, auto-field resolution precedence, and
 * — the invariant everything else rests on — that tuned block
 * configurations stay bit-identical to the retained scalar reference
 * on every SIMD tier.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "blas/fast_gemm.hh"
#include "blas/functional.hh"
#include "blas/plan_cache.hh"
#include "blas/simd_dispatch.hh"
#include "blas/tune.hh"
#include "common/random.hh"

namespace mc {
namespace blas {
namespace {

std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + "mc_tune_" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Deactivate tuning and restore a pristine MC_TUNE state per test. */
class TuneTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::unsetenv("MC_TUNE");
        reloadTuningFromEnv();
    }

    void
    TearDown() override
    {
        ::unsetenv("MC_TUNE");
        reloadTuningFromEnv();
    }
};

TuningArtifact
sampleArtifact(std::uint64_t fingerprint)
{
    TuningArtifact artifact;
    artifact.fingerprint = fingerprint;
    artifact.createdBy = "tune_test";
    TuneEntry entry;
    entry.config = TunedConfig{128, 256, 512, 1};
    entry.speedupVsDefault = 1.31;
    entry.bound = "backend";
    entry.tunedN = 200;
    artifact.entries.emplace(
        TuneKey{GemmCombo::Sgemm, SimdTier::Scalar, 256}, entry);
    TuneEntry entry2;
    entry2.config = TunedConfig{32, 64, 128, 2};
    entry2.speedupVsDefault = 1.05;
    entry2.bound = "retiring";
    entry2.tunedN = 1024;
    artifact.entries.emplace(
        TuneKey{GemmCombo::Dgemm, SimdTier::Avx2, 1024}, entry2);
    return artifact;
}

// ---- tuneBucket ----------------------------------------------------------

TEST_F(TuneTest, BucketIsClampedPowerOfTwo)
{
    EXPECT_EQ(tuneBucket(1), 256u);
    EXPECT_EQ(tuneBucket(255), 256u);
    EXPECT_EQ(tuneBucket(256), 256u);
    EXPECT_EQ(tuneBucket(257), 512u);
    EXPECT_EQ(tuneBucket(1024), 1024u);
    EXPECT_EQ(tuneBucket(1025), 2048u);
    EXPECT_EQ(tuneBucket(6000), 8192u);
    EXPECT_EQ(tuneBucket(100000), 8192u);
}

// ---- The search ----------------------------------------------------------

TEST_F(TuneTest, SearchFindsStubOptimumDeterministically)
{
    // Stubbed cost model with a known optimum at (128, 256, 512):
    // each preferred coordinate shaves a fixed slice off the cost.
    const auto cost = [](const TunedConfig &c) {
        double seconds = 2.0e-3;
        if (c.blockK == 512)
            seconds -= 0.8e-3;
        if (c.blockN == 256)
            seconds -= 0.4e-3;
        if (c.blockM == 128)
            seconds -= 0.2e-3;
        return TuneMeasurement{seconds, prof::TopdownClass::Unknown};
    };
    TuneSearchSpace space;
    const TuneSearchResult first = tuneSearch(cost, space);
    const TuneSearchResult second = tuneSearch(cost, space);

    EXPECT_EQ(first.best.blockM, 128);
    EXPECT_EQ(first.best.blockN, 256);
    EXPECT_EQ(first.best.blockK, 512);
    EXPECT_EQ(first.best.threads, 1);
    EXPECT_DOUBLE_EQ(first.bestSeconds, 0.6e-3);
    EXPECT_DOUBLE_EQ(first.defaultSeconds, 2.0e-3);
    EXPECT_NEAR(first.speedup, 2.0e-3 / 0.6e-3, 1e-12);
    EXPECT_FALSE(first.budgetExhausted);

    // Identical inputs => identical outcome, measurement for
    // measurement (the budget is accounted from stub seconds, never a
    // live clock).
    EXPECT_EQ(first.best, second.best);
    EXPECT_EQ(first.measured, second.measured);
    EXPECT_EQ(first.pruned, second.pruned);
    EXPECT_DOUBLE_EQ(first.bestSeconds, second.bestSeconds);
}

TEST_F(TuneTest, BackendBoundPrunesLargerWorkingSets)
{
    // Flat cost, always backend-bound: the incumbent stays the default
    // configuration, and every candidate whose working set
    // ((bm + bk) * bn * accBytes) exceeds the default's is pruned
    // without being measured.
    int calls = 0;
    const auto cost = [&calls](const TunedConfig &) {
        ++calls;
        return TuneMeasurement{1.0e-3, prof::TopdownClass::BackendBound};
    };
    TuneSearchSpace space; // default candidates, accBytes = 4
    const TuneSearchResult result = tuneSearch(cost, space);

    EXPECT_EQ(result.best, TunedConfig{});
    // Default working set: (64 + 256) * 128. Measured: the default,
    // blockK=128, blockN=64, blockM={16, 32}. Pruned: blockK={512,
    // 1024}, blockN={256, 512}, blockM={128, 256}.
    EXPECT_EQ(result.measured, 5);
    EXPECT_EQ(result.pruned, 6);
    EXPECT_EQ(calls, result.measured);
}

TEST_F(TuneTest, RetiringPrunesMuchSmallerWorkingSets)
{
    // A retiring incumbent prunes candidates with less than half its
    // working set: blockN=16 gives (64+256)*16 = 5120 bytes*acc vs the
    // default's (64+256)*128 = 40960 — pruned unmeasured. blockN=64
    // sits at exactly half and is still measured.
    int calls = 0;
    const auto cost = [&calls](const TunedConfig &) {
        ++calls;
        return TuneMeasurement{1.0e-3, prof::TopdownClass::Retiring};
    };
    TuneSearchSpace space;
    space.blockM = {64};
    space.blockN = {16, 64, 128};
    space.blockK = {256};
    space.threads = {1};
    const TuneSearchResult result = tuneSearch(cost, space);
    EXPECT_EQ(result.best, TunedConfig{});
    EXPECT_EQ(result.measured, 2); // the default + blockN=64
    EXPECT_EQ(result.pruned, 1);   // blockN=16
    EXPECT_EQ(calls, result.measured);
}

TEST_F(TuneTest, BudgetStopsTheSearch)
{
    const auto cost = [](const TunedConfig &) {
        return TuneMeasurement{10.0, prof::TopdownClass::Unknown};
    };
    TuneSearchSpace space;
    space.budgetSec = 15.0; // default (10s) + one candidate (10s)
    const TuneSearchResult result = tuneSearch(cost, space);
    EXPECT_TRUE(result.budgetExhausted);
    EXPECT_EQ(result.measured, 2);
    EXPECT_EQ(result.best, TunedConfig{});
}

// ---- Artifact persistence ------------------------------------------------

TEST_F(TuneTest, ArtifactRoundTrips)
{
    const TuningArtifact artifact = sampleArtifact(0x1234abcd5678ef00ull);
    const std::string path = tempPath("roundtrip.json");
    ASSERT_TRUE(saveTuningArtifact(artifact, path).isOk());

    Result<TuningArtifact> loaded = loadTuningArtifact(path);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().fingerprint, artifact.fingerprint);
    EXPECT_EQ(loaded.value().createdBy, "tune_test");
    ASSERT_EQ(loaded.value().entries.size(), 2u);
    const TuneEntry *entry =
        loaded.value().lookup(GemmCombo::Sgemm, SimdTier::Scalar, 200);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->config, (TunedConfig{128, 256, 512, 1}));
    EXPECT_DOUBLE_EQ(entry->speedupVsDefault, 1.31);
    EXPECT_EQ(entry->bound, "backend");
    EXPECT_EQ(entry->tunedN, 200u);
    // Bucket miss => null, not a neighbouring entry.
    EXPECT_EQ(loaded.value().lookup(GemmCombo::Sgemm, SimdTier::Scalar,
                                    4096),
              nullptr);
}

TEST_F(TuneTest, MissingArtifactIsNotFound)
{
    Result<TuningArtifact> loaded =
        loadTuningArtifact(tempPath("does_not_exist.json"));
    ASSERT_FALSE(loaded.isOk());
    EXPECT_EQ(loaded.status().code(), ErrorCode::NotFound);
}

TEST_F(TuneTest, CorruptedArtifactIsDataLoss)
{
    const TuningArtifact artifact = sampleArtifact(hostTuneFingerprint());
    const std::string path = tempPath("corrupt.json");
    ASSERT_TRUE(saveTuningArtifact(artifact, path).isOk());

    // Flip one data digit: the JSON still parses, the CRC32 catches it.
    std::string text = readFile(path);
    const std::string::size_type pos = text.find("\"block_k\": 512");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::strlen("\"block_k\": 512"), "\"block_k\": 513");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }
    Result<TuningArtifact> loaded = loadTuningArtifact(path);
    ASSERT_FALSE(loaded.isOk());
    EXPECT_EQ(loaded.status().code(), ErrorCode::DataLoss);
    EXPECT_NE(loaded.status().message().find("crc32"), std::string::npos);

    // Truncation (invalid JSON) is DataLoss too.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text.substr(0, text.size() / 2);
    }
    loaded = loadTuningArtifact(path);
    ASSERT_FALSE(loaded.isOk());
    EXPECT_EQ(loaded.status().code(), ErrorCode::DataLoss);

    // Wrong magic is DataLoss (a different format, not this artifact).
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "{\"magic\": \"mc-journal-v2\"}";
    }
    loaded = loadTuningArtifact(path);
    ASSERT_FALSE(loaded.isOk());
    EXPECT_EQ(loaded.status().code(), ErrorCode::DataLoss);
}

// ---- Activation ----------------------------------------------------------

TEST_F(TuneTest, StaleFingerprintRejectedOnActivation)
{
    TuningArtifact stale = sampleArtifact(hostTuneFingerprint() + 1);
    const Status status = setActiveTuningArtifact(std::move(stale));
    EXPECT_EQ(status.code(), ErrorCode::FailedPrecondition);
    EXPECT_FALSE(tuningActive());
    EXPECT_EQ(activeTuningLabel(), "none");
}

TEST_F(TuneTest, ActivationAndDeactivation)
{
    ASSERT_TRUE(
        setActiveTuningArtifact(sampleArtifact(hostTuneFingerprint()))
            .isOk());
    EXPECT_TRUE(tuningActive());
    EXPECT_EQ(activeTuningLabel().size(), 16u);
    const TuneEntry *entry =
        activeTuneEntry(GemmCombo::Sgemm, SimdTier::Scalar, 256);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->config.blockK, 512);

    ASSERT_TRUE(setActiveTuningArtifact(std::nullopt).isOk());
    EXPECT_FALSE(tuningActive());
    EXPECT_EQ(activeTuneEntry(GemmCombo::Sgemm, SimdTier::Scalar, 256),
              nullptr);
}

TEST_F(TuneTest, EnvOffVetoesActivation)
{
    ::setenv("MC_TUNE", "off", 1);
    reloadTuningFromEnv();
    const Status status =
        setActiveTuningArtifact(sampleArtifact(hostTuneFingerprint()));
    EXPECT_EQ(status.code(), ErrorCode::Unavailable);
    EXPECT_FALSE(tuningActive());
}

TEST_F(TuneTest, EnvPathActivatesArtifact)
{
    const std::string path = tempPath("env.json");
    ASSERT_TRUE(
        saveTuningArtifact(sampleArtifact(hostTuneFingerprint()), path)
            .isOk());
    ::setenv("MC_TUNE", path.c_str(), 1);
    reloadTuningFromEnv();
    EXPECT_TRUE(tuningActive());
    EXPECT_NE(activeTuneEntry(GemmCombo::Sgemm, SimdTier::Scalar, 100),
              nullptr);
}

TEST_F(TuneTest, EnvStaleOrCorruptArtifactIgnoredCleanly)
{
    const std::string path = tempPath("env_stale.json");
    ASSERT_TRUE(
        saveTuningArtifact(sampleArtifact(hostTuneFingerprint() + 7), path)
            .isOk());
    ::setenv("MC_TUNE", path.c_str(), 1);
    reloadTuningFromEnv(); // stale: warns, leaves tuning inactive
    EXPECT_FALSE(tuningActive());

    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "not json";
    }
    reloadTuningFromEnv(); // corrupt: warns, leaves tuning inactive
    EXPECT_FALSE(tuningActive());
}

// ---- Resolution precedence -----------------------------------------------

TEST_F(TuneTest, ResolutionPrecedence)
{
    // Inactive tuning: auto fields take the built-in defaults.
    FunctionalGemmOptions opts;
    opts.simd = SimdTier::Scalar;
    FunctionalGemmOptions r =
        resolveFunctionalOptions(opts, GemmCombo::Sgemm, 200);
    EXPECT_EQ(r.blockM, kDefaultBlockM);
    EXPECT_EQ(r.blockN, kDefaultBlockN);
    EXPECT_EQ(r.blockK, kDefaultBlockK);
    EXPECT_EQ(r.threads, 1);

    // Active artifact: auto fields take the tuned entry.
    ASSERT_TRUE(
        setActiveTuningArtifact(sampleArtifact(hostTuneFingerprint()))
            .isOk());
    r = resolveFunctionalOptions(opts, GemmCombo::Sgemm, 200);
    EXPECT_EQ(r.blockM, 128);
    EXPECT_EQ(r.blockN, 256);
    EXPECT_EQ(r.blockK, 512);

    // Explicit fields always win over the artifact.
    FunctionalGemmOptions explicit_opts = opts;
    explicit_opts.blockM = 48;
    r = resolveFunctionalOptions(explicit_opts, GemmCombo::Sgemm, 200);
    EXPECT_EQ(r.blockM, 48);
    EXPECT_EQ(r.blockN, 256); // still tuned
    EXPECT_EQ(r.blockK, 512);

    // threads = 0 (auto) adopts the tuned fan-out; explicit stays.
    FunctionalGemmOptions auto_threads = opts;
    auto_threads.threads = 0;
    r = resolveFunctionalOptions(auto_threads, GemmCombo::Sgemm, 200);
    EXPECT_EQ(r.threads, 1); // the entry's tuned thread count
    FunctionalGemmOptions four_threads = opts;
    four_threads.threads = 4;
    r = resolveFunctionalOptions(four_threads, GemmCombo::Sgemm, 200);
    EXPECT_EQ(r.threads, 4);

    // A key the artifact does not cover falls back to the defaults.
    r = resolveFunctionalOptions(opts, GemmCombo::Hgemm, 200);
    EXPECT_EQ(r.blockM, kDefaultBlockM);

    // MC_TUNE=off beats the already-active artifact.
    ::setenv("MC_TUNE", "off", 1);
    reloadTuningFromEnv();
    r = resolveFunctionalOptions(opts, GemmCombo::Sgemm, 200);
    EXPECT_EQ(r.blockM, kDefaultBlockM);
    EXPECT_EQ(r.blockN, kDefaultBlockN);
    EXPECT_EQ(r.blockK, kDefaultBlockK);
}

TEST_F(TuneTest, PlanKeySeparatesFunctionalConfigs)
{
    GemmConfig config;
    config.combo = GemmCombo::Sgemm;
    config.m = config.n = config.k = 512;
    PlannerOptions planner;
    FunctionalGemmOptions a, b;
    b.blockK = 512;
    const PlanKey ka = makePlanKey(config, planner, 42, a, 0);
    const PlanKey kb = makePlanKey(config, planner, 42, b, 0);
    const PlanKey ka2 = makePlanKey(config, planner, 42, a, 0);
    EXPECT_FALSE(ka == kb);
    EXPECT_TRUE(ka == ka2);
    // A tuning-fingerprint change keys a different plan even with
    // identical knobs (the resolution behind them changed).
    const PlanKey kt = makePlanKey(config, planner, 42, a, 99);
    EXPECT_FALSE(ka == kt);
}

// ---- Bit-exactness of tuned configurations -------------------------------

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

template <typename TCD, typename TAB, typename TAcc>
void
expectTunedMatchesScalarReference(GemmCombo combo, bool round_each_step,
                                  std::size_t n)
{
    Rng rng(0xc0ffee);
    const Matrix<TAB> a = randomMatrix<TAB>(rng, n, n);
    const Matrix<TAB> b = randomMatrix<TAB>(rng, n, n);
    const Matrix<TCD> c = randomMatrix<TCD>(rng, n, n);
    Matrix<TCD> d_ref(n, n), d_tuned(n, n);
    scalarReferenceGemm<TCD, TAB, TAcc>(1.25, a, b, 0.5, c, d_ref,
                                        round_each_step);
    for (SimdTier tier : availableSimdTiers()) {
        FunctionalGemmOptions opts; // blocks auto => the tuned entry
        opts.simd = tier;
        referenceGemm<TCD, TAB, TAcc>(1.25, a, b, 0.5, c, d_tuned,
                                      round_each_step, opts);
        EXPECT_EQ(std::memcmp(d_ref.data(), d_tuned.data(),
                              n * n * sizeof(TCD)),
                  0)
            << comboInfo(combo).name << " diverged on tier "
            << simdTierName(tier);
    }
}

TEST_F(TuneTest, TunedConfigsAreBitIdenticalToScalarReference)
{
    // Activate deliberately odd blocks for every (combo, tier) at the
    // 256 bucket: the whole point of the artifact is that it may only
    // ever change speed, never bytes.
    TuningArtifact artifact;
    artifact.fingerprint = hostTuneFingerprint();
    artifact.createdBy = "tune_test bit-exactness";
    for (GemmCombo combo : allCombos) {
        for (SimdTier tier : availableSimdTiers()) {
            TuneEntry entry;
            entry.config = TunedConfig{24, 40, 33, 2};
            entry.speedupVsDefault = 1.0;
            entry.bound = "backend";
            entry.tunedN = 96;
            artifact.entries.emplace(TuneKey{combo, tier, 256}, entry);
        }
    }
    ASSERT_TRUE(setActiveTuningArtifact(std::move(artifact)).isOk());

    const std::size_t n = 96; // straddles the odd 24/40/33 blocks
    expectTunedMatchesScalarReference<double, double, double>(
        GemmCombo::Dgemm, false, n);
    expectTunedMatchesScalarReference<float, float, float>(
        GemmCombo::Sgemm, false, n);
    expectTunedMatchesScalarReference<fp::Half, fp::Half, float>(
        GemmCombo::Hgemm, true, n);
    expectTunedMatchesScalarReference<fp::Half, fp::Half, float>(
        GemmCombo::Hhs, false, n);
    expectTunedMatchesScalarReference<float, fp::Half, float>(
        GemmCombo::Hss, false, n);

    ASSERT_TRUE(setActiveTuningArtifact(std::nullopt).isOk());
}

TEST(ComboForTypes, AgreesWithVisitCombo)
{
    // The two maps run in opposite directions; a drift would only pick
    // the wrong tuning entry, which no bit-exactness test notices.
    for (GemmCombo combo : allCombos) {
        visitCombo(combo, [combo](auto types) {
            using T = decltype(types);
            if constexpr (!T::quantized) {
                EXPECT_EQ((comboForTypes<typename T::TCD, typename T::TAB,
                                         typename T::TAcc>(
                              T::roundEachStep)),
                          combo)
                    << comboInfo(combo).name;
            }
        });
    }
}

} // namespace
} // namespace blas
} // namespace mc
