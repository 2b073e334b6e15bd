#include "tune.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include <pthread.h>

#include "arch/calibration.hh"
#include "common/atomic_file.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace mc {
namespace blas {

namespace {

/** Parse a combo name without the fatal path of parseCombo. */
bool
comboFromName(const std::string &name, GemmCombo *out)
{
    for (GemmCombo combo : allLibraryCombos) {
        if (name == comboInfo(combo).name) {
            *out = combo;
            return true;
        }
    }
    return false;
}

std::string
fingerprintHex(std::uint64_t fingerprint)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, fingerprint);
    return buf;
}

bool
parseFingerprintHex(const std::string &text, std::uint64_t *out)
{
    if (text.size() != 16)
        return false;
    char *end = nullptr;
    errno = 0;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 16);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *out = value;
    return true;
}

/**
 * The CRC32 covers this canonical rendering of the payload — entries
 * sorted by key and fields printed with fixed formats — rather than
 * the JSON text itself, so the guard survives pretty-printing while
 * still catching any flipped digit in the data.
 */
std::string
canonicalPayload(const TuningArtifact &artifact)
{
    std::vector<const std::pair<const TuneKey, TuneEntry> *> rows;
    rows.reserve(artifact.entries.size());
    for (const auto &kv : artifact.entries)
        rows.push_back(&kv);
    std::sort(rows.begin(), rows.end(), [](const auto *a, const auto *b) {
        const TuneKey &ka = a->first;
        const TuneKey &kb = b->first;
        if (ka.combo != kb.combo)
            return static_cast<int>(ka.combo) < static_cast<int>(kb.combo);
        if (ka.tier != kb.tier)
            return static_cast<int>(ka.tier) < static_cast<int>(kb.tier);
        return ka.nBucket < kb.nBucket;
    });
    std::ostringstream out;
    out << kTuneArtifactMagic << ';' << fingerprintHex(artifact.fingerprint)
        << ';' << artifact.createdBy << '\n';
    for (const auto *row : rows) {
        const TuneKey &key = row->first;
        const TuneEntry &entry = row->second;
        char speedup[32];
        std::snprintf(speedup, sizeof(speedup), "%.17g",
                      entry.speedupVsDefault);
        out << comboInfo(key.combo).name << ',' << simdTierName(key.tier)
            << ',' << key.nBucket << ':' << entry.config.blockM << ','
            << entry.config.blockN << ',' << entry.config.blockK << ','
            << entry.config.threads << ',' << speedup << ',' << entry.bound
            << ',' << entry.tunedN << '\n';
    }
    return out.str();
}

// ---- Process-wide activation state ---------------------------------------

struct ActiveTuning
{
    /** MC_TUNE=off pins tuning off even against programmatic
     *  activation. */
    bool envOff = false;
    /** Fingerprint-valid active artifact; null = inactive. */
    std::shared_ptr<const TuningArtifact> artifact;
};

std::mutex g_tune_mutex;
// Held across fork(): every GEMM resolves its options through this
// lock, so a forked child (an mc_serve worker) must not inherit it
// locked by a thread that does not exist there.
const int g_tune_fork_guard =
    ::pthread_atfork([] { g_tune_mutex.lock(); },
                     [] { g_tune_mutex.unlock(); },
                     [] { g_tune_mutex.unlock(); });
ActiveTuning g_tuning;
bool g_env_loaded = false;

/** Rebuild the activation state from MC_TUNE; caller holds the lock. */
void
loadEnvLocked()
{
    g_env_loaded = true;
    g_tuning.envOff = false;
    g_tuning.artifact.reset();
    const char *value = std::getenv("MC_TUNE");
    if (value == nullptr || value[0] == '\0')
        return;
    const std::string text(value);
    if (text == "off") {
        g_tuning.envOff = true;
        return;
    }
    Result<TuningArtifact> loaded = loadTuningArtifact(text);
    if (!loaded.isOk()) {
        logging::warn("MC_TUNE artifact '", text,
             "' ignored: ", loaded.status().message());
        return;
    }
    if (loaded.value().fingerprint != hostTuneFingerprint()) {
        logging::warn("MC_TUNE artifact '", text,
             "' ignored: fingerprint ",
             fingerprintHex(loaded.value().fingerprint),
             " was tuned on a different host/calibration (this host: ",
             fingerprintHex(hostTuneFingerprint()), ")");
        return;
    }
    g_tuning.artifact =
        std::make_shared<const TuningArtifact>(loaded.take());
}

/** Env-initialized activation snapshot. */
ActiveTuning
snapshotTuning()
{
    std::lock_guard<std::mutex> lock(g_tune_mutex);
    if (!g_env_loaded)
        loadEnvLocked();
    return g_tuning;
}

} // namespace

// ---- Keys and entries ----------------------------------------------------

std::size_t
tuneBucket(std::size_t n)
{
    std::size_t bucket = 256;
    while (bucket < n && bucket < 8192)
        bucket <<= 1;
    return bucket;
}

std::size_t
TuneKeyHash::operator()(const TuneKey &key) const
{
    std::uint64_t h = kHashBasis;
    h = hashCombine(h, static_cast<std::uint64_t>(key.combo));
    h = hashCombine(h, static_cast<std::uint64_t>(key.tier));
    h = hashCombine(h, key.nBucket);
    return static_cast<std::size_t>(h);
}

// ---- The artifact --------------------------------------------------------

std::uint64_t
hostTuneFingerprint()
{
    static const std::uint64_t fingerprint = [] {
        std::uint64_t h = hashString(kTuneArtifactMagic);
        const CpuFeatures &f = cpuFeatures();
        const std::uint64_t feature_bits =
            (f.sse2 ? 1u : 0u) | (f.avx2 ? 2u : 0u) |
            (f.avx512 ? 4u : 0u) | (f.neon ? 8u : 0u) |
            (f.avx512vnni ? 16u : 0u);
        h = hashCombine(h, feature_bits);
        h = hashCombine(h,
                        arch::calibrationFingerprint(arch::defaultCdna2()));
        return h;
    }();
    return fingerprint;
}

const TuneEntry *
TuningArtifact::lookup(GemmCombo combo, SimdTier tier, std::size_t n) const
{
    const auto it = entries.find(TuneKey{combo, tier, tuneBucket(n)});
    return it == entries.end() ? nullptr : &it->second;
}

std::string
TuningArtifact::serialize() const
{
    JsonValue doc = JsonValue::object();
    doc.set("magic", kTuneArtifactMagic);
    doc.set("fingerprint", fingerprintHex(fingerprint));
    doc.set("created_by", createdBy);
    JsonValue rows = JsonValue::array();
    // Reuse the canonical ordering so the file itself is diffable.
    std::vector<const std::pair<const TuneKey, TuneEntry> *> sorted;
    sorted.reserve(entries.size());
    for (const auto &kv : entries)
        sorted.push_back(&kv);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto *a, const auto *b) {
                  const TuneKey &ka = a->first;
                  const TuneKey &kb = b->first;
                  if (ka.combo != kb.combo)
                      return static_cast<int>(ka.combo) <
                             static_cast<int>(kb.combo);
                  if (ka.tier != kb.tier)
                      return static_cast<int>(ka.tier) <
                             static_cast<int>(kb.tier);
                  return ka.nBucket < kb.nBucket;
              });
    for (const auto *kv : sorted) {
        const TuneKey &key = kv->first;
        const TuneEntry &entry = kv->second;
        JsonValue row = JsonValue::object();
        row.set("combo", comboInfo(key.combo).name);
        row.set("simd", simdTierName(key.tier));
        row.set("n_bucket", static_cast<std::int64_t>(key.nBucket));
        row.set("block_m", entry.config.blockM);
        row.set("block_n", entry.config.blockN);
        row.set("block_k", entry.config.blockK);
        row.set("threads", entry.config.threads);
        row.set("speedup_vs_default", entry.speedupVsDefault);
        row.set("bound", entry.bound);
        row.set("tuned_n", static_cast<std::int64_t>(entry.tunedN));
        rows.append(std::move(row));
    }
    doc.set("entries", std::move(rows));
    doc.set("crc32", static_cast<std::int64_t>(
                         crc32String(canonicalPayload(*this))));
    return doc.serialize() + "\n";
}

Status
saveTuningArtifact(const TuningArtifact &artifact, const std::string &path)
{
    return writeFileAtomic(path, artifact.serialize());
}

Result<TuningArtifact>
loadTuningArtifact(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::notFound("tuning artifact unreadable: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<JsonValue> parsed = JsonValue::parse(buffer.str());
    if (!parsed.isOk())
        return Status::dataLoss("tuning artifact " + path +
                                " is not valid JSON: " +
                                parsed.status().message());
    const JsonValue &doc = parsed.value();
    if (!doc.isObject())
        return Status::dataLoss("tuning artifact " + path +
                                ": top level is not an object");
    const JsonValue *magic = doc.find("magic");
    if (magic == nullptr || magic->type() != JsonValue::Type::String ||
        magic->asString() != kTuneArtifactMagic)
        return Status::dataLoss("tuning artifact " + path +
                                ": missing or wrong magic (want '" +
                                std::string(kTuneArtifactMagic) + "')");
    TuningArtifact artifact;
    const JsonValue *fp = doc.find("fingerprint");
    if (fp == nullptr || fp->type() != JsonValue::Type::String ||
        !parseFingerprintHex(fp->asString(), &artifact.fingerprint))
        return Status::dataLoss("tuning artifact " + path +
                                ": malformed fingerprint");
    if (const JsonValue *by = doc.find("created_by");
        by != nullptr && by->type() == JsonValue::Type::String)
        artifact.createdBy = by->asString();
    const JsonValue *rows = doc.find("entries");
    if (rows == nullptr || !rows->isArray())
        return Status::dataLoss("tuning artifact " + path +
                                ": missing entries array");
    for (std::size_t i = 0; i < rows->size(); ++i) {
        const JsonValue &row = rows->at(i);
        if (!row.isObject())
            return Status::dataLoss("tuning artifact " + path + ": entry " +
                                    std::to_string(i) + " is not an object");
        const auto intField = [&](const char *name,
                                  std::int64_t *out) -> bool {
            const JsonValue *v = row.find(name);
            if (v == nullptr || v->type() != JsonValue::Type::Number)
                return false;
            *out = v->asInt();
            return true;
        };
        const auto strField = [&](const char *name,
                                  std::string *out) -> bool {
            const JsonValue *v = row.find(name);
            if (v == nullptr || v->type() != JsonValue::Type::String)
                return false;
            *out = v->asString();
            return true;
        };
        TuneKey key;
        TuneEntry entry;
        std::string combo_name, tier_name;
        std::int64_t n_bucket = 0, bm = 0, bn = 0, bk = 0, threads = 0,
                     tuned_n = 0;
        const JsonValue *speedup = row.find("speedup_vs_default");
        if (!strField("combo", &combo_name) ||
            !strField("simd", &tier_name) ||
            !intField("n_bucket", &n_bucket) || !intField("block_m", &bm) ||
            !intField("block_n", &bn) || !intField("block_k", &bk) ||
            !intField("threads", &threads) ||
            !intField("tuned_n", &tuned_n) ||
            !strField("bound", &entry.bound) || speedup == nullptr ||
            speedup->type() != JsonValue::Type::Number)
            return Status::dataLoss("tuning artifact " + path + ": entry " +
                                    std::to_string(i) +
                                    " is missing fields");
        if (!comboFromName(combo_name, &key.combo))
            return Status::dataLoss("tuning artifact " + path +
                                    ": unknown combo '" + combo_name + "'");
        if (!parseSimdTier(tier_name, &key.tier))
            return Status::dataLoss("tuning artifact " + path +
                                    ": unknown SIMD tier '" + tier_name +
                                    "'");
        if (n_bucket <= 0 || bm <= 0 || bn <= 0 || bk <= 0 || threads < 1 ||
            tuned_n < 0)
            return Status::dataLoss("tuning artifact " + path + ": entry " +
                                    std::to_string(i) +
                                    " has out-of-range fields");
        key.nBucket = static_cast<std::size_t>(n_bucket);
        entry.config.blockM = static_cast<int>(bm);
        entry.config.blockN = static_cast<int>(bn);
        entry.config.blockK = static_cast<int>(bk);
        entry.config.threads = static_cast<int>(threads);
        entry.speedupVsDefault = speedup->asNumber();
        entry.tunedN = static_cast<std::size_t>(tuned_n);
        artifact.entries.emplace(key, std::move(entry));
    }
    const JsonValue *crc = doc.find("crc32");
    if (crc == nullptr || crc->type() != JsonValue::Type::Number)
        return Status::dataLoss("tuning artifact " + path +
                                ": missing crc32 guard");
    const std::uint32_t want =
        static_cast<std::uint32_t>(crc->asInt());
    const std::uint32_t got = crc32String(canonicalPayload(artifact));
    if (want != got)
        return Status::dataLoss(
            "tuning artifact " + path + ": crc32 mismatch (stored " +
            std::to_string(want) + ", payload " + std::to_string(got) +
            ")");
    return artifact;
}

// ---- Process-wide activation ---------------------------------------------

Status
setActiveTuningArtifact(std::optional<TuningArtifact> artifact)
{
    std::lock_guard<std::mutex> lock(g_tune_mutex);
    if (!g_env_loaded)
        loadEnvLocked();
    if (!artifact.has_value()) {
        g_tuning.artifact.reset();
        return Status::ok();
    }
    if (g_tuning.envOff)
        return Status::unavailable(
            "MC_TUNE=off pins tuning off; not activating the artifact");
    if (artifact->fingerprint != hostTuneFingerprint())
        return Status::failedPrecondition(
            "tuning artifact fingerprint " +
            fingerprintHex(artifact->fingerprint) +
            " does not match this host (" +
            fingerprintHex(hostTuneFingerprint()) + ")");
    g_tuning.artifact =
        std::make_shared<const TuningArtifact>(std::move(*artifact));
    return Status::ok();
}

bool
tuningActive()
{
    return snapshotTuning().artifact != nullptr;
}

const TuneEntry *
activeTuneEntry(GemmCombo combo, SimdTier tier, std::size_t n)
{
    // The shared_ptr keeps replaced artifacts alive only while a caller
    // still holds a snapshot; entry pointers stay valid because active
    // artifacts are immutable once published.
    static thread_local std::shared_ptr<const TuningArtifact> pinned;
    ActiveTuning state = snapshotTuning();
    if (state.artifact == nullptr)
        return nullptr;
    pinned = state.artifact;
    return pinned->lookup(combo, tier, n);
}

std::string
activeTuningLabel()
{
    ActiveTuning state = snapshotTuning();
    if (state.artifact == nullptr)
        return "none";
    return fingerprintHex(state.artifact->fingerprint);
}

void
reloadTuningFromEnv()
{
    std::lock_guard<std::mutex> lock(g_tune_mutex);
    loadEnvLocked();
}

// ---- Option resolution ---------------------------------------------------

FunctionalGemmOptions
resolveFunctionalOptions(const FunctionalGemmOptions &opts, GemmCombo combo,
                         std::size_t n)
{
    FunctionalGemmOptions resolved = opts;
    if (resolved.blockM > 0 && resolved.blockN > 0 && resolved.blockK > 0 &&
        resolved.threads != 0)
        return resolved; // fully explicit: the artifact never applies
    const TuneEntry *entry = nullptr;
    if (tuningActive())
        entry = activeTuneEntry(combo, resolveSimdTier(opts.simd), n);
    if (resolved.blockM <= 0)
        resolved.blockM = entry ? entry->config.blockM : kDefaultBlockM;
    if (resolved.blockN <= 0)
        resolved.blockN = entry ? entry->config.blockN : kDefaultBlockN;
    if (resolved.blockK <= 0)
        resolved.blockK = entry ? entry->config.blockK : kDefaultBlockK;
    if (resolved.threads == 0 && entry != nullptr)
        resolved.threads = entry->config.threads;
    // threads still 0 (auto, no artifact) falls through to the
    // hardware-concurrency path parallelChunks uses for < 1 values.
    return resolved;
}

// ---- The search ----------------------------------------------------------

TuneSearchResult
tuneSearch(const std::function<TuneMeasurement(const TunedConfig &)> &measure,
           const TuneSearchSpace &space)
{
    TuneSearchResult result;
    double spent = 0.0;
    const auto timed = [&](const TunedConfig &config) {
        TuneMeasurement m = measure(config);
        spent += std::max(m.seconds, 0.0);
        ++result.measured;
        return m;
    };
    const auto workingSet = [&](const TunedConfig &config) {
        return (static_cast<std::size_t>(config.blockM) +
                static_cast<std::size_t>(config.blockK)) *
               static_cast<std::size_t>(config.blockN) * space.accBytes;
    };

    TunedConfig incumbent; // the kDefault* constants
    incumbent.threads = space.threads.empty() ? 1 : space.threads.front();
    const TuneMeasurement base = timed(incumbent);
    result.defaultSeconds = base.seconds;
    result.defaultBound = base.bound;
    result.best = incumbent;
    result.bestSeconds = base.seconds;
    result.bestBound = base.bound;

    struct Dimension
    {
        int TunedConfig::*field;
        const std::vector<int> *candidates;
    };
    const Dimension dimensions[] = {
        {&TunedConfig::blockK, &space.blockK},
        {&TunedConfig::blockN, &space.blockN},
        {&TunedConfig::blockM, &space.blockM},
        {&TunedConfig::threads, &space.threads},
    };
    for (const Dimension &dim : dimensions) {
        for (int value : *dim.candidates) {
            if (value < 1 || value == result.best.*dim.field)
                continue;
            TunedConfig candidate = result.best;
            candidate.*dim.field = value;
            const std::size_t cand_ws = workingSet(candidate);
            const std::size_t best_ws = workingSet(result.best);
            if (result.bestBound == prof::TopdownClass::BackendBound &&
                cand_ws > best_ws) {
                ++result.pruned;
                continue;
            }
            if (result.bestBound == prof::TopdownClass::Retiring &&
                cand_ws * 2 < best_ws) {
                ++result.pruned;
                continue;
            }
            if (spent >= space.budgetSec) {
                result.budgetExhausted = true;
                break;
            }
            const TuneMeasurement m = timed(candidate);
            if (m.seconds > 0.0 &&
                m.seconds < result.bestSeconds * (1.0 - space.minGain)) {
                result.best = candidate;
                result.bestSeconds = m.seconds;
                result.bestBound = m.bound;
            }
        }
        if (result.budgetExhausted)
            break;
    }
    result.speedup = result.bestSeconds > 0.0
                         ? result.defaultSeconds / result.bestSeconds
                         : 1.0;
    return result;
}

} // namespace blas
} // namespace mc
