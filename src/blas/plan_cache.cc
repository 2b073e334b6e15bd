#include "plan_cache.hh"

#include <atomic>
#include <bit>

#include "common/hash.hh"

namespace {

// Defaults to 1024: far above any single sweep's distinct-problem
// count, small enough that a week-long suite run stays bounded.
std::atomic<std::size_t> g_default_capacity{1024};

// Process-wide aggregates, fed by every cache instance so the bench
// completion line can report them after the engines are gone.
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};
std::atomic<std::uint64_t> g_evictions{0};

} // namespace

namespace mc {
namespace blas {

PlanKey
makePlanKey(const GemmConfig &config, const PlannerOptions &opts,
            std::uint64_t calibration_fingerprint)
{
    PlanKey key;
    key.combo = config.combo;
    key.m = config.m;
    key.n = config.n;
    key.k = config.k;
    key.alphaBits = std::bit_cast<std::uint64_t>(config.alpha);
    key.betaBits = std::bit_cast<std::uint64_t>(config.beta);
    key.batchCount = config.batchCount;
    key.forceMacroTile = config.forceMacroTile;
    key.forceMatrixCorePath =
        config.forceMatrixCorePath
            ? (*config.forceMatrixCorePath ? 1 : 0)
            : -1;

    key.macroTile = opts.macroTile;
    key.wideMacroTile = opts.wideMacroTile;
    key.wideTileThreshold = opts.wideTileThreshold;
    key.simdMacroTile = opts.simdMacroTile;
    key.l2ResidencyBits = std::bit_cast<std::uint64_t>(opts.l2Residency);
    key.bwEffBaseBits = std::bit_cast<std::uint64_t>(opts.bwEffBase);
    key.bwEffOccupancyBonusBits =
        std::bit_cast<std::uint64_t>(opts.bwEffOccupancyBonus);
    key.mixedPrecisionMinDim = opts.mixedPrecisionMinDim;

    key.calibration = calibration_fingerprint;

    std::uint64_t qbits = kHashBasis;
    qbits = hashCombine(
        qbits, std::bit_cast<std::uint32_t>(config.quant.scaleA));
    qbits = hashCombine(
        qbits, std::bit_cast<std::uint32_t>(config.quant.scaleB));
    qbits = hashCombine(
        qbits, std::bit_cast<std::uint32_t>(config.quant.scaleD));
    qbits = hashCombine(
        qbits, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(config.quant.zeroA)));
    qbits = hashCombine(
        qbits, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(config.quant.zeroB)));
    qbits = hashCombine(
        qbits, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(config.quant.zeroD)));
    key.quantBits = qbits;
    return key;
}

PlanKey
makePlanKey(const GemmConfig &config, const PlannerOptions &opts,
            std::uint64_t calibration_fingerprint,
            const FunctionalGemmOptions &func,
            std::uint64_t tune_fingerprint)
{
    PlanKey key = makePlanKey(config, opts, calibration_fingerprint);
    // Pack the functional knobs; each block field fits 16 bits by
    // construction (blocks are small powers of two), threads in 16.
    std::uint64_t bits = kHashBasis;
    bits = hashCombine(bits, static_cast<std::uint64_t>(
                                 static_cast<std::int64_t>(func.threads)));
    bits = hashCombine(bits, static_cast<std::uint64_t>(func.blockM));
    bits = hashCombine(bits, static_cast<std::uint64_t>(func.blockN));
    bits = hashCombine(bits, static_cast<std::uint64_t>(func.blockK));
    bits = hashCombine(bits, static_cast<std::uint64_t>(func.simd));
    key.funcBits = bits;
    key.tuneFingerprint = tune_fingerprint;
    return key;
}

std::size_t
PlanKeyHash::operator()(const PlanKey &key) const
{
    std::uint64_t h = kHashBasis;
    h = hashCombine(h, static_cast<std::uint64_t>(key.combo));
    h = hashCombine(h, key.m);
    h = hashCombine(h, key.n);
    h = hashCombine(h, key.k);
    h = hashCombine(h, key.alphaBits);
    h = hashCombine(h, key.betaBits);
    h = hashCombine(h, key.batchCount);
    h = hashCombine(h, static_cast<std::uint64_t>(key.forceMacroTile));
    h = hashCombine(h,
                    static_cast<std::uint64_t>(key.forceMatrixCorePath + 1));
    h = hashCombine(h, static_cast<std::uint64_t>(key.macroTile));
    h = hashCombine(h, static_cast<std::uint64_t>(key.wideMacroTile));
    h = hashCombine(h, key.wideTileThreshold);
    h = hashCombine(h, static_cast<std::uint64_t>(key.simdMacroTile));
    h = hashCombine(h, key.l2ResidencyBits);
    h = hashCombine(h, key.bwEffBaseBits);
    h = hashCombine(h, key.bwEffOccupancyBonusBits);
    h = hashCombine(h, key.mixedPrecisionMinDim);
    h = hashCombine(h, key.calibration);
    h = hashCombine(h, key.funcBits);
    h = hashCombine(h, key.tuneFingerprint);
    h = hashCombine(h, key.quantBits);
    return static_cast<std::size_t>(h);
}

PlanCache::PlanCache() : _capacity(defaultCapacity()) {}

std::shared_ptr<const GemmPlan>
PlanCache::findOrCompute(const PlanKey &key,
                         const std::function<GemmPlan()> &compute)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _index.find(key);
    if (it != _index.end()) {
        ++_hits;
        g_hits.fetch_add(1, std::memory_order_relaxed);
        // Move to the front (most recently used).
        _lru.splice(_lru.begin(), _lru, it->second);
        return it->second->second;
    }
    ++_misses;
    g_misses.fetch_add(1, std::memory_order_relaxed);
    auto plan = std::make_shared<const GemmPlan>(compute());
    _lru.emplace_front(key, plan);
    _index.emplace(key, _lru.begin());
    evictExcessLocked();
    return plan;
}

void
PlanCache::evictExcessLocked()
{
    if (_capacity == 0)
        return;
    while (_lru.size() > _capacity) {
        _index.erase(_lru.back().first);
        _lru.pop_back();
        ++_evictions;
        g_evictions.fetch_add(1, std::memory_order_relaxed);
    }
}

std::uint64_t
PlanCache::hits() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _hits;
}

std::uint64_t
PlanCache::misses() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _misses;
}

std::uint64_t
PlanCache::evictions() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _evictions;
}

std::size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _lru.size();
}

std::size_t
PlanCache::capacity() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _capacity;
}

void
PlanCache::setCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _capacity = capacity;
    evictExcessLocked();
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _lru.clear();
    _index.clear();
    _hits = 0;
    _misses = 0;
    _evictions = 0;
}

std::size_t
PlanCache::defaultCapacity()
{
    return g_default_capacity.load(std::memory_order_relaxed);
}

void
PlanCache::setDefaultCapacity(std::size_t capacity)
{
    g_default_capacity.store(capacity, std::memory_order_relaxed);
}

PlanCacheStats
PlanCache::globalStats()
{
    PlanCacheStats stats;
    stats.hits = g_hits.load(std::memory_order_relaxed);
    stats.misses = g_misses.load(std::memory_order_relaxed);
    stats.evictions = g_evictions.load(std::memory_order_relaxed);
    return stats;
}

} // namespace blas
} // namespace mc
