#include "pack_cache.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include <pthread.h>

#include "common/logging.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MC_PACK_HW_CRC 1
#include <immintrin.h>
#endif

namespace mc {
namespace blas {

namespace {

#ifdef MC_PACK_HW_CRC
/**
 * Three interleaved hardware CRC32-C chains. The crc32 instruction is
 * 3-cycle latency / 1-per-cycle throughput, so one dependent chain
 * caps at ~0.375 cycles/byte; three independent chains over thirds of
 * the buffer run at ~0.15. The streams are mixed with two more crc32
 * steps (plus the length) into one word — not the CRC of the
 * concatenation, which the fingerprint contract does not need.
 */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cFingerprint(const unsigned char *p, std::size_t n)
{
    constexpr std::size_t kWord = sizeof(std::uint64_t);
    const std::size_t per = n / kWord / 3;
    const unsigned char *s0 = p;
    const unsigned char *s1 = p + per * kWord;
    const unsigned char *s2 = p + 2 * per * kWord;
    std::uint64_t c0 = 0xffffffffu, c1 = 0, c2 = 0;
    for (std::size_t i = 0; i < per; ++i) {
        std::uint64_t w0, w1, w2;
        std::memcpy(&w0, s0 + i * kWord, kWord);
        std::memcpy(&w1, s1 + i * kWord, kWord);
        std::memcpy(&w2, s2 + i * kWord, kWord);
        c0 = _mm_crc32_u64(c0, w0);
        c1 = _mm_crc32_u64(c1, w1);
        c2 = _mm_crc32_u64(c2, w2);
    }
    for (const unsigned char *q = p + 3 * per * kWord; q != p + n; ++q)
        c0 = _mm_crc32_u8(static_cast<std::uint32_t>(c0), *q);
    std::uint64_t mix = _mm_crc32_u64(c0, c1 | (c2 << 32));
    mix = _mm_crc32_u64(mix, n);
    return static_cast<std::uint32_t>(mix) ^ 0xffffffffu;
}
#endif // MC_PACK_HW_CRC

/** Shared-instance switch: -1 unset (consult the environment), else
 *  0/1. Programmatic setEnabled always wins (mc_perf's warm/cold
 *  sweeps toggle it mid-process). */
std::atomic<int> g_enabled_override{-1};

struct EnvConfig
{
    bool disabled = false;
    bool present = false;
    std::size_t capacityBytes = PackCache::kDefaultCapacityBytes;
};

/** Parse MC_PACK_CACHE once: "off"/"0" disables, a number is the
 *  capacity in MB. Unparsable values fall back to the default cap
 *  (never fatal: the cache is a speed knob, not a semantic one). */
const EnvConfig &
envConfig()
{
    static const EnvConfig config = [] {
        EnvConfig out;
        const char *raw = std::getenv("MC_PACK_CACHE");
        if (!raw || !*raw)
            return out;
        out.present = true;
        const std::string text(raw);
        if (text == "off" || text == "OFF" || text == "0") {
            out.disabled = true;
            return out;
        }
        char *end = nullptr;
        const unsigned long long mb = std::strtoull(raw, &end, 10);
        if (end && *end == '\0' && mb > 0)
            out.capacityBytes =
                static_cast<std::size_t>(mb) * 1024 * 1024;
        return out;
    }();
    return config;
}

std::shared_ptr<void>
allocateAligned(std::size_t bytes)
{
    void *raw = ::operator new(bytes ? bytes : 1,
                               std::align_val_t{64});
    return std::shared_ptr<void>(raw, [](void *p) {
        ::operator delete(p, std::align_val_t{64});
    });
}

} // namespace

std::uint32_t
packFingerprint(const void *data, std::size_t bytes)
{
#ifdef MC_PACK_HW_CRC
    static const bool hw = __builtin_cpu_supports("sse4.2");
    if (hw)
        return crc32cFingerprint(
            static_cast<const unsigned char *>(data), bytes);
#endif
    return crc32(data, bytes);
}

std::size_t
PackKeyHash::operator()(const PackKey &key) const
{
    std::uint64_t h = hashCombine(
        kHashBasis, (static_cast<std::uint64_t>(key.kind) << 24) |
                        (static_cast<std::uint64_t>(key.srcType) << 16) |
                        (static_cast<std::uint64_t>(key.accType) << 8) |
                        key.tier);
    h = hashCombine(h, key.fingerprint);
    h = hashCombine(h, key.srcBytes);
    h = hashCombine(h, key.rows);
    h = hashCombine(h, key.cols);
    h = hashCombine(h, key.pad);
    return static_cast<std::size_t>(h);
}

PackCache::PackCache(std::size_t capacity_bytes)
    : _capacity(capacity_bytes)
{
}

std::shared_ptr<const PackEntry>
PackCache::findOrPack(const PackKey &key, std::size_t bytes,
                      const FillFn &fill)
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _index.find(key);
        if (it != _index.end()) {
            ++_hits;
            _lru.splice(_lru.begin(), _lru, it->second);
            return it->second->second;
        }
        ++_misses;
    }

    // Stage outside the lock: packing a large panel must not serialize
    // against other threads' lookups.
    auto entry = std::make_shared<PackEntry>();
    entry->data = allocateAligned(bytes);
    entry->bytes = bytes;
    fill(entry->data.get());

    std::lock_guard<std::mutex> lock(_mutex);
    if (bytes > _capacity)
        return entry; // live but never retained
    auto it = _index.find(key);
    if (it != _index.end()) {
        // A racing filler won; serve its bytes (identical by the
        // bit-exactness contract) and drop ours.
        _lru.splice(_lru.begin(), _lru, it->second);
        return it->second->second;
    }
    _lru.emplace_front(key, entry);
    _index.emplace(key, _lru.begin());
    _resident += bytes;
    evictExcessLocked();
    return entry;
}

std::uint64_t
PackCache::hits() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _hits;
}

std::uint64_t
PackCache::misses() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _misses;
}

std::uint64_t
PackCache::evictions() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _evictions;
}

std::uint64_t
PackCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _resident;
}

std::size_t
PackCache::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _index.size();
}

std::size_t
PackCache::capacityBytes() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _capacity;
}

void
PackCache::setCapacityBytes(std::size_t capacity_bytes)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _capacity = capacity_bytes;
    evictExcessLocked();
}

void
PackCache::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _lru.clear();
    _index.clear();
    _resident = 0;
    _hits = _misses = _evictions = 0;
}

void
PackCache::evictExcessLocked()
{
    while (_resident > _capacity && !_lru.empty()) {
        const auto &victim = _lru.back();
        mc_assert(_resident >= victim.second->bytes,
                  "pack cache byte accounting underflow");
        _resident -= victim.second->bytes;
        _index.erase(victim.first);
        _lru.pop_back();
        ++_evictions;
    }
}

PackCache &
PackCache::instance()
{
    static PackCache cache(envConfig().disabled
                               ? 0
                               : envConfig().capacityBytes);
    // Hold the lookup lock across fork(): a child (a forked mc_serve
    // worker) must not inherit it locked by a thread that does not
    // exist there.
    // The handlers reach the cache through instance(), whose guard
    // orders them after its construction on whichever thread ran it.
    static const int fork_guard =
        ::pthread_atfork([] { instance()._mutex.lock(); },
                         [] { instance()._mutex.unlock(); },
                         [] { instance()._mutex.unlock(); });
    (void)fork_guard;
    return cache;
}

bool
PackCache::enabled()
{
    const int forced = g_enabled_override.load(std::memory_order_relaxed);
    if (forced >= 0)
        return forced != 0;
    return !envConfig().disabled;
}

void
PackCache::setEnabled(bool enabled)
{
    g_enabled_override.store(enabled ? 1 : 0,
                             std::memory_order_relaxed);
}

namespace {
std::atomic<std::size_t> g_min_source_bytes{
    PackCache::kDefaultMinSourceBytes};
} // namespace

bool
PackCache::shouldCache(std::size_t src_bytes)
{
    return enabled() &&
           src_bytes >= g_min_source_bytes.load(std::memory_order_relaxed);
}

std::size_t
PackCache::minSourceBytes()
{
    return g_min_source_bytes.load(std::memory_order_relaxed);
}

void
PackCache::setMinSourceBytes(std::size_t bytes)
{
    g_min_source_bytes.store(bytes, std::memory_order_relaxed);
}

void
PackCache::configureCapacityMb(std::uint64_t mb)
{
    if (envConfig().present)
        return; // MC_PACK_CACHE wins, like MC_TUNE/MC_SIMD
    if (mb == 0) {
        setEnabled(false);
        return;
    }
    setEnabled(true);
    instance().setCapacityBytes(static_cast<std::size_t>(mb) * 1024 *
                                1024);
}

PackCacheStats
PackCache::globalStats()
{
    PackCacheStats stats;
    PackCache &cache = instance();
    std::lock_guard<std::mutex> lock(cache._mutex);
    stats.hits = cache._hits;
    stats.misses = cache._misses;
    stats.evictions = cache._evictions;
    stats.residentBytes = cache._resident;
    return stats;
}

} // namespace blas
} // namespace mc
