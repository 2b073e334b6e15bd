/**
 * @file
 * Memoization of packed GEMM operands.
 *
 * The fast functional backend consumes operands in staged layouts —
 * A widened to the accumulator type with padded columns, B widened (or
 * k-group interleaved for int8) row panels, and the int8 zero-point
 * row/column sums — and until this cache it rebuilt every one of them
 * on every call. The transformer benches, the verify paths, and
 * mc_serve replay the same weight matrices thousands of times, so the
 * staging work (not the multiply loop) dominates exactly the skinny
 * decode-shaped GEMMs the paper's low-N ramps study.
 *
 * Keys are content-addressed: a CRC-32 fingerprint of the source
 * operand bytes plus the shape, the source/accumulator types, the
 * resolved SIMD tier, and the padded depth. Mutating an operand in
 * place therefore misses (never serves stale panels), and two
 * logically identical matrices at different addresses share one entry.
 * The cached bytes are produced by the exact same packing routines the
 * uncached path runs, so results are memcmp-identical with the cache
 * on or off — tests/blas/pack_cache_test.cc and the
 * bench_pack_cache_* gates (cmake/CompareVariants.cmake) enforce this.
 *
 * The cache is process-wide (PackCache::instance()) and byte-capped
 * (LRU, default 64 MB). Control knobs: the MC_PACK_CACHE environment
 * variable ("off" or a capacity in MB; wins over flags, so CI gates
 * can pin behavior) and the --pack-cache-mb bench/serve flag.
 */

#ifndef MC_BLAS_PACK_CACHE_HH
#define MC_BLAS_PACK_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>

#include "common/hash.hh"
#include "fp/bfloat16.hh"
#include "fp/half.hh"

namespace mc {
namespace blas {

/** Which staged layout an entry holds. */
enum class PackKind : std::uint8_t
{
    WidenA,   ///< row-major widen of A, columns padded to `pad`
    WidenB,   ///< row-major widen of B, rows padded to `pad`
    I8PadA,   ///< int8 A with columns zero-padded to `pad`
    I8PackB,  ///< int8 B in the tier's k-group interleaved layout
    I8RowSum, ///< int32 per-row sums of int8 A
    I8ColSum, ///< int32 per-column sums of int8 B
};

/** Storage-type tag of a pack key (stable across builds). */
template <typename T>
constexpr std::uint8_t packTypeTag();

/**
 * Full identity of one staged operand: the content fingerprint plus
 * every parameter that shapes the staged bytes.
 */
struct PackKey
{
    PackKind kind = PackKind::WidenA;
    std::uint8_t srcType = 0;    ///< packTypeTag of the stored operand
    std::uint8_t accType = 0;    ///< packTypeTag of the staged element
    std::uint8_t tier = 0;       ///< resolved SimdTier (layout owner)
    std::uint32_t fingerprint = 0; ///< crc32 over the source bytes
    std::uint64_t srcBytes = 0;  ///< source operand size (guards crc)
    std::uint64_t rows = 0;
    std::uint64_t cols = 0;
    std::uint64_t pad = 0;       ///< padded depth (kpad / kp); 0 if n/a

    bool operator==(const PackKey &) const = default;
};

/** Stable hash functor over every PackKey field. */
struct PackKeyHash
{
    std::size_t operator()(const PackKey &key) const;
};

/** One cached staged buffer (64-byte aligned). Returned shared so the
 *  bytes outlive LRU eviction for as long as a caller computes on
 *  them. */
struct PackEntry
{
    std::shared_ptr<void> data;
    std::size_t bytes = 0;

    template <typename T>
    const T *as() const
    {
        return static_cast<const T *>(data.get());
    }
};

/** Counter snapshot (reported on bench completion lines and in the
 *  mc_serve stats response, next to the plan-cache counters). */
struct PackCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t residentBytes = 0;
};

/**
 * Thread-safe, byte-capped LRU of staged operands. Tests construct
 * standalone instances; production code shares PackCache::instance().
 */
class PackCache
{
  public:
    /** Fills a freshly allocated staged buffer; runs outside the cache
     *  lock. */
    using FillFn = std::function<void(void *out)>;

    explicit PackCache(std::size_t capacity_bytes);

    /**
     * Return the staged bytes for @p key, producing them via @p fill on
     * first request. Entries larger than the capacity are built but not
     * retained (the caller still gets a live buffer). Concurrent
     * first requests may both fill; one insertion wins.
     */
    std::shared_ptr<const PackEntry>
    findOrPack(const PackKey &key, std::size_t bytes, const FillFn &fill);

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t evictions() const;
    /** Bytes currently retained. */
    std::uint64_t residentBytes() const;
    std::size_t size() const;

    std::size_t capacityBytes() const;
    /** Change the byte cap; excess LRU entries are evicted at once. */
    void setCapacityBytes(std::size_t capacity_bytes);

    /** Drop all entries and reset the counters (not the capacity). */
    void clear();

    // ---- Process-wide instance --------------------------------------

    /**
     * The shared cache. First use reads MC_PACK_CACHE ("off"/"0"
     * disables; a number sets the capacity in MB) and otherwise starts
     * at kDefaultCapacityBytes. Its lock is held across fork(), so a
     * forked child can use the cache it inherits.
     */
    static PackCache &instance();

    /** False when packing should bypass the shared cache entirely. */
    static bool enabled();
    /** Programmatic on/off switch (mc_perf's warm/cold sweeps; also
     *  how --pack-cache-mb 0 disables). Overrides the environment. */
    static void setEnabled(bool enabled);
    /** Apply --pack-cache-mb (0 disables) unless MC_PACK_CACHE is set —
     *  the environment contract wins, like MC_TUNE/MC_SIMD. */
    static void configureCapacityMb(std::uint64_t mb);

    /** Counter snapshot of the shared instance (zeros when the cache
     *  has never been touched). */
    static PackCacheStats globalStats();

    /**
     * True when a source operand of @p src_bytes should consult the
     * shared cache: enabled() and at least minSourceBytes() large.
     * A lookup — hit or miss — scans the operand (the fingerprint)
     * and takes the lock, which for small panels costs as much as
     * just re-staging them into the scratch arena; below the
     * threshold the cache could only break even, so staging bypasses
     * it entirely. Measured on the quantized transformer's per-head
     * attention GEMMs (8 KB panels), where caching was a slight net
     * loss and bypassing is neutral-to-positive.
     */
    static bool shouldCache(std::size_t src_bytes);
    static std::size_t minSourceBytes();
    /** Tests set 0 to force tiny panels through the cache. */
    static void setMinSourceBytes(std::size_t bytes);

    /** 64 MB: a few dozen decode-shaped weight panels. */
    static constexpr std::size_t kDefaultCapacityBytes =
        64ull * 1024 * 1024;

    /** 16 KB: staging beats the lookup below roughly this size. */
    static constexpr std::size_t kDefaultMinSourceBytes = 16 * 1024;

  private:
    void evictExcessLocked();

    using LruList =
        std::list<std::pair<PackKey, std::shared_ptr<const PackEntry>>>;

    mutable std::mutex _mutex;
    LruList _lru; ///< most-recently-used entries at the front
    std::unordered_map<PackKey, LruList::iterator, PackKeyHash> _index;
    std::size_t _capacity = 0;
    std::uint64_t _resident = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

/**
 * CRC-32 fingerprint of a source operand (the PackKey::fingerprint
 * field). Every lookup — hit or miss — pays this scan, so it must be
 * much cheaper than re-staging: on x86-64 with SSE4.2 it runs three
 * interleaved hardware crc32 chains (~0.15 cycles/byte), elsewhere the
 * portable slice-by-8 crc32 from common/hash.hh (~1 cycle/byte). The
 * two produce different values; keys are process-local and never
 * persisted, so only in-process determinism matters.
 */
std::uint32_t packFingerprint(const void *data, std::size_t bytes);

// The keys are runtime-only (never persisted), but the tags stay
// stable anyway so debugging across builds stays sane.
template <typename T>
constexpr std::uint8_t
packTypeTag()
{
    if constexpr (std::is_same_v<T, float>)
        return 1;
    else if constexpr (std::is_same_v<T, double>)
        return 2;
    else if constexpr (std::is_same_v<T, fp::Half>)
        return 3;
    else if constexpr (std::is_same_v<T, fp::BFloat16>)
        return 4;
    else if constexpr (std::is_same_v<T, std::int8_t>)
        return 5;
    else
        return 6; // std::int32_t (the i8 sum vectors)
}

} // namespace blas
} // namespace mc

#endif // MC_BLAS_PACK_CACHE_HH
