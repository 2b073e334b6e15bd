// Host roofline probes: a non-FMA mul+add peak and a STREAM triad.
//
// The build pins -ffp-contract=off, so `x * m + a` stays one multiply
// and one add: the same instruction mix the bit-exact functional
// kernels are limited to. Twelve independent accumulator chains hide
// the add and multiply latencies.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "layers.hh"
#include "trace.hh"

namespace perfbench {

namespace {

constexpr int kChains = 12;

template <typename V, typename S>
inline __attribute__((always_inline)) double
mulAddChains(long iters)
{
    V acc[kChains];
    for (int j = 0; j < kChains; ++j)
        acc[j] = V{} + static_cast<S>(1.0 + 0.01 * j);
    const V mul = V{} + static_cast<S>(0.9999999);
    const V add = V{} + static_cast<S>(1e-7);
    for (long i = 0; i < iters; ++i) {
        // Fully unrolled, so the chains live in registers.
#pragma GCC unroll 12
        for (int j = 0; j < kChains; ++j)
            acc[j] = acc[j] * mul + add;
    }
    double sum = 0.0;
    for (int j = 0; j < kChains; ++j)
        for (std::size_t l = 0; l < sizeof(V) / sizeof(S); ++l)
            sum += static_cast<double>(acc[j][l]);
    return sum;
}

typedef float f32x16 __attribute__((vector_size(64)));
typedef double f64x8 __attribute__((vector_size(64)));
typedef float f32x8 __attribute__((vector_size(32)));
typedef double f64x4 __attribute__((vector_size(32)));
typedef float f32x4 __attribute__((vector_size(16)));
typedef double f64x2 __attribute__((vector_size(16)));

__attribute__((target("avx512f"), noinline)) double
loop512(bool f64, long iters)
{
    return f64 ? mulAddChains<f64x8, double>(iters)
               : mulAddChains<f32x16, float>(iters);
}

__attribute__((target("avx2"), noinline)) double
loop256(bool f64, long iters)
{
    return f64 ? mulAddChains<f64x4, double>(iters)
               : mulAddChains<f32x8, float>(iters);
}

__attribute__((noinline)) double
loop128(bool f64, long iters)
{
    return f64 ? mulAddChains<f64x2, double>(iters)
               : mulAddChains<f32x4, float>(iters);
}

int
vectorBytes()
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f"))
        return 64;
    if (__builtin_cpu_supports("avx2"))
        return 32;
#endif
    return 16;
}

std::size_t
lastLevelCacheBytes()
{
    for (int index = 4; index >= 0; --index) {
        std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                         std::to_string(index) + "/size");
        std::string text;
        if (in >> text && !text.empty()) {
            std::size_t value = std::stoul(text);
            if (text.back() == 'K')
                value <<= 10;
            else if (text.back() == 'M')
                value <<= 20;
            return value;
        }
    }
    return std::size_t{32} << 20;
}

} // namespace

const char *
peakTier()
{
    switch (vectorBytes()) {
      case 64: return "avx512";
      case 32: return "avx2";
      default: return "sse2";
    }
}

double
hostPeakGflops(bool f64)
{
    const int bytes = vectorBytes();
    const int lanes = bytes / (f64 ? 8 : 4);
    const long iters = 20'000'000;
    double best = 0.0;
    volatile double sink = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const double t0 = nowUs();
        sink = sink + (bytes == 64   ? loop512(f64, iters)
                       : bytes == 32 ? loop256(f64, iters)
                                     : loop128(f64, iters));
        const double sec = (nowUs() - t0) * 1e-6;
        const double gflops = 2.0 * kChains * lanes *
                              static_cast<double>(iters) / sec * 1e-9;
        best = std::max(best, gflops);
    }
    return best;
}

double
streamTriadGbs()
{
    // Three arrays totalling at least 4x the last-level cache (capped
    // at 1.5 GiB so a huge reported cache cannot exhaust memory).
    const std::size_t total = std::min<std::size_t>(
        4 * lastLevelCacheBytes(), std::size_t{3} << 29);
    const std::size_t n = total / 3 / sizeof(double) + 1;
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double s = 3.0;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const double t0 = nowUs();
        for (std::size_t i = 0; i < n; ++i)
            a[i] = b[i] + s * c[i];
        asm volatile("" ::"r"(a.data()) : "memory");
        const double sec = (nowUs() - t0) * 1e-6;
        best = std::max(best, 3.0 * sizeof(double) * static_cast<double>(n) /
                                  sec * 1e-9);
    }
    return best;
}

} // namespace perfbench
