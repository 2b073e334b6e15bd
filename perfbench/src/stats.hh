/**
 * @file
 * Order statistics and seeded randomness of the benchmark.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Nearest-rank percentile @p p (0..100] of @p values (any order). */
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);

/**
 * The tail percentile reported for @p samples samples: the highest of
 * p50, p90, p99, p99.9 and p99.99 that leaves at least 10 samples
 * beyond it (samples * (1 - p/100) >= 10). Returns 0 when even p50
 * has fewer than 10 samples beyond it (fewer than 20 samples).
 */
double tailPercentile(std::size_t samples);

/** splitmix64: the benchmark's only source of randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _state(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform integer in [0, n). */
    std::size_t below(std::size_t n);

  private:
    std::uint64_t _state;
};

/**
 * Open-loop Poisson arrivals with a fixed count: @p count sorted send
 * times, uniform in [@p start, @p start + @p duration). This is a
 * Poisson process conditioned on its count, so the offered rate of the
 * window is exactly count / duration for every seed.
 */
std::vector<double> poissonArrivals(Rng &rng, std::size_t count,
                                    double start, double duration);

/** Seed of stream @p stream under benchmark seed @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
