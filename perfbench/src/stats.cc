#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
tailPercentile(std::size_t samples)
{
    double best = 0.0;
    for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
        // Beyond-count in integer arithmetic: samples * (1 - p/100)
        // computed in hundredths of a percent to avoid rounding.
        const auto beyond_x1e4 =
            static_cast<std::uint64_t>(samples) *
            static_cast<std::uint64_t>(std::llround((100.0 - p) * 100.0));
        if (beyond_x1e4 >= 10u * 10000u)
            best = p;
    }
    return best;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (_state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t
Rng::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

std::vector<double>
poissonArrivals(Rng &rng, std::size_t count, double start, double duration)
{
    std::vector<double> times;
    times.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        times.push_back(start + rng.uniform() * duration);
    std::sort(times.begin(), times.end());
    return times;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ull));
    return rng.next();
}

} // namespace perfbench
