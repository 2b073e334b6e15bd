/**
 * @file
 * Seeded request mix of the serve_small workload.
 *
 * The schedule is a doubling ladder of fixed rates. Every rung sends a
 * fixed number of requests (rate x rung seconds) at Poisson arrival
 * times, so the sample count of each rung, and with it the tail
 * percentile reported for it, does not depend on the seed. Request
 * shapes are drawn in exact proportions (each field from a shuffled,
 * balanced list), so two seeds differ in order, timing and operand
 * identity, not in the amount of work.
 */

#ifndef PERFBENCH_MIXES_HH
#define PERFBENCH_MIXES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "blas/gemm_types.hh"

namespace perfbench {

/** Rates of one ladder and the length of each rung. */
struct Ladder
{
    std::vector<double> rates;   ///< requests per second, one per rung
    std::vector<double> seconds; ///< length of each rung
    double gapSeconds = 0.5;     ///< idle time between rungs
};

struct Request
{
    std::size_t rung = 0;
    double sendAt = 0.0;       ///< seconds after the ladder starts
    bool inject = false;
    mc::blas::GemmCombo combo = mc::blas::GemmCombo::Sgemm;
    std::size_t m = 0, n = 0, k = 0, batch = 1;
    double alpha = 1.0;
    std::string injectSpec;

    /** The request document, with id @p id. */
    std::string frame(const std::string &id) const;
};

/** serve_small: distinct keys, six combos, m, n, k in {16..256}, about
 *  @p inject_share of requests fault-injected with @p inject_spec. */
std::vector<Request> serveSmallMix(std::uint64_t seed, const Ladder &ladder,
                                   double inject_share,
                                   const std::string &inject_spec);

} // namespace perfbench

#endif // PERFBENCH_MIXES_HH
