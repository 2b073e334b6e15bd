/**
 * @file
 * Per-layer probes: calls into one layer's public entry points, timed
 * from outside the program.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "blas/gemm_types.hh"

namespace perfbench {

/** Host time of the two halves of one verifyGemm call, re-timed through
 *  the public entry points on operands of the same shape. */
struct VerifySplit
{
    double gemmMs = 0.0; ///< the fast path verifyGemm checks
    double refMs = 0.0;  ///< the reference it checks against
};

/** Re-time the fast path and the reference of @p config's verification
 *  (batched configs as the strided-batched drivers verify them). */
VerifySplit retimeVerify(const mc::blas::GemmConfig &config,
                         const mc::blas::FunctionalGemmOptions &func);

/** Best-of-@p reps GFLOP/s of the fast functional path of @p combo at
 *  n = m = k = @p n on @p threads threads (cold pack cache). */
double fastGemmGflops(mc::blas::GemmCombo combo, std::size_t n, int threads,
                      int reps);

/** Non-FMA mul+add peak of one core, GFLOP/s, in the widest vector
 *  width the CPU has (AVX-512, AVX2 or SSE2). */
double hostPeakGflops(bool f64);

/** Single-thread STREAM triad bandwidth, GB/s, over arrays totalling
 *  at least four times the last-level cache. */
double streamTriadGbs();

/** Widest vector tier hostPeakGflops used ("avx512", "avx2", "sse2"). */
const char *peakTier();

/** Mean microseconds of the serve protocol steps over @p frames
 *  (request frames) and @p responses (response frames). */
struct ProtocolTimes
{
    double parseUs = 0.0;
    double keyUs = 0.0;
    double serializeUs = 0.0;
    double frameUs = 0.0; ///< writeFrame/readFrame round trip, socketpair
};
ProtocolTimes protocolTimes(const std::vector<std::string> &frames,
                            const std::vector<std::string> &responses);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
