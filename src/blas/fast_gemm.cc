/**
 * @file
 * Out-of-line instantiations of the fast functional-GEMM inner
 * kernels. This translation unit is compiled -O3 (see CMakeLists.txt):
 * the repo's default -O2 does not vectorize the runtime-trip-count j
 * loops, and these few functions are where the m*n*k work happens.
 * Numeric results do not depend on the optimization level — SSE2 mul
 * and add round per lane exactly like the scalar code.
 */

#include "fast_gemm.hh"

namespace mc {
namespace blas {
namespace detail {

template void axpyPanel<float>(const float *, const float *, std::size_t,
                               std::size_t, float *, std::size_t);
template void axpyPanel<double>(const double *, const double *,
                                std::size_t, std::size_t, double *,
                                std::size_t);
template void axpyPanelRound<fp::Half, float>(const float *, const float *,
                                              std::size_t, std::size_t,
                                              float *, std::size_t);

} // namespace detail
} // namespace blas
} // namespace mc
