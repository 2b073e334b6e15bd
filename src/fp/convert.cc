#include "convert.hh"

#include "fp/bfloat16.hh"
#include "fp/half.hh"

namespace mc {
namespace fp {

void
widenHalfBits(const std::uint16_t *in, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = Half::fromBits(in[i]).toFloat();
}

void
widenBf16Bits(const std::uint16_t *in, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = BFloat16::fromBits(in[i]).toFloat();
}

} // namespace fp
} // namespace mc
