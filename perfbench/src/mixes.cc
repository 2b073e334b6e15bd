#include "mixes.hh"

#include <algorithm>
#include <cmath>

#include "common/json.hh"
#include "stats.hh"

namespace perfbench {

using mc::blas::GemmCombo;

namespace {

/** @p count draws from @p options in proportion to @p weights (exact up
 *  to rounding), in a seeded order. */
template <typename T>
std::vector<T>
balanced(Rng &rng, std::size_t count, const std::vector<T> &options,
         const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    std::vector<T> out;
    double acc = 0.0;
    for (std::size_t i = 0; i < options.size(); ++i) {
        acc += weights[i];
        const auto upto = static_cast<std::size_t>(
            std::llround(acc / total * static_cast<double>(count)));
        while (out.size() < upto)
            out.push_back(options[i]);
    }
    for (std::size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1], out[rng.below(i)]);
    return out;
}

template <typename T>
std::vector<T>
uniformBalanced(Rng &rng, std::size_t count, const std::vector<T> &options)
{
    return balanced(rng, count, options,
                    std::vector<double>(options.size(), 1.0));
}

/** Arrival times of the whole ladder, rung by rung. */
std::vector<Request>
schedule(Rng &rng, const Ladder &ladder)
{
    std::vector<Request> out;
    double start = 0.0;
    for (std::size_t r = 0; r < ladder.rates.size(); ++r) {
        const auto count = static_cast<std::size_t>(
            std::llround(ladder.rates[r] * ladder.seconds[r]));
        for (double t : poissonArrivals(rng, count, start, ladder.seconds[r])) {
            Request req;
            req.rung = r;
            req.sendAt = t;
            out.push_back(req);
        }
        start += ladder.seconds[r] + ladder.gapSeconds;
    }
    return out;
}

/** A per-seed alpha offset plus a per-request step keeps every
 *  request's canonical key distinct. */
double
distinctAlpha(std::uint64_t seed, std::size_t index)
{
    return 1.0 + static_cast<double>(seed % 4096) * 0x1p-14 +
           static_cast<double>(index + 1) * 0x1p-30;
}

} // namespace

std::string
Request::frame(const std::string &id) const
{
    mc::JsonValue doc = mc::JsonValue::object();
    doc.set("kind", "gemm");
    doc.set("id", id);
    doc.set("combo", mc::blas::comboInfo(combo).name);
    doc.set("m", static_cast<std::int64_t>(m));
    doc.set("n", static_cast<std::int64_t>(n));
    doc.set("k", static_cast<std::int64_t>(k));
    doc.set("batch", static_cast<std::int64_t>(batch));
    doc.set("alpha", alpha);
    if (!injectSpec.empty())
        doc.set("inject", injectSpec);
    return doc.serialize(0);
}

namespace {

/** Calls @p fn(begin, end) for each rung's index range. Shapes are
 *  balanced per rung, so every rung carries the same mix of work. */
template <typename Fn>
void
forEachRung(const std::vector<Request> &reqs, Fn fn)
{
    std::size_t begin = 0;
    while (begin < reqs.size()) {
        std::size_t end = begin;
        while (end < reqs.size() && reqs[end].rung == reqs[begin].rung)
            ++end;
        fn(begin, end);
        begin = end;
    }
}

} // namespace

std::vector<Request>
serveSmallMix(std::uint64_t seed, const Ladder &ladder, double inject_share,
              const std::string &inject_spec)
{
    Rng rng(deriveSeed(seed, 1));
    std::vector<Request> reqs = schedule(rng, ladder);
    const std::vector<std::size_t> dims = {16, 32, 64, 128, 256};
    forEachRung(reqs, [&](std::size_t begin, std::size_t end) {
        const std::size_t n = end - begin;
        const auto combos = uniformBalanced<GemmCombo>(
            rng, n,
            {GemmCombo::Dgemm, GemmCombo::Sgemm, GemmCombo::Hgemm,
             GemmCombo::Hss, GemmCombo::Hhs, GemmCombo::I8gemm});
        const auto ms = uniformBalanced(rng, n, dims);
        const auto ns = uniformBalanced(rng, n, dims);
        const auto ks = uniformBalanced(rng, n, dims);
        const auto inject = balanced<int>(rng, n, {1, 0},
                                          {inject_share, 1.0 - inject_share});
        for (std::size_t j = 0; j < n; ++j) {
            Request &q = reqs[begin + j];
            q.combo = combos[j];
            q.m = ms[j];
            q.n = ns[j];
            q.k = ks[j];
            q.alpha = distinctAlpha(seed, begin + j);
            q.inject = inject[j] != 0;
            if (q.inject)
                q.injectSpec = inject_spec;
        }
    });
    return reqs;
}

} // namespace perfbench
