#include "exp/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"

namespace rp::exp {

Summary summarize(std::span<const double> values) {
  Summary s;
  s.n = static_cast<int>(values.size());
  if (s.n == 0) return s;
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / s.n;
  if (s.n > 1) {
    double ss = 0.0;
    for (double v : values) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / (s.n - 1));
  }
  return s;
}

double ols_slope_origin(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("ols_slope_origin: size mismatch");
  double sxy = 0.0, sxx = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += x[i] * y[i];
    sxx += x[i] * x[i];
  }
  if (sxx == 0.0) return 0.0;
  return sxy / sxx;
}

Interval bootstrap_slope_ci(std::span<const double> x, std::span<const double> y, int iters,
                            double confidence, uint64_t seed) {
  if (x.size() != y.size() || x.empty()) {
    throw std::invalid_argument("bootstrap_slope_ci: bad input");
  }
  if (confidence <= 0.0 || confidence >= 1.0) {
    throw std::invalid_argument("bootstrap_slope_ci: confidence must be in (0, 1)");
  }
  const obs::Span span("stats.bootstrap");
  // Every resample draws from a stream forked off the root seed by its
  // iteration index, and slopes[] is indexed by iteration, so the interval
  // is bit-identical for any RP_THREADS value.
  const Rng root(seed);
  const auto n = static_cast<int64_t>(x.size());
  std::vector<double> slopes(static_cast<size_t>(iters));
  // A resample costs about 16 operations per point: the index draw, two
  // gathers and the slope's two multiply-adds.
  parallel::parallel_for(0, iters, 16 * n, [&](int64_t it0, int64_t it1) {
    std::vector<double> bx(static_cast<size_t>(n)), by(static_cast<size_t>(n));
    for (int64_t it = it0; it < it1; ++it) {
      Rng rng = root.fork(static_cast<uint64_t>(it));
      for (int64_t i = 0; i < n; ++i) {
        const auto j = static_cast<size_t>(rng.randint(n));
        bx[static_cast<size_t>(i)] = x[j];
        by[static_cast<size_t>(i)] = y[j];
      }
      slopes[static_cast<size_t>(it)] = ols_slope_origin(bx, by);
    }
  });
  std::sort(slopes.begin(), slopes.end());
  const double alpha = (1.0 - confidence) / 2.0;
  // Symmetric nearest-rank quantiles. Truncating both products biased both
  // ranks low: the lower rank was too small (interval too wide below) and
  // the upper rank missed its nearest order statistic (interval too narrow
  // above). Rounding treats the two tails identically.
  const auto lo_idx = static_cast<size_t>(std::llround(alpha * (iters - 1)));
  const auto hi_idx = static_cast<size_t>(std::llround((1.0 - alpha) * (iters - 1)));
  if (lo_idx > hi_idx || hi_idx >= slopes.size()) {
    throw std::logic_error("bootstrap_slope_ci: quantile ranks out of order");
  }
  return {slopes[lo_idx], slopes[hi_idx]};
}

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) throw std::invalid_argument("pearson: bad input");
  const Summary sx = summarize(x), sy = summarize(y);
  if (sx.stddev == 0.0 || sy.stddev == 0.0) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < x.size(); ++i) s += (x[i] - sx.mean) * (y[i] - sy.mean);
  return s / ((static_cast<double>(x.size()) - 1) * sx.stddev * sy.stddev);
}

}  // namespace rp::exp
