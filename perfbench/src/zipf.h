// Zipf rank sampler over a precomputed CDF.
//
// `hsis::Rng::Zipf` rescans all n weights, with a `pow` per step, on
// every draw; generating a long stream over a large catalog that way
// takes minutes. This sampler sums the same weights once, in the same
// order, and binary-searches the cumulative sums, so it returns the same
// rank as `Rng::Zipf` for the same Rng state in O(log n) per draw.
#ifndef PERFBENCH_ZIPF_H_
#define PERFBENCH_ZIPF_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/random.h"

namespace perfbench {

class ZipfSampler {
 public:
  /// Ranks in [0, n), n >= 1, exponent s >= 0 (s == 0 is uniform).
  ZipfSampler(size_t n, double s) : n_(n), s_(s) {
    if (n_ > 1 && s_ > 0.0) {
      cdf_.reserve(n_);
      double acc = 0.0;
      for (size_t k = 0; k < n_; ++k) {
        acc += std::pow(static_cast<double>(k + 1), -s_);
        cdf_.push_back(acc);
      }
    }
  }

  size_t Draw(hsis::Rng& rng) const {
    if (n_ <= 1) return 0;
    if (s_ <= 0.0) return rng.UniformUint64(n_);
    const double u = rng.UniformDouble() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? n_ - 1 : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  size_t n_;
  double s_;
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ZIPF_H_
