#include "common/rng.hpp"

#include <algorithm>
#include <cassert>

namespace xsearch {

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  // assert, not XS_CHECK: samplers are sized from generator configs, whose
  // sizes generate_synthetic_log XS_CHECKs before building any sampler.
  assert(n >= 1);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::pmf(std::size_t rank) const {
  // assert, not XS_CHECK: a per-rank lookup, kept as cheap as sample().
  assert(rank < cdf_.size());
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace xsearch
