#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/check.hpp"

namespace xsearch {

Histogram::Histogram(int sub_bucket_bits)
    : sub_bucket_bits_(sub_bucket_bits),
      sub_bucket_count_(std::int64_t{1} << sub_bucket_bits) {
  XS_CHECK(sub_bucket_bits >= 1 && sub_bucket_bits <= 16,
           "sub_bucket_bits must lie in [1, 16]");
  counts_.resize(static_cast<std::size_t>(sub_bucket_count_) * 2, 0);
}

std::size_t Histogram::bucket_index(std::int64_t value) const {
  // Values < sub_bucket_count land linearly in the first two half-ranges;
  // beyond that each power-of-two range contributes sub_bucket_count/2
  // buckets of geometrically growing width.
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(value, 0));
  const int msb = 63 - std::countl_zero(v | 1);
  if (msb < sub_bucket_bits_) return static_cast<std::size_t>(v);
  const int shift = msb - sub_bucket_bits_ + 1;
  const auto sub = static_cast<std::size_t>(v >> shift);  // in [half, count)
  const auto range = static_cast<std::size_t>(shift);
  return range * static_cast<std::size_t>(sub_bucket_count_ / 2) + sub;
}

std::int64_t Histogram::bucket_upper_edge(std::size_t index) const {
  const auto half = static_cast<std::size_t>(sub_bucket_count_ / 2);
  if (index < static_cast<std::size_t>(sub_bucket_count_)) {
    return static_cast<std::int64_t>(index);
  }
  const std::size_t range = (index - half) / half;
  const std::size_t sub = index - range * half;  // in [half, count)
  return static_cast<std::int64_t>(((sub + 1) << range) - 1);
}

void Histogram::ensure_capacity(std::size_t index) {
  if (index >= counts_.size()) counts_.resize(index + 1, 0);
}

void Histogram::record(std::int64_t value) { record_n(value, 1); }

void Histogram::record_n(std::int64_t value, std::uint64_t count) {
  if (count == 0) return;
  value = std::max<std::int64_t>(value, 0);
  const std::size_t idx = bucket_index(value);
  ensure_capacity(idx);
  counts_[idx] += count;
  total_count_ += count;
  sum_ += static_cast<double>(value) * static_cast<double>(count);
  max_value_ = std::max(max_value_, value);
  if (min_value_ < 0 || value < min_value_) min_value_ = value;
}

void Histogram::merge(const Histogram& other) {
  XS_CHECK(sub_bucket_bits_ == other.sub_bucket_bits_,
           "merged histograms must share one bucket layout");
  ensure_capacity(other.counts_.empty() ? 0 : other.counts_.size() - 1);
  for (std::size_t i = 0; i < other.counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_count_ += other.total_count_;
  sum_ += other.sum_;
  max_value_ = std::max(max_value_, other.max_value_);
  if (other.min_value_ >= 0 && (min_value_ < 0 || other.min_value_ < min_value_)) {
    min_value_ = other.min_value_;
  }
}

std::int64_t Histogram::min() const { return min_value_ < 0 ? 0 : min_value_; }

double Histogram::mean() const {
  return total_count_ == 0 ? 0.0 : sum_ / static_cast<double>(total_count_);
}

std::int64_t Histogram::value_at_quantile(double q) const {
  if (total_count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // The extremes answer exactly, not at bucket precision: q=0 is the
  // recorded minimum and q=1 the recorded maximum. Without this, q=0
  // returned the *upper* edge of the minimum's bucket — above min() by up
  // to the bucket width — which the recovery bench's across-respawn
  // comparisons would read as a phantom regression.
  if (q <= 0.0) return min();
  if (q >= 1.0) return max_value_;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_count_) + 0.5);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= target && counts_[i] > 0) {
      return std::min(bucket_upper_edge(i), max_value_);
    }
  }
  return max_value_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_count_ = 0;
  max_value_ = 0;
  min_value_ = -1;
  sum_ = 0.0;
}

std::string Histogram::summary(double divisor, std::string_view unit) const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "count=%llu mean=%.3f%.*s p50=%.3f%.*s p99=%.3f%.*s max=%.3f%.*s",
                static_cast<unsigned long long>(total_count_),
                mean() / divisor, static_cast<int>(unit.size()), unit.data(),
                static_cast<double>(percentile(50)) / divisor,
                static_cast<int>(unit.size()), unit.data(),
                static_cast<double>(percentile(99)) / divisor,
                static_cast<int>(unit.size()), unit.data(),
                static_cast<double>(max_value_) / divisor,
                static_cast<int>(unit.size()), unit.data());
  return buf;
}

}  // namespace xsearch
