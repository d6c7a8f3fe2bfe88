#include "common/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <tuple>
#include <utility>

namespace xsearch::metrics {

std::string label(std::string_view key, std::string_view value) {
  return std::string(key) + "=\"" + std::string(value) + "\"";
}

void Snapshot::sort() {
  std::sort(series_.begin(), series_.end(), [](const Series& a, const Series& b) {
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
  });
}

void Snapshot::merge(const Snapshot& part, std::string_view key,
                     std::string_view value) {
  const std::string prefix = key.empty() ? "" : label(key, value);
  for (Series s : part.series_) {
    if (!prefix.empty()) {
      s.labels = s.labels.empty() ? prefix : prefix + "," + s.labels;
    }
    series_.push_back(std::move(s));
  }
  sort();
}

std::uint64_t Snapshot::value(std::string_view name, std::string_view labels) const {
  for (const Series& s : series_) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  std::fprintf(stderr, "metrics: no series %.*s{%.*s}\n", static_cast<int>(name.size()),
               name.data(), static_cast<int>(labels.size()), labels.data());
  std::abort();
}

std::uint64_t Snapshot::sum(std::string_view name) const {
  std::uint64_t total = 0;
  for (const Series& s : series_) {
    if (s.name == name) total += s.value;
  }
  return total;
}

Counter& Registry::counter(std::string_view name) {
  auto& entry = counters_.emplace_back();
  entry.name = layer_ + "." + std::string(name);
  return entry.metric;
}

Gauge& Registry::gauge(std::string_view name) {
  auto& entry = gauges_.emplace_back();
  entry.name = layer_ + "." + std::string(name);
  return entry.metric;
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  for (const auto& c : counters_) out.series_.push_back({c.name, "", c.metric.value()});
  for (const auto& g : gauges_) out.series_.push_back({g.name, "", g.metric.value()});
  out.sort();
  return out;
}

}  // namespace xsearch::metrics
