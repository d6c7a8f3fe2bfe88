// One metrics registry for every layer (ARCHITECTURE.md, "Metrics").
//
// A layer declares each counter once, as a reference into the registry it
// owns, resolved at construction:
//
//     metrics::Registry metrics_{"reactor"};
//     metrics::Counter& accepted_ = metrics_.counter("accepted");
//
// The hot path touches only that reference: a relaxed atomic add, no lock,
// lookup or string work. Reading is the cold path: `snapshot()` copies
// every series, and composite objects merge their parts' snapshots,
// labelling parts that repeat. Layers, names and label values are string
// literals (secret_lint rule `metric-name-literal`), so no session id or
// query text can become a series.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace xsearch::metrics {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Level that moves both ways (live connections, a breaker's state).
class Gauge {
 public:
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::uint64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if it is lower (a high-water mark).
  void raise_to(std::uint64_t v) {
    std::uint64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < v &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One series at snapshot time.
struct Series {
  std::string name;    // "<layer>.<metric>"
  std::string labels;  // `key="value"` pairs, comma-separated; "" when none
  std::uint64_t value = 0;

  friend bool operator==(const Series&, const Series&) = default;
};

/// The label text `Snapshot::merge` attaches: key="value".
[[nodiscard]] std::string label(std::string_view key, std::string_view value);

/// A point-in-time copy of one or more registries, sorted by (name,
/// labels) so equal states always list and compare the same.
class Snapshot {
 public:
  /// Folds `part`'s series in; with a `key`, each of them gains the label
  /// key="value" in front of any it already carries.
  void merge(const Snapshot& part, std::string_view key = {},
             std::string_view value = {});

  /// The series' value. Aborts with the name when there is no such series:
  /// a misspelled name is a programming error and must not read as zero.
  [[nodiscard]] std::uint64_t value(std::string_view name,
                                    std::string_view labels = {}) const;
  /// Sum of `name` over every label set (0 when no part reports it).
  [[nodiscard]] std::uint64_t sum(std::string_view name) const;

  [[nodiscard]] const std::vector<Series>& series() const { return series_; }

 private:
  friend class Registry;
  void sort();

  std::vector<Series> series_;
};

/// The series of one layer. Declare them during construction only (as
/// default member initializers); the set is fixed afterwards, so
/// `snapshot()` may run concurrently with updates.
class Registry {
 public:
  explicit Registry(std::string_view layer) : layer_(layer) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Declares a series; the reference stays valid for the registry's life.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  template <typename Metric>
  struct Named {
    std::string name;
    Metric metric;
  };

  std::string layer_;
  // deque: emplace_back never moves existing elements, so handed-out
  // references stay valid.
  std::deque<Named<Counter>> counters_;
  std::deque<Named<Gauge>> gauges_;
};

}  // namespace xsearch::metrics
