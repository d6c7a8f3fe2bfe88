// Query-log data model.
//
// The paper evaluates on the AOL 2006 log (21M queries / 650k users over
// three months). That dataset is not redistributable, so the reproduction
// works against any QueryLog — including the synthetic AOL-like log
// produced by dataset/synthetic.hpp — and provides the §5.1 methodology
// operations: per-user train/test splitting and most-active-user selection.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>


namespace xsearch::dataset {

using UserId = std::uint32_t;

/// One search query issued by one user at one time.
struct QueryRecord {
  UserId user = 0;
  std::int64_t timestamp = 0;  // seconds since the log's epoch
  std::string text;

  friend bool operator==(const QueryRecord&, const QueryRecord&) = default;
};

/// An ordered collection of query records (by timestamp, ties by user).
class QueryLog {
 public:
  QueryLog() = default;
  explicit QueryLog(std::vector<QueryRecord> records);

  [[nodiscard]] const std::vector<QueryRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  /// Distinct users, ascending.
  [[nodiscard]] std::vector<UserId> users() const;

  /// Number of queries issued by `user`.
  [[nodiscard]] std::size_t user_query_count(UserId user) const;

  /// All query texts of one user, in time order.
  [[nodiscard]] std::vector<std::string> queries_of(UserId user) const;

  /// Appends a record, keeping timestamp order (amortized O(1) when records
  /// arrive in order).
  void append(QueryRecord record);

  /// The `n` users with the most queries, most active first.
  [[nodiscard]] std::vector<UserId> most_active_users(std::size_t n) const;

  /// Sub-log containing only the given users.
  [[nodiscard]] QueryLog filter_users(const std::vector<UserId>& keep) const;

 private:
  std::vector<QueryRecord> records_;
  std::unordered_map<UserId, std::size_t> per_user_count_;
};

/// Train/test partition of a log.
struct TrainTestSplit {
  QueryLog train;
  QueryLog test;
};

/// Splits each user's queries chronologically: the first `train_fraction`
/// go to training (the adversary's preliminary knowledge, §3), the rest to
/// test. Matches the paper's 2/3 - 1/3 methodology (§5.1).
[[nodiscard]] TrainTestSplit split_per_user(const QueryLog& log, double train_fraction);

}  // namespace xsearch::dataset
