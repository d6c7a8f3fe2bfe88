#include "dataset/query_log.hpp"

#include <algorithm>

namespace xsearch::dataset {

namespace {
bool record_order(const QueryRecord& a, const QueryRecord& b) {
  if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
  return a.user < b.user;
}
}  // namespace

QueryLog::QueryLog(std::vector<QueryRecord> records) : records_(std::move(records)) {
  std::stable_sort(records_.begin(), records_.end(), record_order);
  for (const auto& r : records_) ++per_user_count_[r.user];
}

std::vector<UserId> QueryLog::users() const {
  std::vector<UserId> ids;
  ids.reserve(per_user_count_.size());
  for (const auto& [user, _] : per_user_count_) ids.push_back(user);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t QueryLog::user_query_count(UserId user) const {
  const auto it = per_user_count_.find(user);
  return it == per_user_count_.end() ? 0 : it->second;
}

std::vector<std::string> QueryLog::queries_of(UserId user) const {
  std::vector<std::string> out;
  for (const auto& r : records_) {
    if (r.user == user) out.push_back(r.text);
  }
  return out;
}

void QueryLog::append(QueryRecord record) {
  ++per_user_count_[record.user];
  if (!records_.empty() && record_order(record, records_.back())) {
    records_.push_back(std::move(record));
    std::stable_sort(records_.begin(), records_.end(), record_order);
  } else {
    records_.push_back(std::move(record));
  }
}

std::vector<UserId> QueryLog::most_active_users(std::size_t n) const {
  std::vector<std::pair<UserId, std::size_t>> counts(per_user_count_.begin(),
                                                     per_user_count_.end());
  std::sort(counts.begin(), counts.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  std::vector<UserId> out;
  out.reserve(std::min(n, counts.size()));
  for (std::size_t i = 0; i < counts.size() && i < n; ++i) out.push_back(counts[i].first);
  return out;
}

QueryLog QueryLog::filter_users(const std::vector<UserId>& keep) const {
  const std::unordered_map<UserId, bool> keep_set = [&] {
    std::unordered_map<UserId, bool> s;
    for (const UserId u : keep) s[u] = true;
    return s;
  }();
  std::vector<QueryRecord> out;
  for (const auto& r : records_) {
    if (keep_set.contains(r.user)) out.push_back(r);
  }
  return QueryLog(std::move(out));
}

TrainTestSplit split_per_user(const QueryLog& log, double train_fraction) {
  std::unordered_map<UserId, std::size_t> total;
  for (const auto& r : log.records()) ++total[r.user];

  std::unordered_map<UserId, std::size_t> taken;
  std::vector<QueryRecord> train, test;
  for (const auto& r : log.records()) {
    const auto cutoff = static_cast<std::size_t>(
        static_cast<double>(total[r.user]) * train_fraction);
    if (taken[r.user] < cutoff) {
      train.push_back(r);
      ++taken[r.user];
    } else {
      test.push_back(r);
    }
  }
  return TrainTestSplit{QueryLog(std::move(train)), QueryLog(std::move(test))};
}

}  // namespace xsearch::dataset
