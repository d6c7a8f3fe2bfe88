// Multinomial Naive Bayes re-identification attack.
//
// The paper's §5.3.1 justifies using SimAttack because it "has been shown
// to outperform previous attacks including a machine learning attack
// presented in [30]" (Peddinti & Saxena). This module implements that
// baseline class of attack — a multinomial Naive Bayes classifier over
// query terms, the standard ML approach for user re-identification from
// search logs — so the claim is checkable (bench/abl6_attack_comparison).
//
// Model: P(user | query) ∝ P(user) · Π_w P(w | user), with Laplace
// smoothing over the training vocabulary.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dataset/query_log.hpp"
#include "text/vocabulary.hpp"

namespace xsearch::attack {

struct NaiveBayesConfig {
  double laplace_alpha = 0.1;  // additive smoothing
};

class NaiveBayesAttack {
 public:
  explicit NaiveBayesAttack(const dataset::QueryLog& training_log,
                            NaiveBayesConfig config = {});

  /// Log-posterior (up to a constant) of `user` given `query`.
  [[nodiscard]] double log_score(std::string_view query, dataset::UserId user) const;

  struct Identification {
    dataset::UserId user = 0;
    std::string query;
    double log_score = 0.0;
  };

  /// Attacks a protected query: picks the (sub-query, user) pair with the
  /// highest posterior. Sub-queries with no known terms are skipped; if
  /// none qualify (or the maximum is ambiguous) the attack fails.
  [[nodiscard]] std::optional<Identification> attack(
      const std::vector<std::string>& sub_queries) const;

 private:
  struct UserModel {
    std::unordered_map<text::TermId, std::uint64_t> term_counts;
    std::uint64_t total_terms = 0;
    std::uint64_t query_count = 0;
    double log_prior = 0.0;
  };

  NaiveBayesConfig config_;
  text::Vocabulary vocab_;
  std::vector<dataset::UserId> users_;
  std::unordered_map<dataset::UserId, UserModel> models_;
};

}  // namespace xsearch::attack
