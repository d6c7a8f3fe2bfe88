// Figure 1 — CCDF of max(similarity(fakeQuery, pastQuery)).
//
// Paper claim: "almost all fake queries built by TrackMeNot and PEAS are
// original, i.e. never appear in the AOL [log]" — their maximum similarity
// to any real past query is low, which is what lets an adversary separate
// fake traffic from real traffic. X-Search's fakes, being verbatim past
// queries, sit at similarity 1.0 (extra series, not in the paper's plot).
//
// Output: one CCDF row per similarity threshold, per generator.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "attack/simattack.hpp"
#include "baselines/peas/peas.hpp"
#include "baselines/tmn/trackmenot.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "xsearch/history.hpp"
#include "xsearch/obfuscator.hpp"

namespace {

using namespace xsearch;  // NOLINT

std::vector<double> ccdf(std::vector<double> values,
                         const std::vector<double>& thresholds) {
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  out.reserve(thresholds.size());
  for (const double t : thresholds) {
    const auto it = std::upper_bound(values.begin(), values.end(), t);
    out.push_back(static_cast<double>(values.end() - it) /
                  static_cast<double>(values.size()));
  }
  return out;
}

}  // namespace

int main() {
  std::printf("# Figure 1: CCDF of max similarity between fake and real past queries\n");
  const auto bed = bench::make_testbed();
  constexpr std::size_t kFakes = 800;

  // The similarity oracle: max cosine against every training query.
  attack::SimAttack oracle(bed->split.train);
  Rng rng(42);

  // Reference queries (the real queries each fake is generated "for").
  std::vector<std::string> references;
  for (std::size_t i = 0; i < kFakes; ++i) {
    references.push_back(
        bed->split.test.records()[i * 31 % bed->split.test.size()].text);
  }

  // PEAS: co-occurrence random walks over the training log.
  baselines::peas::FakeQueryGenerator peas_gen(bed->split.train);
  std::vector<double> peas_sims;
  for (const auto& ref : references) {
    peas_sims.push_back(
        oracle.max_similarity_to_any_past_query(peas_gen.generate(ref, rng)));
  }

  // TrackMeNot: RSS-feed phrases.
  baselines::tmn::TmnGenerator tmn_gen;
  std::vector<double> tmn_sims;
  for (std::size_t i = 0; i < kFakes; ++i) {
    tmn_sims.push_back(
        oracle.max_similarity_to_any_past_query(tmn_gen.fake_query(rng)));
  }

  // X-Search: fakes are verbatim past queries from the proxy history.
  core::QueryHistory history(100'000);
  for (const auto& r : bed->split.train.records()) history.add(r.text);
  core::Obfuscator obfuscator(history, 1);
  std::vector<double> xs_sims;
  for (const auto& ref : references) {
    const auto obf = obfuscator.obfuscate(ref, rng);
    if (!obf.fakes.empty()) {
      xs_sims.push_back(oracle.max_similarity_to_any_past_query(obf.fakes[0]));
    }
  }

  std::vector<double> thresholds;
  for (int i = 0; i <= 20; ++i) thresholds.push_back(i * 0.05);
  const auto peas_ccdf = ccdf(peas_sims, thresholds);
  const auto tmn_ccdf = ccdf(tmn_sims, thresholds);
  const auto xs_ccdf = ccdf(xs_sims, thresholds);

  std::printf("%-12s %10s %10s %10s\n", "max_sim>", "PEAS", "TMN", "X-Search");
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    std::printf("%-12.2f %10.3f %10.3f %10.3f\n", thresholds[i], peas_ccdf[i],
                tmn_ccdf[i], xs_ccdf[i]);
  }

  // Headline numbers.
  const auto frac_below = [](const std::vector<double>& sims, double t) {
    std::size_t n = 0;
    for (const double s : sims) n += (s < t);
    return static_cast<double>(n) / static_cast<double>(sims.size());
  };
  std::printf("\n# fraction of fakes with max similarity < 0.95 (i.e. 'original'):\n");
  std::printf("peas_original_fraction %.3f\n", frac_below(peas_sims, 0.95));
  std::printf("tmn_original_fraction %.3f\n", frac_below(tmn_sims, 0.95));
  std::printf("xsearch_original_fraction %.3f\n", frac_below(xs_sims, 0.95));
  return 0;
}
