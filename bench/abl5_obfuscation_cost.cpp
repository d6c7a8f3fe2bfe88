// Ablation A5 — proxy compute cost as a function of k.
//
// Figure 5 fixes k = 3; here the pure per-request compute of the X-Search
// proxy (channel crypto + Algorithm 1 sampling + history update, no engine,
// no calibrated stack cost) is swept over k, separating the crypto floor
// from the obfuscation increment. Also reports the engine-side cost: the OR
// query grows with k, so retrieval work scales with k+1.
#include <cstdio>

#include "bench_common.hpp"
#include "common/clock.hpp"
#include "net/frame_protocol.hpp"
#include "net/remote_broker.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"

namespace {
using namespace xsearch;  // NOLINT
}

int main() {
  std::printf("# Ablation A5: per-request proxy compute vs k\n");
  const auto bed = bench::make_testbed(
      {.num_users = 100, .total_queries = 15'000, .num_documents = 6'000});
  sgx::AttestationAuthority authority(to_bytes("bench-root"));
  constexpr std::size_t kQueries = 400;

  std::printf("%-4s %18s %20s\n", "k", "proxy_only_us/query",
              "with_engine_us/query");
  for (const std::size_t k : {0u, 1u, 3u, 5u, 7u, 10u}) {
    // Proxy-only (saturation mode): crypto + obfuscation + history.
    double proxy_only_us = 0;
    {
      core::XSearchProxy::Options options;
      options.k = k;
      options.history_capacity = 100'000;
      core::XSearchProxy proxy(nullptr, authority, options);
      net::RemoteBroker broker(net::in_process_connector(proxy), authority,
                               proxy.measurement(), 1);
      for (std::size_t i = 0; i < 200; ++i) {  // warm history + caches
        (void)broker.search(bed->split.train.records()[i].text);
      }
      const Nanos t0 = wall_now();
      for (std::size_t i = 0; i < kQueries; ++i) {
        (void)broker.search(
            bed->split.test.records()[i % bed->split.test.size()].text);
      }
      proxy_only_us = static_cast<double>(wall_now() - t0) /
                      static_cast<double>(kQueries) / 1000.0;
    }

    // Full path including the (k+1)-sub-query engine retrieval + filtering.
    double with_engine_us = 0;
    {
      core::XSearchProxy::Options options;
      options.k = k;
      options.history_capacity = 100'000;
      core::XSearchProxy proxy(bed->engine.get(), authority, options);
      net::RemoteBroker broker(net::in_process_connector(proxy), authority,
                               proxy.measurement(), 2);
      for (std::size_t i = 0; i < 100; ++i) {
        (void)broker.search(bed->split.train.records()[i].text);
      }
      const Nanos t0 = wall_now();
      for (std::size_t i = 0; i < kQueries; ++i) {
        (void)broker.search(
            bed->split.test.records()[i % bed->split.test.size()].text);
      }
      with_engine_us = static_cast<double>(wall_now() - t0) /
                       static_cast<double>(kQueries) / 1000.0;
    }

    std::printf("%-4zu %18.1f %20.1f\n", k, proxy_only_us, with_engine_us);
  }
  std::printf("\n# expectation: proxy-only cost is nearly flat in k (sampling is\n");
  std::printf("# O(k) on tiny strings); engine+filter cost grows ~linearly with k+1\n");
  return 0;
}
