// Ablation A3 — enclave interface granularity.
//
// §5.3.3: "to avoid unnecessary and costly mode transitions, we limit the
// enclave interface to allow only essential operations". This bench
// quantifies that design choice: it runs real queries through the proxy,
// counts the actual boundary crossings of the narrow interface (1 ecall +
// 4 ocalls per query), contrasts them with a hypothetical chatty interface
// that crosses once per pipeline step (decrypt, k samples, store, send,
// recv, filter, encrypt), and prices both with the canonical ~8 us
// SGX transition cost from the literature.
#include <cstdio>

#include "bench_common.hpp"
#include "common/clock.hpp"
#include "net/frame_protocol.hpp"
#include "net/remote_broker.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"

namespace {
using namespace xsearch;  // NOLINT

constexpr double kTransitionMicros = 8.0;  // EENTER/EEXIT + TLB flush, lit. value
}

int main() {
  std::printf("# Ablation A3: enclave transition cost, narrow vs chatty interface\n");
  const auto bed = bench::make_testbed(
      {.num_users = 100, .total_queries = 10'000, .num_documents = 3'000});

  sgx::AttestationAuthority authority(to_bytes("bench-root"));
  core::XSearchProxy::Options options;
  options.k = 3;
  options.history_capacity = 100'000;
  core::XSearchProxy proxy(bed->engine.get(), authority, options);
  net::RemoteBroker broker(net::in_process_connector(proxy), authority,
                           proxy.measurement(), 5);

  constexpr std::size_t kQueries = 300;
  const auto before = proxy.enclave().transition_stats();
  const Nanos t0 = wall_now();
  for (std::size_t i = 0; i < kQueries; ++i) {
    (void)broker.search(bed->split.test.records()[i % bed->split.test.size()].text);
  }
  const Nanos elapsed = wall_now() - t0;
  const auto after = proxy.enclave().transition_stats();

  const double crossings_narrow =
      static_cast<double>((after.ecalls - before.ecalls) +
                          (after.ocalls - before.ocalls)) /
      static_cast<double>(kQueries);
  // Chatty design: one crossing per pipeline step.
  const double crossings_chatty = 1 /*decrypt*/ + static_cast<double>(options.k) /*samples*/ +
                                  1 /*store*/ + 1 /*send*/ + 1 /*recv*/ +
                                  1 /*filter*/ + 1 /*encrypt*/;

  const double per_query_us =
      static_cast<double>(elapsed) / static_cast<double>(kQueries) / 1000.0;
  const double narrow_overhead_us = crossings_narrow * kTransitionMicros;
  const double chatty_overhead_us = crossings_chatty * kTransitionMicros;

  std::printf("queries                       %zu\n", kQueries);
  std::printf("crossings/query (narrow)      %.1f\n", crossings_narrow);
  std::printf("crossings/query (chatty)      %.1f\n", crossings_chatty);
  std::printf("proxy compute/query           %.1f us\n", per_query_us);
  std::printf("transition overhead (narrow)  %.1f us (%.1f%% of compute)\n",
              narrow_overhead_us, 100.0 * narrow_overhead_us / per_query_us);
  std::printf("transition overhead (chatty)  %.1f us (%.1f%% of compute)\n",
              chatty_overhead_us, 100.0 * chatty_overhead_us / per_query_us);
  std::printf("chatty/narrow overhead ratio  %.2fx\n",
              chatty_overhead_us / narrow_overhead_us);
  std::printf("\n# expectation: the narrow interface crosses ~5x/query; a chatty\n");
  std::printf("# one would nearly double per-query SGX overhead at k=3\n");
  return 0;
}
