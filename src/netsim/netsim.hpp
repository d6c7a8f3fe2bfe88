// Wide-area network latency models and a CPU spin helper.
//
// The paper's Figure 7 includes components that were measured on live
// networks (the Tor overlay in May 2017, Bing's serving latency). Those are
// not reproducible computationally, so this module provides explicitly
// *calibrated* stochastic models — log-normal link latencies whose medians
// match the medians the paper reports — for the WAN hops and the engine's
// serving time, while all computational costs (crypto, obfuscation,
// filtering, index lookups) are really executed by the benches.
// `busy_wait` spins the calling thread for a given time; benches use it to
// charge a cost that nothing in this repo executes.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/clock.hpp"
#include "common/rng.hpp"

namespace xsearch::netsim {

/// Log-normal one-way link latency with an optional congestion mixture
/// (heavy tail from occasionally overloaded links — pronounced on the
/// volunteer Tor relays). `sample()` returns nanoseconds.
struct LinkModel {
  double median_ms = 1.0;  // exp(mu) of the log-normal
  double sigma = 0.25;     // log-space standard deviation
  double min_ms = 0.1;     // physical floor (propagation delay)
  double congestion_probability = 0.0;  // chance a sample hits congestion
  double congestion_multiplier = 1.0;   // slowdown factor when it does

  [[nodiscard]] Nanos sample(Rng& rng) const;
};

/// Calibrated links (medians chosen to land on the paper's §6.3 numbers).
namespace links {

/// Client -> cloud-hosted proxy (same-continent WAN).
[[nodiscard]] LinkModel client_to_proxy();

/// Cloud proxy -> search engine frontend (datacenter peering).
[[nodiscard]] LinkModel proxy_to_engine();

/// Search-engine request processing + result transfer. This dominates the
/// end-to-end time of every system (Direct's median sits near 0.5 s).
[[nodiscard]] LinkModel engine_processing();

/// One hop of the volunteer Tor overlay: high median, heavy tail
/// (bandwidth-limited relays). Three hops each way plus exit->engine gave
/// the paper a 1.06 s median / ~3 s p99 search RTT.
[[nodiscard]] LinkModel tor_hop();

/// Client -> engine direct path.
[[nodiscard]] LinkModel client_to_engine();

}  // namespace links

/// WAN path composition by mechanism name, for user-perceived end-to-end
/// figures (Figure 7). The compute share of each request is *measured* by
/// the benches; only the wide-area hops and the engine's serving time are
/// modelled here.
namespace wan {
/// One query's WAN round trip for `mechanism` ("direct", "tmn", "tor",
/// "peas", "xsearch"), excluding client/proxy compute: every hop of the
/// mechanism's path plus the engine's processing share, which grows mildly
/// with the k+1 sub-queries of an OR query (§5.3.2 methodology).
[[nodiscard]] Nanos sample_search_rtt(std::string_view mechanism, std::size_t k,
                                      Rng& rng);
}  // namespace wan

/// Busy-waits for `duration` (coarse; burns CPU like real packet work).
void busy_wait(Nanos duration);

}  // namespace xsearch::netsim
