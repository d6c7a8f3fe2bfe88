#include "netsim/netsim.hpp"

#include <algorithm>
#include <cmath>

namespace xsearch::netsim {

Nanos LinkModel::sample(Rng& rng) const {
  const double mu = std::log(median_ms);
  double ms = std::max(rng.lognormal(mu, sigma), min_ms);
  if (congestion_probability > 0.0 && rng.bernoulli(congestion_probability)) {
    ms *= congestion_multiplier;
  }
  return static_cast<Nanos>(ms * static_cast<double>(kMilli));
}

namespace links {

LinkModel client_to_proxy() { return {.median_ms = 15.0, .sigma = 0.25, .min_ms = 4.0}; }

LinkModel proxy_to_engine() { return {.median_ms = 10.0, .sigma = 0.20, .min_ms = 3.0}; }

LinkModel engine_processing() {
  // Dominates every system's end-to-end time; Direct's median RTT in the
  // paper's Figure 7 sits near 0.5 s, p99/median ~ 1.5 (sigma ~ 0.18).
  return {.median_ms = 450.0, .sigma = 0.18, .min_ms = 120.0};
}

LinkModel tor_hop() {
  // Volunteer relays: high median, heavy tail — roughly one hop in twelve
  // lands on a congested relay. Six hop traversals plus the engine
  // reproduce the paper's 1.06 s median / ~3 s p99.
  return {.median_ms = 85.0,
          .sigma = 0.45,
          .min_ms = 15.0,
          .congestion_probability = 0.08,
          .congestion_multiplier = 6.0};
}

LinkModel client_to_engine() { return {.median_ms = 25.0, .sigma = 0.25, .min_ms = 6.0}; }

}  // namespace links

namespace wan {

Nanos sample_search_rtt(std::string_view mechanism, std::size_t k, Rng& rng) {
  const auto engine = links::engine_processing();
  // The engine evaluates the k+1 sub-queries of an OR query independently
  // (§5.3.2), so its processing share grows mildly with k.
  const auto engine_share = [&](std::size_t sub_queries) {
    const double factor = 1.0 + 0.04 * static_cast<double>(sub_queries);
    return static_cast<Nanos>(factor *
                              static_cast<double>(engine.sample(rng)));
  };

  if (mechanism == "tor") {
    // Three volunteer-relay hops each way; the exit submits the plain query.
    const auto hop = links::tor_hop();
    Nanos total = engine_share(1);
    for (int h = 0; h < 6; ++h) total += hop.sample(rng);
    return total;
  }
  if (mechanism == "peas") {
    // client -> receiver -> issuer -> engine and back: two proxy processes
    // in series before the engine.
    const auto c2p = links::client_to_proxy();
    const auto p2e = links::proxy_to_engine();
    return c2p.sample(rng) * 2 + p2e.sample(rng) * 2 + p2e.sample(rng) * 2 +
           engine_share(k + 1);
  }
  if (mechanism == "xsearch" || mechanism == "xsearch-remote") {
    // client -> cloud proxy -> engine and back; the OR query is one request.
    const auto c2p = links::client_to_proxy();
    const auto p2e = links::proxy_to_engine();
    return c2p.sample(rng) * 2 + p2e.sample(rng) * 2 + engine_share(k + 1);
  }
  // "direct", "tmn" (the user's own query) and unknown mechanisms: straight
  // to the engine. TrackMeNot's cover queries ride separate requests and do
  // not lengthen the user-perceived path.
  const auto c2e = links::client_to_engine();
  return c2e.sample(rng) * 2 + engine_share(1);
}

}  // namespace wan

void busy_wait(Nanos duration) {
  if (duration <= 0) return;
  const Nanos deadline = wall_now() + duration;
  while (wall_now() < deadline) {
    // spin — models CPU-bound packet/TLS work
  }
}

}  // namespace xsearch::netsim
