// Shared ClientConfig → core::XSearchProxy::Options translation.
//
// The built-in "xsearch" mechanism and out-of-process deployments (the
// fig5 `xsearch-remote` bench's ProxyServer) must configure their proxies
// identically — one hand-maintained copy of this mapping per call site
// would silently drift as Options grows. This is the single source.
#pragma once

#include "api/client.hpp"
#include "net/fleet_supervisor.hpp"
#include "net/proxy_fleet.hpp"
#include "net/remote_broker.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::api {

/// The exact translation the built-in "xsearch" adapter applies (including
/// seed domain separation). `contact_engine` follows the config; callers
/// deploying without an engine must also clear it there.
[[nodiscard]] core::XSearchProxy::Options xsearch_proxy_options(
    const ClientConfig& config);

/// Scale-out knobs of a proxy-fleet deployment, layered over ClientConfig
/// the same way the single-proxy options are.
struct FleetConfig {
  /// Proxy workers behind the consistent-hash router.
  std::size_t workers = 2;
  /// Virtual nodes per worker on the hash ring.
  std::size_t virtual_nodes = 64;
};

/// ClientConfig + FleetConfig → net::ProxyFleet::Options, through the same
/// per-proxy translation as `xsearch_proxy_options` so fleet workers and a
/// standalone proxy are configured identically (including
/// ClientConfig::recovery — the fleet hands each worker its own checkpoint
/// subdirectory).
[[nodiscard]] net::ProxyFleet::Options fleet_options(const ClientConfig& config,
                                                     const FleetConfig& fleet);

/// ClientConfig::recovery → net::FleetSupervisor::Options, so a deployment
/// configures probing and checkpointing from the one RecoveryConfig.
[[nodiscard]] net::FleetSupervisor::Options supervisor_options(
    const ClientConfig& config);

/// ClientConfig::robustness → net::RemoteBroker::Options (deadlines,
/// budgeted retries, client-side breaker). Both X-Search clients apply
/// this per broker.
[[nodiscard]] net::RemoteBroker::Options remote_broker_options(
    const ClientConfig& config);

}  // namespace xsearch::api
