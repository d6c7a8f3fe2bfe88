// Shared ClientConfig → core::XSearchProxy::Options translation.
//
// The built-in "xsearch" mechanism and out-of-process deployments (a
// ProxyServer hosting one proxy or a fleet, as in the Figure 5 bench's TCP
// scenarios) must configure their proxies identically — one hand-maintained
// copy of this mapping per call site would silently drift as Options grows.
// This is the single source.
#pragma once

#include "api/client.hpp"
#include "net/fleet_supervisor.hpp"
#include "net/remote_broker.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::api {

/// The exact translation the built-in "xsearch" adapter applies (including
/// seed domain separation). `contact_engine` follows the config; callers
/// deploying without an engine must also clear it there. A fleet hands the
/// same options to every worker through net::ProxyFleet::Options::proxy.
[[nodiscard]] core::XSearchProxy::Options xsearch_proxy_options(
    const ClientConfig& config);

/// ClientConfig::recovery → net::FleetSupervisor::Options, so a deployment
/// configures probing and checkpointing from the one RecoveryConfig.
[[nodiscard]] net::FleetSupervisor::Options supervisor_options(
    const ClientConfig& config);

/// ClientConfig::robustness → net::RemoteBroker::Options (deadlines and
/// budgeted retries). Both X-Search clients apply this per broker.
[[nodiscard]] net::RemoteBroker::Options remote_broker_options(
    const ClientConfig& config);

}  // namespace xsearch::api
