// Shared ClientConfig → core::XSearchProxy::Options translation.
//
// The built-in "xsearch" mechanism and out-of-process deployments (a
// ProxyServer hosting one proxy or a fleet, as in the Figure 5 bench's TCP
// scenarios) must configure their proxies identically — one hand-maintained
// copy of this mapping per call site would silently drift as Options grows.
// This is the single source.
#pragma once

#include "api/client.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::api {

/// The exact translation the built-in "xsearch" adapter applies (including
/// seed domain separation). Whether the proxy contacts an engine is decided
/// by the engine pointer it is built with, not by the config. A fleet hands
/// the same options to every worker through net::ProxyFleet::Options::proxy.
[[nodiscard]] core::XSearchProxy::Options xsearch_proxy_options(
    const ClientConfig& config);

}  // namespace xsearch::api
