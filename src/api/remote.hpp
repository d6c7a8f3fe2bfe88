// PrivateSearchClient over a networked X-Search deployment.
//
// Wraps net::RemoteBroker — the per-user local daemon of §4.2 speaking the
// framed TCP protocol to a ProxyServer — in the unified client API, so a
// workload written against PrivateSearchClient runs unchanged against an
// in-process proxy or a remote one. The "xsearch" mechanism is the same
// adapter with an in-process connector: transport is the only difference.
#pragma once

#include <cstdint>
#include <string>

#include "api/client.hpp"
#include "sgx/attestation.hpp"

namespace xsearch::api {

/// Builds a client whose searches travel over TCP to the ProxyServer at
/// `host:port`. `authority`/`expected_measurement` gate attestation exactly
/// as for the in-process client; both must outlive the client. Sessions
/// (including siblings) each open their own connection.
[[nodiscard]] ClientPtr make_remote_client(
    std::string host, std::uint16_t port,
    const sgx::AttestationAuthority& authority,
    const sgx::Measurement& expected_measurement, const ClientConfig& config);

}  // namespace xsearch::api
