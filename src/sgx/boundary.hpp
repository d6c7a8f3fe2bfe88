// The typed enclave-boundary table.
//
// The paper's design rule is a deliberately *narrow* interface: 2 ecalls in,
// 4 ocalls out (§5.3.3). This header pins that surface as enums with a
// compile-time-sized name table, so:
//
//  * dispatch is an array index, not a string hash;
//  * the surface cannot drift silently: tools/tcb_lint.py cross-checks the
//    name arrays below against the pinned lists in tools/tcb_boundary.toml,
//    and adding an enumerator without updating the toml fails CI;
//  * call sites read as what they are (`ecall(EcallId::kRequest, ...)`),
//    and an id outside the table is unrepresentable rather than NOT_FOUND
//    at runtime.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace xsearch::sgx {

/// Trusted entry points reachable from the untrusted host.
enum class EcallId : std::uint8_t {
  kInit = 0,     // one-time enclave state bootstrap (+ checkpoint restore)
  kRequest = 1,  // tagged request mux: handshake/query/heartbeat/checkpoint
};

/// Untrusted host services the enclave may call out to.
enum class OcallId : std::uint8_t {
  kSockConnect = 0,
  kSend = 1,
  kRecv = 2,
  kClose = 3,
};

inline constexpr std::size_t kEcallCount = 2;
inline constexpr std::size_t kOcallCount = 4;

/// Wire/debug names, indexed by enumerator value. Must match [boundary] in
/// tools/tcb_boundary.toml entry-for-entry (tcb_lint.py enforces this).
inline constexpr std::array<std::string_view, kEcallCount> kEcallNames = {
    "init", "request"};
inline constexpr std::array<std::string_view, kOcallCount> kOcallNames = {
    "sock_connect", "send", "recv", "close"};

[[nodiscard]] constexpr std::size_t index_of(EcallId id) {
  return static_cast<std::size_t>(id);
}
[[nodiscard]] constexpr std::size_t index_of(OcallId id) {
  return static_cast<std::size_t>(id);
}

[[nodiscard]] constexpr std::string_view ecall_name(EcallId id) {
  return kEcallNames[index_of(id)];
}
[[nodiscard]] constexpr std::string_view ocall_name(OcallId id) {
  return kOcallNames[index_of(id)];
}

}  // namespace xsearch::sgx
