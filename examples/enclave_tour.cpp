// Enclave tour: the simulated SGX substrate, piece by piece.
//
// Walks through the runtime guarantees the X-Search design leans on:
// measurements, attestation (accepting a genuine enclave, rejecting a
// trojan), sealing, EPC metering with page-fault simulation, and the
// ecall/ocall transition counters behind the paper's narrow-interface
// design rule.
//
// Run: ./build/examples/enclave_tour
#include <cstdio>

#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"
#include "sgx/epc.hpp"

using namespace xsearch;  // NOLINT

int main() {
  // --- Measurements ------------------------------------------------------------
  sgx::EnclaveRuntime genuine({.code_identity = to_bytes("xsearch-proxy v1")});
  sgx::EnclaveRuntime trojan({.code_identity = to_bytes("xsearch-proxy v1, plus a backdoor")});
  std::printf("genuine measurement: %s...\n",
              hex_encode(ByteSpan(genuine.measurement().data(), 12)).c_str());
  std::printf("trojan  measurement: %s...\n\n",
              hex_encode(ByteSpan(trojan.measurement().data(), 12)).c_str());

  // --- Attestation ----------------------------------------------------------------
  sgx::AttestationAuthority intel(to_bytes("epid-group-root-key"));
  const auto genuine_quote = intel.issue(genuine.measurement(), to_bytes("chan-key"));
  const auto trojan_quote = intel.issue(trojan.measurement(), to_bytes("chan-key"));
  std::printf("client verifies genuine enclave: %s\n",
              intel.verify_enclave(genuine_quote, genuine.measurement())
                  .to_string().c_str());
  std::printf("client verifies trojan enclave:  %s\n\n",
              intel.verify_enclave(trojan_quote, genuine.measurement())
                  .to_string().c_str());

  // --- Sealing ----------------------------------------------------------------------
  const Bytes sealed = genuine.seal(to_bytes("query table checkpoint"));
  std::printf("sealed blob (%zu bytes) unseals in same-code enclave: %s\n", sealed.size(),
              genuine.unseal(sealed).is_ok() ? "yes" : "no");
  std::printf("same blob in different-code enclave:                 %s\n\n",
              trojan.unseal(sealed).is_ok() ? "yes (BUG)" : "refused");

  // --- EPC metering --------------------------------------------------------------------
  sgx::EpcAccountant epc(/*usable_bytes=*/64 * 1024);
  epc.charge(60 * 1024);
  std::printf("EPC: %zu/%zu bytes used, page faults so far: %llu\n", epc.in_use(),
              epc.limit(), static_cast<unsigned long long>(epc.page_faults()));
  epc.charge(20 * 1024);  // cross the limit -> paging
  std::printf("EPC after exceeding the limit: over=%s page_faults=%llu\n\n",
              epc.over_limit() ? "yes" : "no",
              static_cast<unsigned long long>(epc.page_faults()));

  // --- Boundary transitions ----------------------------------------------------------
  // The boundary is *typed*: handlers key on the EcallId/OcallId enums of
  // sgx/boundary.hpp, so dispatch is an array index and an unknown name is
  // unrepresentable at a call site.
  genuine.register_ocall(sgx::OcallId::kSend,
                         [](ByteSpan) -> Result<Bytes> { return Bytes{}; });
  genuine.register_ecall(sgx::EcallId::kRequest,
                         [&genuine](ByteSpan in) -> Result<Bytes> {
    (void)genuine.ocall(sgx::OcallId::kSend, in);  // trusted code calling out
    return Bytes{};
  });
  for (int i = 0; i < 5; ++i) {
    (void)genuine.ecall(sgx::EcallId::kRequest, to_bytes("x"));
  }
  const auto stats = genuine.transition_stats();
  std::printf("after 5 requests: %llu ecalls, %llu ocalls — every crossing costs\n"
              "~8us on hardware, which is why X-Search keeps the interface narrow.\n",
              static_cast<unsigned long long>(stats.ecalls),
              static_cast<unsigned long long>(stats.ocalls));

  return 0;
}
