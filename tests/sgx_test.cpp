#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"
#include "sgx/epc.hpp"

namespace xsearch::sgx {
namespace {

// ---- EPC accounting ---------------------------------------------------------

TEST(Epc, ChargeAndRelease) {
  EpcAccountant epc(1024);
  epc.charge(100);
  EXPECT_EQ(epc.in_use(), 100u);
  epc.release(40);
  EXPECT_EQ(epc.in_use(), 60u);
}

TEST(Epc, PeakTracksHighWaterMark) {
  EpcAccountant epc(1 << 20);
  epc.charge(500);
  epc.release(400);
  epc.charge(100);
  EXPECT_EQ(epc.peak(), 500u);
}

TEST(Epc, OverReleaseClampsAtZero) {
  EpcAccountant epc(1024);
  epc.charge(10);
  epc.release(100);
  EXPECT_EQ(epc.in_use(), 0u);
}

TEST(Epc, NoFaultsUnderLimit) {
  EpcAccountant epc(1 << 20);
  epc.charge((1 << 20) - 1);
  EXPECT_FALSE(epc.over_limit());
  EXPECT_EQ(epc.page_faults(), 0u);
}

TEST(Epc, FaultsWhenExceedingLimit) {
  EpcAccountant epc(kEpcPageSize * 10);
  epc.charge(kEpcPageSize * 10);
  EXPECT_EQ(epc.page_faults(), 0u);
  epc.charge(kEpcPageSize * 3);  // three pages beyond
  EXPECT_TRUE(epc.over_limit());
  EXPECT_EQ(epc.page_faults(), 3u);
}

TEST(Epc, PartialPageBeyondLimitCountsOneFault) {
  EpcAccountant epc(kEpcPageSize);
  epc.charge(kEpcPageSize + 1);
  EXPECT_EQ(epc.page_faults(), 1u);
}

TEST(Epc, ConcurrentChargesConsistent) {
  EpcAccountant epc(std::size_t{1} << 30);
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&epc] {
      for (int i = 0; i < kIters; ++i) {
        epc.charge(16);
        epc.release(16);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(epc.in_use(), 0u);
}

TEST(Epc, DefaultLimitIs90MiB) {
  EpcAccountant epc;
  EXPECT_EQ(epc.limit(), 90ull * 1024 * 1024);
}

// ---- Enclave runtime ---------------------------------------------------------

EnclaveRuntime::Config test_config(std::string identity = "enclave-code-v1") {
  EnclaveRuntime::Config config;
  config.code_identity = to_bytes(identity);
  return config;
}

TEST(Enclave, MeasurementIsCodeHash) {
  EnclaveRuntime a(test_config());
  EnclaveRuntime b(test_config());
  EnclaveRuntime c(test_config("different-code"));
  EXPECT_EQ(a.measurement(), b.measurement());
  EXPECT_NE(a.measurement(), c.measurement());
}

TEST(Enclave, EcallDispatchAndCount) {
  EnclaveRuntime enclave(test_config());
  enclave.register_ecall(EcallId::kRequest, [](ByteSpan in) -> Result<Bytes> {
    return Bytes(in.begin(), in.end());
  });
  const auto out = enclave.ecall(EcallId::kRequest, to_bytes("ping"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(to_string(out.value()), "ping");
  EXPECT_EQ(enclave.transition_stats().ecalls, 1u);
  EXPECT_EQ(enclave.transition_stats().ocalls, 0u);
}

TEST(Enclave, UnregisteredEcallFails) {
  // The typed table makes unknown *names* unrepresentable; an id whose slot
  // was never registered still fails closed.
  EnclaveRuntime enclave(test_config());
  const auto status = enclave.ecall(EcallId::kInit, {}).status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("init"), std::string::npos);
}

TEST(Enclave, OcallDispatchAndCount) {
  EnclaveRuntime enclave(test_config());
  enclave.register_ocall(OcallId::kSend, [](ByteSpan in) -> Result<Bytes> {
    Bytes out(in.begin(), in.end());
    for (auto& b : out) b = static_cast<std::uint8_t>(b + 1);
    return out;
  });
  const auto out = enclave.ocall(OcallId::kSend, Bytes{1, 2});
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value(), (Bytes{2, 3}));
  EXPECT_EQ(enclave.transition_stats().ocalls, 1u);
}

TEST(Enclave, UnregisteredOcallFails) {
  EnclaveRuntime enclave(test_config());
  EXPECT_EQ(enclave.ocall(OcallId::kClose, {}).status().code(),
            StatusCode::kNotFound);
}

TEST(Enclave, NestedOcallFromEcall) {
  EnclaveRuntime enclave(test_config());
  enclave.register_ocall(OcallId::kRecv, [](ByteSpan) -> Result<Bytes> {
    return to_bytes("host-data");
  });
  enclave.register_ecall(EcallId::kRequest, [&enclave](ByteSpan) -> Result<Bytes> {
    return enclave.ocall(OcallId::kRecv, {});
  });
  const auto out = enclave.ecall(EcallId::kRequest, {});
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(to_string(out.value()), "host-data");
  EXPECT_EQ(enclave.transition_stats().ecalls, 1u);
  EXPECT_EQ(enclave.transition_stats().ocalls, 1u);
}

TEST(Enclave, BoundaryNameTableMatchesEnums) {
  // The pinned name surface (tools/tcb_boundary.toml) maps 1:1 to the
  // enums; spot-check the accessors the lint and wire paths rely on.
  EXPECT_EQ(ecall_name(EcallId::kInit), "init");
  EXPECT_EQ(ecall_name(EcallId::kRequest), "request");
  EXPECT_EQ(ocall_name(OcallId::kSockConnect), "sock_connect");
  EXPECT_EQ(ocall_name(OcallId::kSend), "send");
  EXPECT_EQ(ocall_name(OcallId::kRecv), "recv");
  EXPECT_EQ(ocall_name(OcallId::kClose), "close");
  EXPECT_EQ(kEcallCount, 2u);  // the paper's narrow surface (§5.3.3)
  EXPECT_EQ(kOcallCount, 4u);
  EXPECT_EQ(kEcallNames.size(), kEcallCount);
  EXPECT_EQ(kOcallNames.size(), kOcallCount);
}

TEST(Enclave, SealUnsealRoundTrip) {
  EnclaveRuntime enclave(test_config());
  const Bytes secret = to_bytes("the user searched for chronic pain");
  const Bytes sealed = enclave.seal(secret);
  EXPECT_NE(sealed, secret);
  const auto opened = enclave.unseal(sealed);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value(), secret);
}

TEST(Enclave, SealedBlobsDifferAcrossCalls) {
  EnclaveRuntime enclave(test_config());
  EXPECT_NE(enclave.seal(to_bytes("x")), enclave.seal(to_bytes("x")));
}

TEST(Enclave, UnsealAcrossSameMeasurement) {
  EnclaveRuntime a(test_config());
  EnclaveRuntime b(test_config());
  const Bytes sealed = a.seal(to_bytes("shared state"));
  EXPECT_TRUE(b.unseal(sealed).is_ok());  // same code identity
}

TEST(Enclave, UnsealRejectsDifferentMeasurement) {
  EnclaveRuntime a(test_config());
  EnclaveRuntime c(test_config("different-code"));
  const Bytes sealed = a.seal(to_bytes("secret"));
  EXPECT_FALSE(c.unseal(sealed).is_ok());
}

TEST(Enclave, UnsealRejectsTampering) {
  EnclaveRuntime enclave(test_config());
  Bytes sealed = enclave.seal(to_bytes("secret"));
  sealed[sealed.size() / 2] ^= 1;
  EXPECT_FALSE(enclave.unseal(sealed).is_ok());
}

TEST(Enclave, UnsealRejectsTruncation) {
  EnclaveRuntime enclave(test_config());
  EXPECT_FALSE(enclave.unseal(Bytes{1, 2, 3}).is_ok());
}

TEST(EnclaveAllocator, MetersVectors) {
  EpcAccountant epc(1 << 20);
  {
    std::vector<int, EnclaveAllocator<int>> v{EnclaveAllocator<int>(&epc)};
    v.reserve(1000);
    EXPECT_GE(epc.in_use(), 1000 * sizeof(int));
  }
  EXPECT_EQ(epc.in_use(), 0u);
}

// ---- Attestation --------------------------------------------------------------

TEST(Attestation, IssueAndVerify) {
  AttestationAuthority authority(to_bytes("intel-root-key"));
  EnclaveRuntime enclave(test_config());
  const Quote quote = authority.issue(enclave.measurement(), to_bytes("report"));
  EXPECT_TRUE(authority.verify(quote));
}

TEST(Attestation, ForgedQuoteRejected) {
  AttestationAuthority authority(to_bytes("intel-root-key"));
  AttestationAuthority rogue(to_bytes("attacker-key"));
  EnclaveRuntime enclave(test_config());
  const Quote quote = rogue.issue(enclave.measurement(), to_bytes("report"));
  EXPECT_FALSE(authority.verify(quote));
}

TEST(Attestation, TamperedReportDataRejected) {
  AttestationAuthority authority(to_bytes("intel-root-key"));
  EnclaveRuntime enclave(test_config());
  Quote quote = authority.issue(enclave.measurement(), to_bytes("report"));
  quote.report_data[0] ^= 1;
  EXPECT_FALSE(authority.verify(quote));
}

TEST(Attestation, VerifyEnclaveChecksMeasurement) {
  AttestationAuthority authority(to_bytes("intel-root-key"));
  EnclaveRuntime good(test_config());
  EnclaveRuntime evil(test_config("evil-code"));
  const Quote quote = authority.issue(evil.measurement(), to_bytes("r"));
  EXPECT_TRUE(authority.verify(quote));  // authentic quote...
  EXPECT_FALSE(authority.verify_enclave(quote, good.measurement()).is_ok());
}

TEST(Attestation, QuoteSerializationRoundTrip) {
  AttestationAuthority authority(to_bytes("k"));
  EnclaveRuntime enclave(test_config());
  const Quote quote = authority.issue(enclave.measurement(), to_bytes("payload"));
  const auto parsed = Quote::deserialize(quote.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().measurement, quote.measurement);
  EXPECT_EQ(parsed.value().report_data, quote.report_data);
  EXPECT_EQ(parsed.value().mac, quote.mac);
}

TEST(Attestation, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Quote::deserialize(Bytes{1, 2, 3}).is_ok());
  Bytes too_long(200, 0);
  EXPECT_FALSE(Quote::deserialize(too_long).is_ok());
}

TEST(Attestation, ChannelKeyExtraction) {
  AttestationAuthority authority(to_bytes("k"));
  EnclaveRuntime enclave(test_config());
  crypto::X25519Key key{};
  key.fill(7);
  const Quote quote = quote_channel_key(authority, enclave, key);
  const auto extracted =
      verify_and_extract_channel_key(authority, quote, enclave.measurement());
  ASSERT_TRUE(extracted.is_ok());
  EXPECT_EQ(extracted.value(), key);
}

TEST(Attestation, ChannelKeyExtractionRejectsWrongMeasurement) {
  AttestationAuthority authority(to_bytes("k"));
  EnclaveRuntime enclave(test_config());
  EnclaveRuntime other(test_config("other"));
  crypto::X25519Key key{};
  key.fill(7);
  const Quote quote = quote_channel_key(authority, enclave, key);
  EXPECT_FALSE(
      verify_and_extract_channel_key(authority, quote, other.measurement()).is_ok());
}

}  // namespace
}  // namespace xsearch::sgx
