#include <gtest/gtest.h>

#include <set>
#include <string>
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

TEST(Epc, ChargesInsideACountedPageAddNoFault) {
  // The partial page beyond the limit faults once, when first touched;
  // later charges that stay inside it must not count it again.
  EpcAccountant epc(kEpcPageSize);
  epc.charge(kEpcPageSize);
  epc.charge(100);
  epc.charge(100);
  EXPECT_EQ(epc.page_faults(), 1u);
}

TEST(Epc, FaultCountIsAdditiveAcrossCharges) {
  // One charge of the sum faults exactly as many pages as the pieces.
  EpcAccountant pieces(kEpcPageSize * 2);
  EpcAccountant whole(kEpcPageSize * 2);
  std::size_t total = 0;
  for (std::size_t bytes : {5000u, 3000u, 1u, 4095u, 700u, 9000u, 12u}) {
    pieces.charge(bytes);
    total += bytes;
  }
  whole.charge(total);
  EXPECT_EQ(pieces.page_faults(), whole.page_faults());
  EXPECT_EQ(pieces.page_faults(),
            (total - kEpcPageSize * 2 + kEpcPageSize - 1) / kEpcPageSize);
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
  EXPECT_EQ(enclave.metrics().value("enclave.ecalls"), 1u);
  EXPECT_EQ(enclave.metrics().value("enclave.ocalls"), 0u);
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
  EXPECT_EQ(enclave.metrics().value("enclave.ocalls"), 1u);
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
  EXPECT_EQ(enclave.metrics().value("enclave.ecalls"), 1u);
  EXPECT_EQ(enclave.metrics().value("enclave.ocalls"), 1u);
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

TEST(Enclave, InPlaceSealAndUnsealMatchCopyingForms) {
  EnclaveRuntime enclave(test_config());
  const Bytes secret = to_bytes("a checkpoint written where it lies");
  Bytes record = secret;
  record.insert(record.begin(), EnclaveRuntime::kSealHeaderBytes, 0);
  record.reserve(record.size() + EnclaveRuntime::kSealTrailerBytes);
  const std::uint8_t* const buffer = record.data();
  enclave.seal_in_place(record);
  EXPECT_EQ(record.data(), buffer);  // no reallocation
  EXPECT_EQ(record.size(), EnclaveRuntime::kSealHeaderBytes + secret.size() +
                               EnclaveRuntime::kSealTrailerBytes);
  // Same format as `seal`: the copying unseal opens it.
  const auto copied = enclave.unseal(record);
  ASSERT_TRUE(copied.is_ok());
  EXPECT_EQ(copied.value(), secret);

  const auto opened = enclave.unseal_in_place(record);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value().data(), record.data() + EnclaveRuntime::kSealHeaderBytes);
  EXPECT_EQ(Bytes(opened.value().begin(), opened.value().end()), secret);

  Bytes tampered = enclave.seal(secret);
  tampered[tampered.size() / 2] ^= 1;
  const Bytes before = tampered;
  EXPECT_FALSE(enclave.unseal_in_place(tampered).is_ok());
  EXPECT_EQ(tampered, before);
}

TEST(EnclaveDeathTest, SealInPlaceOfAShortRecordAbortsInEveryBuild) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EnclaveRuntime enclave(test_config());
  Bytes record(EnclaveRuntime::kSealHeaderBytes - 1, 0);
  EXPECT_DEATH(enclave.seal_in_place(record),
               "record shorter than the seal header");
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

// Enclaves of one code identity share a sealing key, so they must not
// share a nonce either: under one (key, nonce) the XOR of two ciphertexts
// is the XOR of their plaintexts, readable by any host holding both blobs.
TEST(Enclave, SameIdentityEnclavesNeverShareASealNonce) {
  EnclaveRuntime a(test_config());
  EnclaveRuntime b(test_config());
  const Bytes first = to_bytes("user one searched: chronic pain");
  const Bytes second = to_bytes("user two searched: tax evasion!");
  ASSERT_EQ(first.size(), second.size());
  const Bytes sealed_a = a.seal(first);
  const Bytes sealed_b = b.seal(second);
  const auto nonce = [](const Bytes& blob) {
    return Bytes(blob.begin(), blob.begin() + EnclaveRuntime::kSealHeaderBytes);
  };
  EXPECT_NE(nonce(sealed_a), nonce(sealed_b));
  Bytes cipher_xor(first.size());
  Bytes plain_xor(first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    cipher_xor[i] = sealed_a[EnclaveRuntime::kSealHeaderBytes + i] ^
                    sealed_b[EnclaveRuntime::kSealHeaderBytes + i];
    plain_xor[i] = first[i] ^ second[i];
  }
  EXPECT_NE(cipher_xor, plain_xor);
  EXPECT_EQ(b.unseal(sealed_a).value(), first);
  EXPECT_EQ(a.unseal(sealed_b).value(), second);
}

// Any serving thread may seal (a periodic checkpoint runs on the query
// thread that crosses the interval), so concurrent seals share the
// runtime's DRBG: none may race, repeat a nonce or break a blob.
TEST(Enclave, ConcurrentSealsDrawDistinctNonces) {
  EnclaveRuntime enclave(test_config());
  constexpr int kThreads = 4;
  constexpr int kSeals = 64;
  const auto plaintext = [](int t, int i) {
    return to_bytes("thread " + std::to_string(t) + " seal " + std::to_string(i));
  };
  std::vector<std::vector<Bytes>> blobs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSeals; ++i) blobs[t].push_back(enclave.seal(plaintext(t, i)));
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<Bytes> nonces;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kSeals; ++i) {
      const Bytes& blob = blobs[t][i];
      nonces.emplace(blob.begin(), blob.begin() + EnclaveRuntime::kSealHeaderBytes);
      const auto opened = enclave.unseal(blob);
      ASSERT_TRUE(opened.is_ok()) << "thread " << t << " seal " << i;
      EXPECT_EQ(opened.value(), plaintext(t, i));
    }
  }
  EXPECT_EQ(nonces.size(), std::size_t{kThreads * kSeals});
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
