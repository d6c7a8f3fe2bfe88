// Warm-restart tests for the proxy-integrated checkpointer: sealing only
// on checkpoint_now (never on the query path), restore at construction,
// clean cold-start
// fallback on tampered/truncated blobs, and the enclave entropy that keeps
// every run's sessions off the decoy streams and envelope keys an earlier
// run spent, and out of reach of the host that sets every option.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broker_util.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/hmac.hpp"
#include "crypto/random.hpp"
#include "crypto/x25519.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/checkpoint.hpp"
#include "xsearch/engine_gateway.hpp"
#include "xsearch/obfuscator.hpp"
#include "xsearch/proxy.hpp"
#include "xsearch/session_table.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : dir_(std::filesystem::temp_directory_path() /
             ("xs_recovery_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()))),
        authority_(to_bytes("recovery-test-root")) {
    std::filesystem::remove_all(dir_);
  }
  ~RecoveryTest() override { std::filesystem::remove_all(dir_); }

  XSearchProxy::Options checkpointing_options() const {
    XSearchProxy::Options options;
    options.k = 2;
    options.history_capacity = 1'000;
    options.checkpoint_dir = dir_;
    return options;
  }

  std::filesystem::path dir_;
  sgx::AttestationAuthority authority_;
};

// The query path never seals: with no supervisor calling checkpoint_now,
// a checkpointing proxy writes nothing however many queries it serves.
TEST_F(RecoveryTest, QueriesAloneNeverSeal) {
  XSearchProxy proxy(nullptr, authority_, checkpointing_options());
  ASSERT_TRUE(proxy.init_status().is_ok());
  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 1);
  for (int i = 0; i < 1'000; ++i) {
    ASSERT_TRUE(broker.search("query " + std::to_string(i)).is_ok());
  }
  EXPECT_EQ(proxy.history_size(), 1'000u);
  const auto stats = proxy.metrics();
  EXPECT_EQ(stats.value("checkpoint.written"), 0u);
  EXPECT_EQ(stats.value("checkpoint.write_failures"), 0u);
  EXPECT_FALSE(std::filesystem::exists(proxy.checkpoint_path()));
}

TEST_F(RecoveryTest, CheckpointThenWarmRestartRestoresTheSealedDepth) {
  {
    XSearchProxy proxy(nullptr, authority_, checkpointing_options());
    ASSERT_TRUE(proxy.init_status().is_ok());
    auto broker =
        testutil::in_process_broker(proxy, authority_, proxy.measurement(), 1);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(broker.search("query " + std::to_string(i)).is_ok());
      if (i == 7) ASSERT_TRUE(proxy.checkpoint_now().is_ok());
    }
    EXPECT_FALSE(proxy.checkpoint_path().empty());
    const auto stats = proxy.metrics();
    EXPECT_EQ(stats.value("checkpoint.written"), 1u);
    EXPECT_EQ(stats.value("checkpoint.write_failures"), 0u);
    EXPECT_EQ(proxy.history_size(), 10u);
  }  // proxy destroyed: the "crash" loses the two queries after the seal
  // The write left no temp file behind.
  EXPECT_TRUE(std::filesystem::exists(dir_ / "history.ckpt"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "history.ckpt.tmp"));

  XSearchProxy restarted(nullptr, authority_, checkpointing_options());
  ASSERT_TRUE(restarted.init_status().is_ok());
  const auto stats = restarted.metrics();
  EXPECT_EQ(stats.value("checkpoint.restore_attempts"), 1u);
  EXPECT_EQ(stats.value("checkpoint.restore_hits"), 1u);
  EXPECT_EQ(stats.value("checkpoint.restored_entries"), 8u);
  EXPECT_EQ(restarted.history_size(), 8u);

  // The restored table feeds obfuscation immediately: no cold start.
  auto broker = testutil::in_process_broker(restarted, authority_,
                                            restarted.measurement(), 2);
  EXPECT_TRUE(broker.search("after restart").is_ok());
}

TEST_F(RecoveryTest, ExplicitCheckpointCapturesFullDepth) {
  {
    XSearchProxy proxy(nullptr, authority_, checkpointing_options());
    auto broker =
        testutil::in_process_broker(proxy, authority_, proxy.measurement(), 3);
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(broker.search("q" + std::to_string(i)).is_ok());
    }
    EXPECT_EQ(proxy.metrics().value("checkpoint.written"), 0u);
    ASSERT_TRUE(proxy.checkpoint_now().is_ok());
    EXPECT_EQ(proxy.metrics().value("checkpoint.written"), 1u);
  }
  XSearchProxy restarted(nullptr, authority_, checkpointing_options());
  EXPECT_EQ(restarted.metrics().value("checkpoint.restore_hits"), 1u);
  EXPECT_EQ(restarted.history_size(), 7u);
}

// The host holds the enclave code, so it knows the measurement. A sealing
// key derived from the measurement alone (HKDF with no salt, the key before
// the platform secret was modelled) must not open a real checkpoint: only
// the process's fused secret does, and the host never sees it.
TEST_F(RecoveryTest, HostHoldingTheCodeCannotOpenTheCheckpoint) {
  XSearchProxy proxy(nullptr, authority_, checkpointing_options());
  ASSERT_TRUE(proxy.init_status().is_ok());
  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 4);
  ASSERT_TRUE(broker.search("a past query").is_ok());
  ASSERT_TRUE(proxy.checkpoint_now().is_ok());

  auto blob = read_checkpoint_file(proxy.checkpoint_path());
  ASSERT_TRUE(blob.is_ok());
  const Bytes& sealed = blob.value();
  ASSERT_GT(sealed.size(), sgx::EnclaveRuntime::kSealHeaderBytes);

  const sgx::Measurement measurement = proxy.measurement();
  const auto host_key =
      crypto::hkdf({}, measurement, to_bytes("sgx-sealing-key-mrenclave-v1"),
                   crypto::kAeadKeySize)
          .slice<crypto::kAeadKeySize>();
  crypto::AeadNonce nonce;
  std::copy_n(sealed.begin(), nonce.size(), nonce.begin());
  const auto opened = crypto::aead_open(
      host_key, nonce, measurement,
      ByteSpan(sealed).subspan(sgx::EnclaveRuntime::kSealHeaderBytes));
  EXPECT_FALSE(opened.has_value());

  // The same process restarts warm: its enclave shares the fused secret.
  XSearchProxy restarted(nullptr, authority_, checkpointing_options());
  EXPECT_EQ(restarted.metrics().value("checkpoint.restore_hits"), 1u);
  EXPECT_EQ(restarted.history_size(), proxy.history_size());
}

TEST_F(RecoveryTest, CheckpointNowWithoutDirIsRefused) {
  XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 100;
  XSearchProxy proxy(nullptr, authority_, options);
  const Status status = proxy.checkpoint_now();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(proxy.checkpoint_path().empty());
}

TEST_F(RecoveryTest, TamperedCheckpointFallsBackToCleanColdStart) {
  {
    XSearchProxy proxy(nullptr, authority_, checkpointing_options());
    auto broker =
        testutil::in_process_broker(proxy, authority_, proxy.measurement(), 4);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(broker.search("secret " + std::to_string(i)).is_ok());
    }
    ASSERT_TRUE(proxy.checkpoint_now().is_ok());
  }
  // Byzantine host flips one ciphertext byte.
  const auto path = dir_ / "history.ckpt";
  auto blob = read_checkpoint_file(path);
  ASSERT_TRUE(blob.is_ok());
  Bytes tampered = blob.value();
  tampered[tampered.size() / 2] ^= 1;
  ASSERT_TRUE(write_checkpoint_file(path, tampered).is_ok());

  XSearchProxy restarted(nullptr, authority_, checkpointing_options());
  ASSERT_TRUE(restarted.init_status().is_ok());  // rejection is not fatal
  const auto stats = restarted.metrics();
  EXPECT_EQ(stats.value("checkpoint.restore_attempts"), 1u);
  EXPECT_EQ(stats.value("checkpoint.restore_hits"), 0u);
  EXPECT_EQ(restarted.history_size(), 0u);  // cold, never a partial window

  // And the cold proxy serves normally.
  auto broker = testutil::in_process_broker(restarted, authority_,
                                            restarted.measurement(), 5);
  EXPECT_TRUE(broker.search("fresh query").is_ok());
}

TEST_F(RecoveryTest, TruncatedCheckpointFallsBackToCleanColdStart) {
  {
    XSearchProxy proxy(nullptr, authority_, checkpointing_options());
    auto broker =
        testutil::in_process_broker(proxy, authority_, proxy.measurement(), 6);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(broker.search("will truncate " + std::to_string(i)).is_ok());
    }
    ASSERT_TRUE(proxy.checkpoint_now().is_ok());
  }
  const auto path = dir_ / "history.ckpt";
  auto blob = read_checkpoint_file(path);
  ASSERT_TRUE(blob.is_ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.value().data()),
              static_cast<std::streamsize>(blob.value().size() / 3));
  }

  XSearchProxy restarted(nullptr, authority_, checkpointing_options());
  ASSERT_TRUE(restarted.init_status().is_ok());
  EXPECT_EQ(restarted.metrics().value("checkpoint.restore_hits"), 0u);
  EXPECT_EQ(restarted.history_size(), 0u);
}

TEST_F(RecoveryTest, RestoreRespectsNarrowerWindow) {
  {
    XSearchProxy::Options wide = checkpointing_options();
    wide.history_capacity = 100;
    XSearchProxy proxy(nullptr, authority_, wide);
    auto broker =
        testutil::in_process_broker(proxy, authority_, proxy.measurement(), 7);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(broker.search("wide " + std::to_string(i)).is_ok());
    }
    ASSERT_TRUE(proxy.checkpoint_now().is_ok());
  }
  // Operator shrinks the window across the restart: only the newest
  // `capacity` checkpointed entries may land.
  XSearchProxy::Options narrow = checkpointing_options();
  narrow.history_capacity = 10;
  XSearchProxy restarted(nullptr, authority_, narrow);
  EXPECT_EQ(restarted.metrics().value("checkpoint.restore_hits"), 1u);
  EXPECT_EQ(restarted.history_size(), 10u);
}

// The privacy property at the RNG level: a table's session streams are
// forked from its stream key and the insert ordinal, and the proxy draws
// that key from enclave entropy for each run, so the n-th session of two
// runs draws different streams, and an id that comes back within one run
// does not bring its old streams back.
TEST_F(RecoveryTest, ResumedSessionDoesNotReplayDecoyStream) {
  const auto make_channel = [] {
    crypto::X25519Key static_seed{};
    static_seed[0] = 0x11;
    crypto::X25519Key eph_seed{};
    eph_seed[0] = 0x22;
    crypto::X25519Key client_seed{};
    client_seed[0] = 0x33;
    const auto statics = crypto::x25519_keypair_from_seed(crypto::X25519Secret(static_seed));
    const auto eph = crypto::x25519_keypair_from_seed(crypto::X25519Secret(eph_seed));
    const auto client = crypto::x25519_keypair_from_seed(crypto::X25519Secret(client_seed));
    return crypto::SecureChannel::responder(statics, eph, client.public_key);
  };

  struct Draws {
    std::vector<std::uint64_t> rng;
    Bytes secure_rng;
  };
  const auto draw = [](SessionTable& table, std::uint64_t id) {
    auto session = table.acquire(id);
    EXPECT_TRUE(static_cast<bool>(session));
    Draws draws;
    if (!session) return draws;
    for (int i = 0; i < 4; ++i) draws.rng.push_back(session.rng().next());
    draws.secure_rng = session.secure_rng().bytes(16);
    return draws;
  };
  // A fresh table's first session, under the counter's first id.
  const auto first_draws = [&](const crypto::ChaChaKey& key) {
    SessionTable table({}, key);
    EXPECT_EQ(table.insert(make_channel()), 1u);
    return draw(table, 1);
  };

  // Three runs — two of one enclave instance, one of a restarted instance
  // of the same code — each key their table afresh.
  sgx::EnclaveRuntime enclave({.code_identity = XSearchProxy::code_identity()});
  sgx::EnclaveRuntime restarted({.code_identity = XSearchProxy::code_identity()});
  const std::vector<Draws> runs = {first_draws(enclave.random_key()),
                                   first_draws(enclave.random_key()),
                                   first_draws(restarted.random_key())};
  for (std::size_t a = 0; a < runs.size(); ++a) {
    for (std::size_t b = a + 1; b < runs.size(); ++b) {
      EXPECT_NE(runs[a].rng, runs[b].rng) << "runs " << a << ", " << b;
      EXPECT_NE(runs[a].secure_rng, runs[b].secure_rng) << "runs " << a << ", " << b;
    }
  }
  // Under one key the fork is a function of the ordinal alone.
  const crypto::ChaChaKey key = enclave.random_key();
  EXPECT_EQ(first_draws(key).rng, first_draws(key).rng);

  // Eviction must not rewind a stream either. The host proposes session
  // ids, so it can propose X, push X out of the LRU, and propose X again;
  // the returning X must draw new streams, or its decoys and envelope
  // ephemerals would repeat within the run.
  constexpr std::uint64_t kProposed = 777;
  SessionTable churn({.capacity = 1}, key);
  ASSERT_EQ(churn.insert(make_channel(), kProposed), kProposed);
  const Draws before = draw(churn, kProposed);
  ASSERT_EQ(churn.insert(make_channel(), kProposed + 1), kProposed + 1);
  ASSERT_FALSE(static_cast<bool>(churn.acquire(kProposed)));  // evicted
  ASSERT_EQ(churn.insert(make_channel(), kProposed), kProposed);
  const Draws after = draw(churn, kProposed);
  EXPECT_NE(after.rng, before.rng);
  EXPECT_NE(after.secure_rng, before.secure_rng);
}

// A proxy with a live engine whose observer records every OR query — the
// adversary's view of the traffic.
class ObservedRecoveryTest : public RecoveryTest {
 protected:
  static dataset::QueryLog make_log() {
    dataset::SyntheticLogConfig config;
    config.num_users = 30;
    config.total_queries = 2000;
    config.vocab_size = 1200;
    config.num_topics = 12;
    config.words_per_topic = 80;
    return dataset::generate_synthetic_log(config);
  }

  ObservedRecoveryTest()
      : log_(make_log()),
        corpus_(log_, engine::CorpusConfig{.seed = 2, .num_documents = 1500}),
        engine_(corpus_) {
    engine_.set_observer([this](std::string_view query) {
      std::lock_guard lock(observed_mutex_);
      observed_.emplace_back(query);
    });
  }

  std::vector<std::string> take_observed() {
    std::lock_guard lock(observed_mutex_);
    return std::exchange(observed_, {});
  }

  /// The first 300 logged queries: a window deep enough that a repeated OR
  /// query means a repeated random stream.
  std::vector<std::string> warm_queries() const {
    std::vector<std::string> warm;
    for (std::size_t i = 0; i < 300; ++i) warm.push_back(log_.records()[i].text);
    return warm;
  }

  dataset::QueryLog log_;
  engine::Corpus corpus_;
  engine::SearchEngine engine_;
  std::mutex observed_mutex_;
  std::vector<std::string> observed_;
};

// A session created *after* the last checkpoint has no state of its own in
// the blob; after a warm restart a new session under the same id must
// still not send the engine an OR query the crashed run sent.
TEST_F(ObservedRecoveryTest, SessionBornAfterCheckpointDoesNotReplayAfterRestart) {
  const std::vector<std::string> queries = {"alpha beta", "gamma", "delta epsilon",
                                            "zeta", "eta theta", "iota"};

  std::uint64_t b_id = 0;
  std::vector<std::string> pre_crash;
  {
    XSearchProxy proxy(&engine_, authority_, checkpointing_options());
    ASSERT_TRUE(proxy.init_status().is_ok());
    proxy.warm_history(warm_queries());
    auto a = testutil::in_process_broker(proxy, authority_, proxy.measurement(), 1);
    ASSERT_TRUE(a.search("session a").is_ok());
    ASSERT_TRUE(proxy.checkpoint_now().is_ok());  // A live, B not yet born
    (void)take_observed();

    auto b = testutil::in_process_broker(proxy, authority_, proxy.measurement(), 2);
    for (const auto& query : queries) ASSERT_TRUE(b.search(query).is_ok());
    b_id = b.session_id();
    pre_crash = take_observed();
  }  // crash: no checkpoint after B's traffic
  ASSERT_EQ(pre_crash.size(), queries.size());

  XSearchProxy restarted(&engine_, authority_, checkpointing_options());
  ASSERT_EQ(restarted.metrics().value("checkpoint.restore_hits"), 1u);
  // Reopen sessions until one lands on B's id (ids restart at 1), with the
  // same history contents B saw before the crash.
  auto a = testutil::in_process_broker(restarted, authority_,
                                       restarted.measurement(), 1);
  ASSERT_TRUE(a.connect().is_ok());
  auto b = testutil::in_process_broker(restarted, authority_,
                                       restarted.measurement(), 2);
  ASSERT_TRUE(b.connect().is_ok());
  ASSERT_EQ(b.session_id(), b_id);
  for (const auto& query : queries) ASSERT_TRUE(b.search(query).is_ok());
  const std::vector<std::string> post_restart = take_observed();
  ASSERT_EQ(post_restart.size(), queries.size());

  int replayed = 0;
  for (const auto& or_query : post_restart) {
    for (const auto& seen : pre_crash) replayed += or_query == seen ? 1 : 0;
  }
  EXPECT_EQ(replayed, 0) << "OR queries the engine saw before the crash";
}

// What the untrusted host holds: every Options value, the sealed checkpoint,
// the attested handshake and the OR queries the engine receives. As a worst
// case it is also handed the sealed history in clear (below, through an
// enclave of the same code in this process, which shares the platform
// secret; a real host cannot open the blob, see
// HostHoldingTheCodeCannotOpenTheCheckpoint). The enclave
// once derived its secrets from the host-set seed; this host replays those
// derivations — a handshake DRBG keyed by domain_seed(seed, 0x42), and
// session streams forked from (seed, insert ordinal, restart epoch) — and
// must match neither the attested static key, nor the handshake's
// ephemeral, nor the session's first decoy draw.
TEST_F(ObservedRecoveryTest, HostCannotRecomputeEnclaveSecrets) {
  XSearchProxy::Options options = checkpointing_options();
  options.seed = 0xC0FFEE;
  {
    XSearchProxy sealer(&engine_, authority_, options);
    sealer.warm_history(warm_queries());
    ASSERT_TRUE(sealer.checkpoint_now().is_ok());
  }
  XSearchProxy proxy(&engine_, authority_, options);
  ASSERT_EQ(proxy.metrics().value("checkpoint.restore_hits"), 1u);

  // Session 1 is a bare handshake: its reply carries the attested static
  // key (the quote's report data) and the enclave's ephemeral.
  crypto::X25519Key client_seed{};
  client_seed[0] = 0x5c;
  const auto client = crypto::x25519_keypair_from_seed(crypto::X25519Secret(client_seed));
  const auto hello = proxy.handshake(client.public_key);
  ASSERT_TRUE(hello.is_ok()) << hello.status().to_string();
  // Session 2 sends one query; the engine sees its OR query.
  (void)take_observed();
  const std::string query = "chronic pain clinic";
  auto broker = testutil::in_process_broker(proxy, authority_, proxy.measurement(), 9);
  ASSERT_TRUE(broker.search(query).is_ok());
  const std::vector<std::string> observed = take_observed();
  ASSERT_EQ(observed.size(), 1u);

  // The handshake DRBG's first keys: the static key pair came first, each
  // handshake's ephemeral after it.
  crypto::SecureRandom handshake_rng(crypto::domain_seed(options.seed, /*tag=*/0x42));
  for (int draw = 0; draw < 8; ++draw) {
    const auto guess = crypto::x25519_keypair_from_seed(handshake_rng.key());
    EXPECT_NE(Bytes(guess.public_key.begin(), guess.public_key.end()),
              hello.value().quote.report_data)
        << "static key is draw " << draw;
    EXPECT_NE(guess.public_key, hello.value().server_ephemeral_pub)
        << "ephemeral is draw " << draw;
  }

  // Each session stream the seed could key, at any restart epoch the blob
  // could imply, replayed through Algorithm 1 over the history the blob
  // holds.
  const auto blob = read_checkpoint_file(proxy.checkpoint_path());
  ASSERT_TRUE(blob.is_ok());
  const sgx::EnclaveRuntime host_copy({.code_identity = XSearchProxy::code_identity()});
  for (std::uint64_t ordinal = 1; ordinal <= 2; ++ordinal) {
    for (std::uint64_t epoch = 0; epoch <= 3; ++epoch) {
      QueryHistory history(options.history_capacity);
      ASSERT_TRUE(restore_history(host_copy, blob.value(), history).is_ok());
      std::uint64_t state = options.seed ^ (ordinal * 0x9e3779b97f4a7c15ULL) ^
                            (epoch * 0xbf58476d1ce4e5b9ULL);
      Rng rng(splitmix64(state));
      const ObfuscatedQuery guess = Obfuscator(history, options.k).obfuscate(query, rng);
      EXPECT_NE(guess.to_query_string(), observed.front())
          << "ordinal " << ordinal << ", epoch " << epoch;
    }
  }
}

// The same observer behind the encrypted engine link (footnote 2), whose
// host relay also records each request envelope's ephemeral public key:
// with the gateway's key fixed, it fixes the envelope's AEAD keys.
class ObservedLinkRecoveryTest : public ObservedRecoveryTest {
 protected:
  ObservedLinkRecoveryTest() : gateway_(&engine_, /*seed=*/11) {}

  /// Replaces `proxy`'s socket ocalls with a relay to the gateway that
  /// records every envelope key (one socket at a time, as these
  /// single-threaded tests use it).
  void relay_and_record(XSearchProxy& proxy) {
    sgx::EnclaveRuntime& host = proxy.host_enclave();
    host.register_ocall(sgx::OcallId::kSockConnect, [](ByteSpan) -> Result<Bytes> {
      Bytes sock;
      wire::put_u64(sock, 1);
      return sock;
    });
    host.register_ocall(sgx::OcallId::kSend, [this](ByteSpan payload) -> Result<Bytes> {
      const ByteSpan envelope = payload.subspan(sizeof(std::uint64_t));  // behind the socket id
      envelope_keys_.emplace_back(envelope.begin(),
                                  envelope.begin() + crypto::kX25519KeySize);
      auto reply = gateway_.handle(envelope);
      if (!reply) return reply.status();
      reply_ = std::move(reply).value();
      return Bytes{};
    });
    host.register_ocall(sgx::OcallId::kRecv,
                        [this](ByteSpan) -> Result<Bytes> { return std::move(reply_); });
    host.register_ocall(sgx::OcallId::kClose,
                        [](ByteSpan) -> Result<Bytes> { return Bytes{}; });
  }

  SecureEngineGateway gateway_;
  std::vector<Bytes> envelope_keys_;
  Bytes reply_;
};

// Two cold starts, and one sealed blob restored twice, each serve one
// script on their second session over the same history. Each run draws
// its streams from fresh enclave entropy, so the engine sees different
// decoys and the link different envelope keys every time.
TEST_F(ObservedLinkRecoveryTest, RestartsDrawFreshStreams) {
  const std::vector<std::string> queries = {"alpha beta", "gamma", "delta epsilon",
                                            "zeta"};
  struct Seen {
    std::vector<std::string> or_queries;
    std::vector<Bytes> envelope_keys;
  };
  const auto serve = [&](XSearchProxy& proxy) {
    relay_and_record(proxy);
    auto first = testutil::in_process_broker(proxy, authority_, proxy.measurement(), 1);
    EXPECT_TRUE(first.connect().is_ok());
    (void)take_observed();
    envelope_keys_.clear();
    auto second = testutil::in_process_broker(proxy, authority_, proxy.measurement(), 2);
    for (const auto& query : queries) EXPECT_TRUE(second.search(query).is_ok());
    Seen seen{take_observed(), std::exchange(envelope_keys_, {})};
    EXPECT_EQ(seen.or_queries.size(), queries.size());
    EXPECT_EQ(seen.envelope_keys.size(), queries.size());
    return seen;
  };
  const auto shared = [](const auto& a, const auto& b) {
    std::ptrdiff_t n = 0;
    for (const auto& x : a) n += std::count(b.begin(), b.end(), x);
    return n;
  };
  const auto expect_fresh = [&](const Seen& a, const Seen& b, const char* runs) {
    EXPECT_EQ(shared(a.or_queries, b.or_queries), 0) << runs << ": replayed OR queries";
    EXPECT_EQ(shared(a.envelope_keys, b.envelope_keys), 0)
        << runs << ": replayed envelope keys";
  };

  XSearchProxy::Options cold = checkpointing_options();
  cold.checkpoint_dir.clear();
  std::vector<Seen> cold_runs;
  for (int start = 0; start < 2; ++start) {
    XSearchProxy proxy(gateway_, authority_, cold);
    proxy.warm_history(warm_queries());
    cold_runs.push_back(serve(proxy));
  }
  expect_fresh(cold_runs[0], cold_runs[1], "two cold starts");

  {
    XSearchProxy sealer(gateway_, authority_, checkpointing_options());
    sealer.warm_history(warm_queries());
    ASSERT_TRUE(sealer.checkpoint_now().is_ok());
  }
  const auto path = dir_ / "history.ckpt";
  const auto blob = read_checkpoint_file(path);
  ASSERT_TRUE(blob.is_ok());
  std::vector<Seen> restored_runs;
  for (int restore = 0; restore < 2; ++restore) {
    // The host puts the same sealed blob back before each start.
    ASSERT_TRUE(write_checkpoint_file(path, blob.value()).is_ok());
    XSearchProxy proxy(gateway_, authority_, checkpointing_options());
    ASSERT_EQ(proxy.metrics().value("checkpoint.restore_hits"), 1u);
    restored_runs.push_back(serve(proxy));
  }
  expect_fresh(restored_runs[0], restored_runs[1], "one blob restored twice");
}

// The sealed blob holds the history alone: its size must not grow with the
// number of sessions that ever existed.
TEST_F(RecoveryTest, SealedSizeIndependentOfSessionCount) {
  XSearchProxy::Options options = checkpointing_options();
  options.session_capacity = 16;
  XSearchProxy proxy(nullptr, authority_, options);
  // A full window of equal-length entries: every later query replaces one
  // entry with another of the same length, so the history's share of the
  // blob stays fixed.
  const auto numbered = [](const char* prefix, int i) {
    char buffer[16];
    std::snprintf(buffer, sizeof buffer, "%s %04d", prefix, i);
    return std::string(buffer);
  };
  std::vector<std::string> warm;
  for (int i = 0; i < 1'000; ++i) warm.push_back(numbered("warm", i));
  proxy.warm_history(warm);

  const auto sealed_size = [&] {
    EXPECT_TRUE(proxy.checkpoint_now().is_ok());
    return std::filesystem::file_size(proxy.checkpoint_path());
  };
  const auto with_no_sessions = sealed_size();
  for (int i = 0; i < 1'000; ++i) {
    auto broker = testutil::in_process_broker(
        proxy, authority_, proxy.measurement(), static_cast<std::uint64_t>(i));
    ASSERT_TRUE(broker.search(numbered("live", i)).is_ok());
  }
  EXPECT_EQ(proxy.metrics().value("sessions.created"), 1'000u);
  EXPECT_EQ(proxy.history_size(), 1'000u);
  EXPECT_EQ(sealed_size(), with_no_sessions);
}

}  // namespace
}  // namespace xsearch::core
