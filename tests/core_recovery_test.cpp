// Warm-restart tests for the proxy-integrated checkpointer: periodic
// sealing during traffic, restore at construction, clean cold-start
// fallback on tampered/truncated blobs, and the v3 restart epoch that keeps
// every post-restart session off the decoy streams an earlier run spent.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "broker_util.hpp"
#include "crypto/x25519.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/checkpoint.hpp"
#include "xsearch/proxy.hpp"
#include "xsearch/session_table.hpp"

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

  XSearchProxy::Options checkpointing_options(std::uint64_t interval = 4) const {
    XSearchProxy::Options options;
    options.k = 2;
    options.history_capacity = 1'000;
    options.checkpoint_dir = dir_;
    options.checkpoint_interval_queries = interval;
    return options;
  }

  std::filesystem::path dir_;
  sgx::AttestationAuthority authority_;
};

TEST_F(RecoveryTest, PeriodicCheckpointThenWarmRestart) {
  std::size_t depth_at_crash = 0;
  {
    XSearchProxy proxy(nullptr, authority_, checkpointing_options());
    ASSERT_TRUE(proxy.init_status().is_ok());
    auto broker =
        testutil::in_process_broker(proxy, authority_, proxy.measurement(), 1);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(broker.search("query " + std::to_string(i)).is_ok());
    }
    EXPECT_FALSE(proxy.checkpoint_path().empty());
    const auto stats = proxy.metrics();
    EXPECT_GE(stats.value("checkpoint.written"), 2u);  // interval 4, 10 queries
    EXPECT_EQ(stats.value("checkpoint.write_failures"), 0u);
    depth_at_crash = proxy.history_size();
    EXPECT_EQ(depth_at_crash, 10u);
  }  // proxy destroyed: the "crash" (no drain-time checkpoint beyond the
     // periodic ones — last seal was at query 8)

  XSearchProxy restarted(nullptr, authority_, checkpointing_options());
  ASSERT_TRUE(restarted.init_status().is_ok());
  const auto stats = restarted.metrics();
  EXPECT_EQ(stats.value("checkpoint.restore_attempts"), 1u);
  EXPECT_EQ(stats.value("checkpoint.restore_hits"), 1u);
  EXPECT_EQ(stats.value("checkpoint.restored_entries"), 8u);  // newest periodic seal
  EXPECT_EQ(restarted.history_size(), 8u);

  // The restored table feeds obfuscation immediately: no cold start.
  auto broker = testutil::in_process_broker(restarted, authority_,
                                            restarted.measurement(), 2);
  EXPECT_TRUE(broker.search("after restart").is_ok());
}

TEST_F(RecoveryTest, ExplicitCheckpointCapturesFullDepth) {
  {
    XSearchProxy proxy(nullptr, authority_, checkpointing_options(/*interval=*/0));
    auto broker =
        testutil::in_process_broker(proxy, authority_, proxy.measurement(), 3);
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(broker.search("q" + std::to_string(i)).is_ok());
    }
    // interval 0: no periodic
    EXPECT_EQ(proxy.metrics().value("checkpoint.written"), 0u);
    ASSERT_TRUE(proxy.checkpoint_now().is_ok());
    EXPECT_EQ(proxy.metrics().value("checkpoint.written"), 1u);
  }
  XSearchProxy restarted(nullptr, authority_, checkpointing_options(0));
  EXPECT_EQ(restarted.metrics().value("checkpoint.restore_hits"), 1u);
  EXPECT_EQ(restarted.history_size(), 7u);
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
    XSearchProxy::Options wide = checkpointing_options(/*interval=*/0);
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
  XSearchProxy::Options narrow = checkpointing_options(/*interval=*/0);
  narrow.history_capacity = 10;
  XSearchProxy restarted(nullptr, authority_, narrow);
  EXPECT_EQ(restarted.metrics().value("checkpoint.restore_hits"), 1u);
  EXPECT_EQ(restarted.history_size(), 10u);
}

// The epoch the proxy's current checkpoint file was sealed with.
std::uint64_t sealed_epoch(const std::filesystem::path& path) {
  auto blob = read_checkpoint_file(path);
  EXPECT_TRUE(blob.is_ok()) << blob.status().to_string();
  if (!blob) return ~std::uint64_t{0};
  sgx::EnclaveRuntime enclave({.code_identity = XSearchProxy::code_identity()});
  QueryHistory history(1'000);
  std::uint64_t epoch = ~std::uint64_t{0};
  const Status status =
      restore_history(enclave, std::move(blob).value(), history, &epoch);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  return epoch;
}

TEST_F(RecoveryTest, EachWarmRestartSealsTheNextEpoch) {
  {
    XSearchProxy cold(nullptr, authority_, checkpointing_options(/*interval=*/0));
    EXPECT_EQ(cold.metrics().value("checkpoint.written"), 0u);  // cold: no seal yet
    ASSERT_TRUE(cold.checkpoint_now().is_ok());
  }
  EXPECT_EQ(sealed_epoch(dir_ / "history.ckpt"), 0u);
  for (std::uint64_t restart = 1; restart <= 2; ++restart) {
    XSearchProxy warm(nullptr, authority_, checkpointing_options(0));
    EXPECT_EQ(warm.metrics().value("checkpoint.restore_hits"), 1u);
    // A warm start seals its epoch before it serves anything.
    EXPECT_EQ(warm.metrics().value("checkpoint.written"), 1u);
    EXPECT_EQ(sealed_epoch(dir_ / "history.ckpt"), restart);
    ASSERT_TRUE(warm.checkpoint_now().is_ok());
    EXPECT_EQ(sealed_epoch(dir_ / "history.ckpt"), restart);
  }
  // A run that dies before any periodic or explicit checkpoint still moved
  // the epoch on at start, so the run after it does not reuse epoch 3.
  { XSearchProxy unsealed(nullptr, authority_, checkpointing_options(0)); }
  EXPECT_EQ(sealed_epoch(dir_ / "history.ckpt"), 3u);
  XSearchProxy again(nullptr, authority_, checkpointing_options(0));
  EXPECT_EQ(sealed_epoch(dir_ / "history.ckpt"), 4u);
}

// The privacy property at the RNG level: every session's streams are keyed
// by (seed, insert ordinal, epoch), so each epoch draws different streams,
// epoch 0 — a cold start — is the plain (seed, ordinal) stream, and an id
// that comes back within one run does not bring its old streams back.
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
  const auto first_draws = [&](std::uint64_t epoch) {
    SessionTable table({.rng_seed = 42, .epoch = epoch});
    EXPECT_EQ(table.insert(make_channel()), 1u);
    return draw(table, 1);
  };

  // Epoch 0, a cold start, is the plain (seed, 1) stream a fresh proxy's
  // first session has always drawn; pinned so a change to the derivation
  // cannot silently alter cold-start draws.
  const Draws epoch0 = first_draws(0);
  EXPECT_EQ(epoch0.rng,
            (std::vector<std::uint64_t>{0x2fcd8d44ddf09827ULL, 0x1b035635de0f5d7fULL,
                                        0x888b092fcf6501b8ULL, 0xc6cceba97135c2a8ULL}));
  EXPECT_EQ(hex_encode(epoch0.secure_rng), "90c3c6df2f1aa05fa0eb8d7f54ffbd2e");

  Draws previous = epoch0;
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    const Draws next = first_draws(epoch);
    EXPECT_NE(next.rng, previous.rng) << "epoch " << epoch;
    EXPECT_NE(next.secure_rng, previous.secure_rng) << "epoch " << epoch;
    EXPECT_NE(next.rng, epoch0.rng) << "epoch " << epoch;
    previous = next;
  }
  // Within an epoch the derivation is deterministic.
  EXPECT_EQ(first_draws(2).rng, first_draws(2).rng);

  // Eviction must not rewind a stream either. The host proposes session
  // ids, so it can propose X, push X out of the LRU, and propose X again;
  // the returning X must draw new streams, or its decoys and envelope
  // ephemerals would repeat within the run.
  constexpr std::uint64_t kProposed = 777;
  SessionTable churn({.capacity = 1, .rng_seed = 42});
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
  std::vector<std::string> warm;
  for (const auto& record : log_.records()) {
    if (warm.size() == 300) break;
    warm.push_back(record.text);
  }

  std::uint64_t b_id = 0;
  std::vector<std::string> pre_crash;
  {
    XSearchProxy proxy(&engine_, authority_, checkpointing_options(/*interval=*/0));
    ASSERT_TRUE(proxy.init_status().is_ok());
    proxy.warm_history(warm);
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

  XSearchProxy restarted(&engine_, authority_, checkpointing_options(/*interval=*/0));
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

// The sealed blob holds the history and one epoch: its size must not grow
// with the number of sessions that ever existed.
TEST_F(RecoveryTest, SealedSizeIndependentOfSessionCount) {
  XSearchProxy::Options options = checkpointing_options(/*interval=*/0);
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
