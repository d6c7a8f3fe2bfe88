// Warm-restart tests for the proxy-integrated checkpointer: periodic
// sealing during traffic, restore at construction, clean cold-start
// fallback on tampered/truncated blobs, and the v2 per-session obfuscator
// state that keeps resumed sessions off their spent decoy streams.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "broker_util.hpp"
#include "crypto/x25519.hpp"
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
    options.contact_engine = false;  // isolate the checkpoint/session path
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
  options.contact_engine = false;
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

TEST_F(RecoveryTest, CheckpointSealsPerSessionState) {
  {
    XSearchProxy proxy(nullptr, authority_, checkpointing_options(/*interval=*/0));
    auto broker =
        testutil::in_process_broker(proxy, authority_, proxy.measurement(), 8);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(broker.search("session state " + std::to_string(i)).is_ok());
    }
    ASSERT_TRUE(proxy.checkpoint_now().is_ok());
  }
  XSearchProxy restarted(nullptr, authority_, checkpointing_options(0));
  const auto stats = restarted.metrics();
  EXPECT_EQ(stats.value("checkpoint.restore_hits"), 1u);
  // the broker's one live session
  EXPECT_EQ(stats.value("checkpoint.restored_sessions"), 1u);
}

// The v2 privacy property at the RNG level: a session resumed under its
// pre-crash id must not replay the decoy draws the crashed proxy already
// made — identical draws would let the engine link pre- and post-restart
// traffic. The restored generation advances the stream derivation.
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
  constexpr std::uint64_t kSessionId = 777;
  constexpr std::uint64_t kSeed = 42;

  const auto first_draws = [&](SessionTable& table) {
    const std::uint64_t id = table.insert(make_channel(), kSessionId);
    EXPECT_EQ(id, kSessionId);
    auto session = table.acquire(kSessionId);
    EXPECT_TRUE(static_cast<bool>(session));
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 4; ++i) draws.push_back(session.rng().next());
    return draws;
  };

  SessionTable::Options options;
  options.rng_seed = kSeed;

  SessionTable original(options);
  const auto pre_crash = first_draws(original);

  // Same seed, same id, no restored state: the stream replays — this is
  // exactly the exposure the v2 session section exists to close.
  SessionTable naive(options);
  EXPECT_EQ(first_draws(naive), pre_crash);

  // With the checkpointed obfuscation count installed, the resumed session
  // draws a fresh stream.
  SessionTable restored(options);
  restored.set_resume_generations({{kSessionId, 4}});
  EXPECT_NE(first_draws(restored), pre_crash);

  // Sessions under other ids are untouched by the restored state.
  SessionTable other(options);
  other.set_resume_generations({{kSessionId + 1, 9}});
  EXPECT_EQ(first_draws(other), pre_crash);

  // Generations accumulate across a SECOND crash: the restored table's own
  // checkpoint seals base + obfuscations-since (here 4 + 4), so the next
  // restore derives yet another fresh stream instead of regressing to one
  // already spent — and carries forward restored ids that never resumed.
  {
    auto session = restored.acquire(kSessionId);
    ASSERT_TRUE(static_cast<bool>(session));
    for (int i = 0; i < 4; ++i) session.note_obfuscation();
  }
  const auto generations = restored.checkpoint_generations();
  ASSERT_EQ(generations.size(), 1u);
  EXPECT_EQ(generations.front(), (std::pair<std::uint64_t, std::uint64_t>{
                                     kSessionId, 8u}));
  SessionTable restored2(options);
  restored2.set_resume_generations(generations);
  const auto second_restore = first_draws(restored2);
  EXPECT_NE(second_restore, pre_crash);
  // ...and differs from the first restore's stream too (generation 8 ≠ 4).
  SessionTable restored_again(options);
  restored_again.set_resume_generations({{kSessionId, 4}});
  EXPECT_NE(second_restore, first_draws(restored_again));
  // Carried forward without being resumed: a table that restored the state
  // but never saw the session re-checkpoints it unchanged.
  SessionTable idle(options);
  idle.set_resume_generations(generations);
  EXPECT_EQ(idle.checkpoint_generations(), generations);

  // Eviction must not rewind a stream either: after the id departs (LRU)
  // and returns within one run, it resumes past the spent draws, and the
  // spent position survives into checkpoints taken while the id is gone.
  SessionTable::Options tiny = options;
  tiny.capacity = 1;
  SessionTable churn(tiny);
  const auto spent = first_draws(churn);  // id 777, 4 raw draws
  {
    auto session = churn.acquire(kSessionId);
    ASSERT_TRUE(static_cast<bool>(session));
    for (int i = 0; i < 3; ++i) session.note_obfuscation();
  }
  ASSERT_EQ(churn.insert(make_channel(), kSessionId + 1), kSessionId + 1);
  EXPECT_EQ(churn.size(), 1u);  // capacity 1: id 777 was evicted
  const auto checkpointed = churn.checkpoint_generations();
  ASSERT_EQ(checkpointed.size(), 1u);  // 778 has no draws; 777 retained
  EXPECT_EQ(checkpointed.front(),
            (std::pair<std::uint64_t, std::uint64_t>{kSessionId, 3u}));
  EXPECT_NE(first_draws(churn), spent);  // re-insert resumes, not replays
}

}  // namespace
}  // namespace xsearch::core
