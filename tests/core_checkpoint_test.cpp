#include "xsearch/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/rng.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {
namespace {

sgx::EnclaveRuntime make_enclave(std::string code = "xsearch-proxy-v1") {
  return sgx::EnclaveRuntime({.code_identity = to_bytes(code)});
}

TEST(Checkpoint, SealRestoreRoundTrip) {
  auto enclave = make_enclave();
  QueryHistory original(100);
  for (int i = 0; i < 50; ++i) original.add("query " + std::to_string(i));

  const Bytes sealed = seal_history(enclave, original);
  QueryHistory restored(100);
  ASSERT_TRUE(restore_history(enclave, sealed, restored).is_ok());
  EXPECT_EQ(restored.size(), 50u);
  EXPECT_EQ(restored.snapshot(), original.snapshot());
}

TEST(Checkpoint, PreservesSlidingWindowOrder) {
  auto enclave = make_enclave();
  QueryHistory original(5);
  for (int i = 0; i < 12; ++i) original.add("q" + std::to_string(i));
  // Window holds q7..q11, oldest first.
  EXPECT_EQ(original.snapshot(),
            (std::vector<std::string>{"q7", "q8", "q9", "q10", "q11"}));

  const Bytes sealed = seal_history(enclave, original);
  QueryHistory restored(5);
  ASSERT_TRUE(restore_history(enclave, sealed, restored).is_ok());
  EXPECT_EQ(restored.snapshot(), original.snapshot());
}

TEST(Checkpoint, EmptyHistory) {
  auto enclave = make_enclave();
  QueryHistory original(10);
  const Bytes sealed = seal_history(enclave, original);
  QueryHistory restored(10);
  ASSERT_TRUE(restore_history(enclave, sealed, restored).is_ok());
  EXPECT_EQ(restored.size(), 0u);
}

TEST(Checkpoint, RestoreAcrossEnclaveInstances) {
  // Same code identity on the same platform (this process) = same sealing
  // key: a restarted proxy can restore.
  auto first = make_enclave();
  QueryHistory original(10);
  original.add("persisted across restart");
  const Bytes sealed = seal_history(first, original);

  auto restarted = make_enclave();
  QueryHistory restored(10);
  ASSERT_TRUE(restore_history(restarted, sealed, restored).is_ok());
  EXPECT_EQ(restored.snapshot().front(), "persisted across restart");
}

TEST(Checkpoint, DifferentCodeCannotRestore) {
  auto genuine = make_enclave();
  QueryHistory original(10);
  original.add("secret query");
  const Bytes sealed = seal_history(genuine, original);

  auto other = make_enclave("different-code");
  QueryHistory restored(10);
  EXPECT_FALSE(restore_history(other, sealed, restored).is_ok());
  EXPECT_EQ(restored.size(), 0u);
}

TEST(Checkpoint, TamperedBlobRejected) {
  auto enclave = make_enclave();
  QueryHistory original(10);
  original.add("query");
  Bytes sealed = seal_history(enclave, original);
  sealed[sealed.size() / 2] ^= 1;
  QueryHistory restored(10);
  EXPECT_FALSE(restore_history(enclave, sealed, restored).is_ok());
}

TEST(Checkpoint, HostNeverSeesPlaintext) {
  auto enclave = make_enclave();
  QueryHistory original(10);
  const std::string secret = "very-identifiable-medical-query";
  original.add(secret);
  const Bytes sealed = seal_history(enclave, original);
  const std::string blob = to_string(sealed);
  EXPECT_EQ(blob.find(secret), std::string::npos);
}

TEST(Checkpoint, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "xs_checkpoint.bin";
  auto enclave = make_enclave();
  QueryHistory original(20);
  for (int i = 0; i < 20; ++i) original.add("fq " + std::to_string(i));

  ASSERT_TRUE(write_checkpoint_file(path, seal_history(enclave, original)).is_ok());
  const auto loaded = read_checkpoint_file(path);
  ASSERT_TRUE(loaded.is_ok());
  QueryHistory restored(20);
  ASSERT_TRUE(restore_history(enclave, loaded.value(), restored).is_ok());
  EXPECT_EQ(restored.snapshot(), original.snapshot());
  std::filesystem::remove(path);
}

TEST(Checkpoint, MissingFileFails) {
  EXPECT_FALSE(read_checkpoint_file("/nonexistent/checkpoint.bin").is_ok());
}

TEST(Checkpoint, TruncatedFileRejectedCleanly) {
  // Regression: a crash mid-write used to leave a truncated blob at the
  // target path that poisoned the next restore. Writes are now atomic
  // (temp + rename), but a host can still truncate the file; the restore
  // must fail cleanly, not half-replay.
  const auto path =
      std::filesystem::temp_directory_path() / "xs_checkpoint_truncated.bin";
  auto enclave = make_enclave();
  QueryHistory original(50);
  for (int i = 0; i < 30; ++i) original.add("entry " + std::to_string(i));
  ASSERT_TRUE(write_checkpoint_file(path, seal_history(enclave, original)).is_ok());

  // Truncate the persisted blob to half (what an interrupted non-atomic
  // write would have produced).
  const auto full = read_checkpoint_file(path);
  ASSERT_TRUE(full.is_ok());
  Bytes half(full.value().begin(),
             full.value().begin() + static_cast<std::ptrdiff_t>(full.value().size() / 2));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(half.data()),
              static_cast<std::streamsize>(half.size()));
  }

  const auto loaded = read_checkpoint_file(path);
  ASSERT_TRUE(loaded.is_ok());
  QueryHistory restored(50);
  EXPECT_FALSE(restore_history(enclave, loaded.value(), restored).is_ok());
  std::filesystem::remove(path);
}

TEST(Checkpoint, WriteLeavesNoTempFileBehind) {
  const auto dir = std::filesystem::temp_directory_path() / "xs_ckpt_atomic_dir";
  std::filesystem::remove_all(dir);
  const auto path = dir / "history.ckpt";
  auto enclave = make_enclave();
  QueryHistory history(10);
  history.add("q");
  ASSERT_TRUE(write_checkpoint_file(path, seal_history(enclave, history)).is_ok());
  // The directory was created on demand and holds exactly the checkpoint —
  // the temp file was renamed into place, not left beside it.
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename(), "history.ckpt");
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, OverCapacityRestoreKeepsNewestEntries) {
  // Regression: restoring a checkpoint wider than the target window used to
  // replay oldest-first, wasting the whole window on entries the replay
  // itself evicted. Only the newest `capacity` entries must land.
  auto enclave = make_enclave();
  QueryHistory original(100);
  for (int i = 0; i < 100; ++i) original.add("q" + std::to_string(i));
  const Bytes sealed = seal_history(enclave, original);

  QueryHistory narrow(10);
  ASSERT_TRUE(restore_history(enclave, sealed, narrow).is_ok());
  EXPECT_EQ(narrow.size(), 10u);
  EXPECT_EQ(narrow.snapshot(),
            (std::vector<std::string>{"q90", "q91", "q92", "q93", "q94", "q95",
                                      "q96", "q97", "q98", "q99"}));
}

// The blob is `magic || version 4 || entries`: nothing but the history.
TEST(Checkpoint, V4HoldsTheHistoryAlone) {
  auto enclave = make_enclave();
  QueryHistory original(10);
  original.add("warm");
  const auto plain = enclave.unseal(seal_history(enclave, original));
  ASSERT_TRUE(plain.is_ok());
  Bytes expected;
  wire::put_u32(expected, 0x58534850);  // "XSHP"
  wire::put_u32(expected, 4);
  wire::put_u32(expected, 1);
  wire::put_string(expected, "warm");
  EXPECT_EQ(plain.value(), expected);
}

// Formats v1 (entries only), v2 (entries + per-session counts) and v3
// (entries behind a restart epoch) are retired: a correctly sealed blob of
// any of them is refused before any entry is replayed, and the proxy
// starts cold.
TEST(Checkpoint, OlderVersionsAreRefused) {
  auto enclave = make_enclave();
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    Bytes plain;
    wire::put_u32(plain, 0x58534850);  // "XSHP"
    wire::put_u32(plain, version);
    if (version == 3) wire::put_u64(plain, 5);  // the restart epoch
    wire::put_u32(plain, 2);
    wire::put_string(plain, "old one");
    wire::put_string(plain, "old two");
    if (version == 2) wire::put_u32(plain, 0);  // empty session section
    const Bytes sealed = enclave.seal(plain);

    QueryHistory restored(10);
    restored.add("already here");
    const Status status = restore_history(enclave, sealed, restored);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "v" << version;
    EXPECT_NE(status.message().find("unsupported version"), std::string::npos)
        << status.to_string();
    EXPECT_EQ(restored.snapshot(), std::vector<std::string>{"already here"});
  }
}

TEST(Checkpoint, TruncatedLastEntryLeavesHistoryUntouched) {
  // A correctly sealed v4 plaintext whose last entry claims more bytes than
  // the blob holds: the restore validates the whole blob before inserting,
  // so the two good entries before it must not land either.
  auto enclave = make_enclave();
  Bytes plain;
  wire::put_u32(plain, 0x58534850);  // "XSHP"
  wire::put_u32(plain, 4);
  wire::put_u32(plain, 3);
  wire::put_string(plain, "good one");
  wire::put_string(plain, "good two");
  wire::put_u32(plain, 64);  // the last entry's length, with 4 bytes behind it
  append(plain, to_bytes("trun"));
  const Bytes sealed = enclave.seal(plain);

  sgx::EpcAccountant epc;
  QueryHistory restored(10, &epc);
  restored.add("already here");
  const std::size_t bytes_before = restored.memory_bytes();
  EXPECT_FALSE(restore_history(enclave, sealed, restored).is_ok());
  EXPECT_EQ(restored.snapshot(), std::vector<std::string>{"already here"});
  EXPECT_EQ(restored.memory_bytes(), bytes_before);
  EXPECT_EQ(epc.in_use(), bytes_before);
}

TEST(Checkpoint, RestoredHistoryFeedsObfuscation) {
  auto enclave = make_enclave();
  QueryHistory original(100);
  for (int i = 0; i < 40; ++i) original.add("warm " + std::to_string(i));
  const Bytes sealed = seal_history(enclave, original);

  QueryHistory restored(100);
  ASSERT_TRUE(restore_history(enclave, sealed, restored).is_ok());
  Rng rng(5);
  const auto fakes = restored.sample(3, rng);
  EXPECT_EQ(fakes.size(), 3u);  // no cold start after restore
}

}  // namespace
}  // namespace xsearch::core
