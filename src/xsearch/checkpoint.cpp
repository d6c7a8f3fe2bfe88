#include "xsearch/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <fstream>
#include <string_view>
#include <system_error>

#include "xsearch/wire.hpp"

namespace xsearch::core {

namespace {
constexpr std::uint32_t kCheckpointMagic = 0x58534850;  // "XSHP"
constexpr std::uint32_t kCheckpointVersion = 4;
}  // namespace

Bytes seal_history(sgx::EnclaveRuntime& enclave, const QueryHistory& history) {
  // One pass over the window's chunks, into the buffer that becomes the
  // sealed blob, sized exactly up front: no copy of the window, no
  // regrowth, and the seal encrypts where the bytes lie.
  Bytes blob = history.with_entries([&](const QueryHistory::Entries& entries) {
    std::size_t entry_bytes = 0;
    entries.for_each([&entry_bytes](std::string_view q) { entry_bytes += 4 + q.size(); });
    Bytes out;
    out.reserve(sgx::EnclaveRuntime::kSealHeaderBytes + 3 * 4 + entry_bytes +
                sgx::EnclaveRuntime::kSealTrailerBytes);
    out.resize(sgx::EnclaveRuntime::kSealHeaderBytes);
    wire::put_u32(out, kCheckpointMagic);
    wire::put_u32(out, kCheckpointVersion);
    wire::put_u32(out, static_cast<std::uint32_t>(entries.size()));
    const std::size_t at = out.size();
    out.resize(at + entry_bytes);
    std::uint8_t* cursor = out.data() + at;
    entries.for_each([&cursor](std::string_view q) { cursor = wire::write_string(cursor, q); });
    return out;
  });
  enclave.seal_in_place(blob);
  return blob;
}

Status restore_history(const sgx::EnclaveRuntime& enclave, Bytes sealed,
                       QueryHistory& history) {
  auto plain = enclave.unseal_in_place(sealed);
  if (!plain) return plain.status();

  // The whole blob is decrypted where it lies, then parsed and validated
  // as views of it before anything is inserted, so a malformed blob leaves
  // `history` as it was and each accepted entry is copied exactly once,
  // into the window's chunks.
  const ByteSpan raw(plain.value());
  std::size_t offset = 0;
  auto magic = wire::get_u32(raw, offset);
  if (!magic || magic.value() != kCheckpointMagic) {
    return data_loss("checkpoint: bad magic");
  }
  auto version = wire::get_u32(raw, offset);
  if (!version || version.value() != kCheckpointVersion) {
    return data_loss("checkpoint: unsupported version");
  }
  auto count = wire::get_u32(raw, offset);
  if (!count) return count.status();
  // Every entry holds at least its length word: a count the remaining
  // bytes cannot hold is refused before anything is reserved.
  if (count.value() > (raw.size() - offset) / 4) {
    return data_loss("checkpoint: entry count exceeds blob");
  }
  std::vector<std::string_view> entries;
  entries.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto q = wire::get_view(raw, offset);
    if (!q) return q.status();
    entries.push_back(q.value());
  }
  if (offset != raw.size()) return data_loss("checkpoint: trailing bytes");

  // A checkpoint wider than the window keeps only its newest entries: the
  // history skips those the load itself would evict.
  history.add_all(entries);
  return Status::ok();
}

Status write_checkpoint_file(const std::filesystem::path& path, ByteSpan sealed) {
  std::error_code ec;
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : std::filesystem::path(".");
  std::filesystem::create_directories(dir, ec);  // best effort
  // Crash atomicity: a temp file in the same directory (rename does not
  // cross filesystems) replaces the target only once written and fsynced,
  // and the directory is fsynced after the rename, so a crash or power
  // loss leaves the old or the new checkpoint — never a truncated blob.
  const std::filesystem::path tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  if (fd < 0) return unavailable("cannot open checkpoint for writing: " + tmp.string());
  // A regular file takes the whole blob in one write unless the disk fails.
  const bool synced =
      ::write(fd, sealed.data(), sealed.size()) == static_cast<ssize_t>(sealed.size()) &&
      ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    std::filesystem::remove(tmp, ec);
    return data_loss("short or unsynced checkpoint write: " + tmp.string());
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return data_loss("checkpoint rename failed: " + path.string());
  }
  // The rename itself is durable only once the directory entry is.
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool dir_synced = dir_fd >= 0 && ::fsync(dir_fd) == 0;
  if (dir_fd >= 0) ::close(dir_fd);
  if (!dir_synced) return data_loss("checkpoint directory fsync failed: " + dir.string());
  return Status::ok();
}

Result<Bytes> read_checkpoint_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return unavailable("cannot open checkpoint: " + path.string());
  const std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in.good()) return data_loss("short checkpoint read: " + path.string());
  return data;
}

}  // namespace xsearch::core
