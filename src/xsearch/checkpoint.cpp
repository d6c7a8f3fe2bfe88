#include "xsearch/checkpoint.hpp"

#include <fstream>
#include <system_error>

#include "xsearch/wire.hpp"

namespace xsearch::core {

namespace {
constexpr std::uint32_t kCheckpointMagic = 0x58534850;  // "XSHP"
constexpr std::uint32_t kCheckpointVersion = 2;
}  // namespace

Bytes seal_history(sgx::EnclaveRuntime& enclave, const QueryHistory& history,
                   const SessionObfuscationCounts& sessions) {
  const auto entries = history.snapshot();
  Bytes plain;
  wire::put_u32(plain, kCheckpointMagic);
  wire::put_u32(plain, kCheckpointVersion);
  wire::put_u32(plain, static_cast<std::uint32_t>(entries.size()));
  for (const auto& q : entries) wire::put_string(plain, q);
  wire::put_u32(plain, static_cast<std::uint32_t>(sessions.size()));
  for (const auto& [id, obfuscations] : sessions) {
    wire::put_u64(plain, id);
    wire::put_u64(plain, obfuscations);
  }
  return enclave.seal(plain);
}

Status restore_history(const sgx::EnclaveRuntime& enclave, ByteSpan sealed,
                       QueryHistory& history, SessionObfuscationCounts* sessions) {
  if (sessions != nullptr) sessions->clear();
  auto plain = enclave.unseal(sealed);
  if (!plain) return plain.status();

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
  // A checkpoint wider than the restored window would spend the whole
  // window on entries the replay itself immediately evicts; every parsed
  // entry still validates the blob, only the add() is skipped.
  const std::uint64_t skip =
      count.value() > history.capacity() ? count.value() - history.capacity() : 0;
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto q = wire::get_string(raw, offset);
    if (!q) return q.status();
    if (i >= skip) history.add(q.value());
  }
  auto session_count = wire::get_u32(raw, offset);
  if (!session_count) return session_count.status();
  for (std::uint32_t i = 0; i < session_count.value(); ++i) {
    auto id = wire::get_u64(raw, offset);
    if (!id) return id.status();
    auto obfuscations = wire::get_u64(raw, offset);
    if (!obfuscations) return obfuscations.status();
    if (sessions != nullptr) {
      sessions->emplace_back(id.value(), obfuscations.value());
    }
  }
  if (offset != raw.size()) return data_loss("checkpoint: trailing bytes");
  return Status::ok();
}

Status write_checkpoint_file(const std::filesystem::path& path, ByteSpan sealed) {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);  // best effort
  }
  // Crash atomicity: a temp file in the same directory (rename does not
  // cross filesystems) replaces the target only once fully written. A crash
  // at any point leaves the previous checkpoint intact or an ignorable
  // *.tmp — never a truncated blob at `path`.
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return unavailable("cannot open checkpoint for writing: " + tmp.string());
    out.write(reinterpret_cast<const char*>(sealed.data()),
              static_cast<std::streamsize>(sealed.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return data_loss("short checkpoint write: " + tmp.string());
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return data_loss("checkpoint rename failed: " + path.string());
  }
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
