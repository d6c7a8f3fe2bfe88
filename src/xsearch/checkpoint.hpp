// Sealed checkpoints of the query history.
//
// The obfuscation quality of a freshly started proxy is poor until its
// history warms up (cold start = no decoys). SGX's sealed storage solves
// this: the enclave serializes the table, seals it under its measurement
// key, and the *untrusted* host persists the blob. After a restart, an
// enclave running the same code — and only such an enclave — can restore
// it. The queries never touch the host in plaintext.
//
// Format v2 additionally carries per-session obfuscator state: how many
// obfuscations each live session had performed at seal time. A restored
// proxy folds those counts into the per-session RNG derivation, so a
// session resumed under its old id draws a *fresh* decoy stream instead of
// replaying the pre-crash one — replayed decoys would let an engine-side
// observer link pre- and post-restart traffic of the same session.
//
// This is an extension beyond the paper's prototype, built from the
// sealing primitive its §2.3 describes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "sgx/enclave.hpp"
#include "xsearch/history.hpp"

namespace xsearch::core {

/// Per-session obfuscator state carried by a checkpoint: (session id,
/// obfuscations performed). Ids are untrusted routing metadata; the counts
/// are privacy-relevant (see header comment) and therefore sealed.
using SessionObfuscationCounts =
    std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Serializes the full history contents (oldest first) plus the
/// per-session obfuscation counts and seals them to `enclave`'s
/// measurement (format v2). Reads the window in one pass under one shared
/// lock, without copying it, into the buffer that is sealed in place. Runs
/// inside the trusted side.
[[nodiscard]] Bytes seal_history(sgx::EnclaveRuntime& enclave,
                                 const QueryHistory& history,
                                 const SessionObfuscationCounts& sessions = {});

/// Unseals a v2 checkpoint where it lies (the function owns `sealed`; move
/// the blob in to spare a copy) and loads it into `history` (appending, in
/// the checkpointed order) with one `add_all`. A checkpoint holding more
/// entries than `history.capacity()` keeps only the *newest* capacity
/// entries — the older ones would be evicted by the very load that
/// inserted them. When `sessions` is non-null, the blob's per-session
/// obfuscation counts are written there. Fails if the blob was sealed by
/// different enclave code, tampered with or malformed; a blob of any other
/// version is refused with "unsupported version". The whole blob is
/// validated before anything is inserted, so after any failure `history`
/// is unchanged and `sessions` is empty.
[[nodiscard]] Status restore_history(const sgx::EnclaveRuntime& enclave,
                                     Bytes sealed, QueryHistory& history,
                                     SessionObfuscationCounts* sessions = nullptr);

/// Host-side helpers: persist / load the opaque blob. The write is
/// crash-atomic — the blob lands in a temp file in the target's directory
/// and is rename(2)d into place — so a crash mid-write leaves either the
/// previous checkpoint or none, never a truncated blob that poisons the
/// next restore.
[[nodiscard]] Status write_checkpoint_file(const std::filesystem::path& path,
                                           ByteSpan sealed);
[[nodiscard]] Result<Bytes> read_checkpoint_file(const std::filesystem::path& path);

}  // namespace xsearch::core
