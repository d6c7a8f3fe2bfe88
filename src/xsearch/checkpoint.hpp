// Sealed checkpoints of the query history.
//
// The obfuscation quality of a freshly started proxy is poor until its
// history warms up (cold start = no decoys). SGX's sealed storage solves
// this: the enclave serializes the table, seals it under its measurement
// key, and the *untrusted* host persists the blob. After a restart, an
// enclave running the same code — and only such an enclave — can restore
// it. The queries never touch the host in plaintext.
//
// Format v3 is `magic || version 3 || epoch u64 || entries`. The epoch
// counts warm restarts: a proxy that restores epoch e runs epoch e + 1 and
// seals it at once, and every session's decoy stream is keyed by (seed,
// insert ordinal, epoch), so a session created after the restart never
// replays an OR query the crashed run sent — replayed decoys would let an
// engine-side observer link pre- and post-restart traffic. The blob's size depends on the history alone,
// not on how many sessions ever existed.
//
// This is an extension beyond the paper's prototype, built from the
// sealing primitive its §2.3 describes.
#pragma once

#include <cstdint>
#include <filesystem>

#include "common/status.hpp"
#include "sgx/enclave.hpp"
#include "xsearch/history.hpp"

namespace xsearch::core {

/// Serializes the full history contents (oldest first) and the run's
/// restart `epoch`, and seals them to `enclave`'s measurement (format v3).
/// Reads the window in one pass under one shared lock, without copying it,
/// into the buffer that is sealed in place. Runs inside the trusted side.
[[nodiscard]] Bytes seal_history(sgx::EnclaveRuntime& enclave,
                                 const QueryHistory& history,
                                 std::uint64_t epoch = 0);

/// Unseals a v3 checkpoint where it lies (the function owns `sealed`; move
/// the blob in to spare a copy) and loads it into `history` (appending, in
/// the checkpointed order) with one `add_all`. A checkpoint holding more
/// entries than `history.capacity()` keeps only the *newest* capacity
/// entries — the older ones would be evicted by the very load that
/// inserted them. When `epoch` is non-null, the sealed epoch is written
/// there. Fails if the blob was sealed by different enclave code, tampered
/// with or malformed; a blob of any other version is refused with
/// "unsupported version". The whole blob is validated before anything is
/// inserted, so after any failure `history` and `*epoch` are unchanged.
[[nodiscard]] Status restore_history(const sgx::EnclaveRuntime& enclave,
                                     Bytes sealed, QueryHistory& history,
                                     std::uint64_t* epoch = nullptr);

/// Host-side helpers: persist / load the opaque blob. The write is
/// crash-atomic — the blob lands in a temp file in the target's directory
/// and is rename(2)d into place — so a crash mid-write leaves either the
/// previous checkpoint or none, never a truncated blob that poisons the
/// next restore.
[[nodiscard]] Status write_checkpoint_file(const std::filesystem::path& path,
                                           ByteSpan sealed);
[[nodiscard]] Result<Bytes> read_checkpoint_file(const std::filesystem::path& path);

}  // namespace xsearch::core
