// Sealed checkpoints of the query history.
//
// The obfuscation quality of a freshly started proxy is poor until its
// history warms up (cold start = no decoys). SGX's sealed storage solves
// this: the enclave serializes the table, seals it under its measurement
// key, and the *untrusted* host persists the blob. After a restart, an
// enclave running the same code — and only such an enclave — can restore
// it. The queries never touch the host in plaintext.
//
// Format v4 is `magic || version 4 || entries`: the history and nothing
// else, so the blob's size depends on the history alone, not on how many
// sessions ever existed. Nothing in it keys a session stream. Each run keys
// its streams from the enclave's own entropy, so a blob restored twice, or
// not at all, never brings back the decoys or envelope keys of an earlier
// run (ARCHITECTURE.md, "Enclave entropy").
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

/// Serializes the full history contents (oldest first) and seals them to
/// `enclave`'s measurement (format v4). Reads the window in one pass,
/// without copying it, into the buffer that is sealed in place. Runs inside
/// the trusted side.
[[nodiscard]] Bytes seal_history(sgx::EnclaveRuntime& enclave,
                                 const QueryHistory& history);

/// Unseals a v4 checkpoint where it lies (the function owns `sealed`; move
/// the blob in to spare a copy) and loads it into `history` (appending, in
/// the checkpointed order) with one `add_all`. A checkpoint holding more
/// entries than `history.capacity()` keeps only the *newest* capacity
/// entries — the older ones would be evicted by the very load that
/// inserted them. Fails if the blob was sealed by different enclave code,
/// tampered with or malformed; a blob of any other version (v3 included)
/// is refused with "unsupported version". The whole blob is validated
/// before anything is inserted, so after any failure `history` is
/// unchanged.
[[nodiscard]] Status restore_history(const sgx::EnclaveRuntime& enclave,
                                     Bytes sealed, QueryHistory& history);

/// Host-side helpers: persist / load the opaque blob. The write is
/// crash-atomic and durable — the blob lands in a temp file in the
/// target's directory, is fsynced, rename(2)d into place, and the
/// directory is fsynced — so a crash or power loss mid-write leaves either
/// the previous checkpoint or the new one, never a truncated blob that
/// poisons the next restore. A failed write or fsync is an error.
[[nodiscard]] Status write_checkpoint_file(const std::filesystem::path& path,
                                           ByteSpan sealed);
[[nodiscard]] Result<Bytes> read_checkpoint_file(const std::filesystem::path& path);

}  // namespace xsearch::core
