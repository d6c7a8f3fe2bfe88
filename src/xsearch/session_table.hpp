// Bounded, sharded table of client sessions.
//
// The paper's proxy is multi-threaded with shared in-enclave state (§4.1);
// this table is the session half of that claim. Each established client
// channel lives here behind two levels of locking:
//
//  * a *shard* mutex guards the id → session map and the shard's LRU list —
//    held only for O(1) bookkeeping, never across crypto or the engine trip;
//  * a *per-session* mutex serializes SecureChannel open/seal — the channel
//    carries per-direction nonce counters, so concurrent records on one
//    session must be processed in the order the client sealed them, while
//    queries on *different* sessions proceed in parallel.
//
// Locking order: a shard mutex and a session mutex are never held at the
// same time. `acquire` takes the shard lock, refreshes the LRU position,
// extracts a shared_ptr, releases the shard lock, and only then blocks on
// the session lock. Eviction concurrent with use is safe: the map drops its
// reference but the in-flight `LockedSession` keeps the session alive until
// the request finishes.
//
// The table is bounded by one cap, so sessions cannot exhaust the ~90 MiB
// EPC no matter how many clients connect: past `capacity`, the least
// recently used session is evicted. Idle reaping is the host's business
// (the reactor's idle TTL closes quiet connections), so trusted code here
// never reads a clock. Every live session is charged against the enclave's
// EpcAccountant, which is how the Figure 6 methodology meters enclave
// occupancy.
//
// Each session also owns its *random number streams*: a fast Rng for
// obfuscation sampling and a ChaCha-based SecureRandom for engine-link
// envelope seals, both forked from the table's stream key and the insert
// ordinal with one ChaCha20 block. The proxy draws that key from the
// enclave's entropy for each table, so no host-set value and no earlier
// run determines a stream. They live behind the per-session lock, so the
// query hot path draws randomness with no cross-session serialization (see
// ARCHITECTURE.md "Hot path & performance"). They are keyed by the
// ordinal, not the session id, because the host proposes ids and may reuse
// one within a run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "crypto/random.hpp"
#include "crypto/secure_channel.hpp"
#include "sgx/epc.hpp"

namespace xsearch::core {

class SessionTable {
 public:
  struct Options {
    /// Maximum live sessions across all shards. Enforced per shard with
    /// quotas summing exactly to `capacity` (the remainder of
    /// capacity/shards is spread over the first shards); session ids are
    /// assigned round-robin, so the shards fill evenly.
    std::size_t capacity = 4096;
    /// Lock shards; more shards = less contention between sessions.
    std::size_t shards = 8;
  };

  /// `stream_key` keys every session's RNG streams: the n-th insert forks
  /// its streams from (stream_key, n), whatever id it gets.
  SessionTable(Options options, const crypto::ChaChaKey& stream_key,
               sgx::EpcAccountant* epc = nullptr);
  ~SessionTable();

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

 private:
  struct Session;

 public:
  /// RAII view of one live session: holds the session alive and its lock,
  /// so the caller may use the channel without racing other threads on the
  /// same session. Falsy when the session is unknown or evicted.
  class LockedSession {
   public:
    LockedSession() = default;
    LockedSession(LockedSession&&) = default;
    // Member-wise move *assignment* would destroy the old session before
    // releasing its lock (declaration order), so it is not offered.
    LockedSession& operator=(LockedSession&&) = delete;

    [[nodiscard]] explicit operator bool() const { return session_ != nullptr; }
    [[nodiscard]] crypto::SecureChannel& channel();

    /// The session's private obfuscation RNG stream (forked from the table's
    /// stream key). Guarded by the held per-session lock.
    [[nodiscard]] Rng& rng();
    /// The session's private ChaCha DRBG for envelope seals. Guarded by the
    /// held per-session lock.
    [[nodiscard]] crypto::SecureRandom& secure_rng();

   private:
    friend class SessionTable;
    explicit LockedSession(std::shared_ptr<Session> session);

    std::shared_ptr<Session> session_;
    std::unique_lock<Mutex> lock_;
  };

  /// Registers an established channel and returns its session id. May evict
  /// the least-recently-used session of the target shard to stay bounded.
  /// A nonzero `proposed_id` is used as the session id when free (a fleet
  /// router proposes ids that consistent-hash back to the worker it chose);
  /// returns 0 — no session inserted — when the id is already taken.
  [[nodiscard]] std::uint64_t insert(crypto::SecureChannel channel,
                                     std::uint64_t proposed_id = 0);

  /// Looks up a session, refreshes its LRU position, and returns it locked.
  [[nodiscard]] LockedSession acquire(std::uint64_t session_id);

  [[nodiscard]] std::size_t size() const;
  /// `sessions.*`: created, evicted_lru, misses (unknown ids acquired);
  /// gauges active, peak_active, epc_bytes.
  [[nodiscard]] metrics::Snapshot metrics() const { return metrics_.snapshot(); }

  /// EPC bytes accounted per live session (channel state + table node
  /// bookkeeping) — what `insert` charges and eviction releases.
  [[nodiscard]] static std::size_t session_epc_bytes();

 private:
  struct Shard {
    std::size_t capacity = 0;  // this shard's share of Options::capacity
    Mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions
        XS_GUARDED_BY(mutex);
    std::list<std::uint64_t> lru XS_GUARDED_BY(mutex);  // front = most recent
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t session_id) {
    return *shards_[session_id % shards_.size()];
  }

  const crypto::ChaChaKey stream_key_;
  sgx::EpcAccountant* epc_;

  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> next_id_{1};
  // Insert ordinal that keys each session's RNG streams; never reused
  // within a table, unlike ids, which the host may propose again.
  std::atomic<std::uint64_t> next_stream_{1};

  metrics::Registry metrics_{"sessions"};
  metrics::Counter& created_ = metrics_.counter("created");
  metrics::Counter& evicted_lru_ = metrics_.counter("evicted_lru");
  metrics::Counter& misses_ = metrics_.counter("misses");
  metrics::Gauge& active_ = metrics_.gauge("active");
  metrics::Gauge& peak_active_ = metrics_.gauge("peak_active");
  metrics::Gauge& epc_bytes_ = metrics_.gauge("epc_bytes");
};

}  // namespace xsearch::core
