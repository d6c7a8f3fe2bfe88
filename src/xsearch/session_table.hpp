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
// The table is bounded two ways, so sessions cannot exhaust the ~90 MiB EPC
// no matter how many clients connect (the unbounded map this replaces grew
// forever): a capacity cap with LRU eviction, and an optional idle TTL.
// Every live session is charged against the enclave's EpcAccountant, which
// is how the Figure 6 methodology meters enclave occupancy.
//
// Each session also owns its *random number streams*: a fast Rng for
// obfuscation sampling and a ChaCha-based SecureRandom for engine-link
// envelope seals, both derived deterministically from (Options::rng_seed,
// session id). They live behind the per-session lock, so the query hot path
// draws randomness with no cross-session serialization — this is what let
// the proxy drop its global rng_mutex_ (see ARCHITECTURE.md "Hot path &
// performance").
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.hpp"
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
    /// Sessions idle longer than this are expired (0 = never expire).
    Nanos idle_ttl = 0;
    /// Lock shards; more shards = less contention between sessions.
    std::size_t shards = 8;
    /// Base seed the per-session RNG streams are forked from. Every
    /// session's streams are a pure function of (rng_seed, session id), so
    /// a given seed replays each session's random draws exactly. The
    /// obfuscation decisions built from those draws also depend on the
    /// shared QueryHistory's contents at query time, which track the
    /// global order of add() calls — full replay needs the query
    /// interleaving too, not just the seed.
    std::uint64_t rng_seed = 0x5eed;
  };

  /// Injectable time source (tests pass a fake; default is wall_now).
  using Clock = std::function<Nanos()>;

  explicit SessionTable(Options options, sgx::EpcAccountant* epc = nullptr,
                        Clock clock = {});
  ~SessionTable();

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

 private:
  struct Session;

 public:
  /// RAII view of one live session: holds the session alive and its lock,
  /// so the caller may use the channel without racing other threads on the
  /// same session. Falsy when the session is unknown, expired, or evicted.
  class LockedSession {
   public:
    LockedSession() = default;
    LockedSession(LockedSession&&) = default;
    // Member-wise move *assignment* would destroy the old session before
    // releasing its lock (declaration order), so it is not offered.
    LockedSession& operator=(LockedSession&&) = delete;

    [[nodiscard]] explicit operator bool() const { return session_ != nullptr; }
    [[nodiscard]] crypto::SecureChannel& channel();

    /// The session's private obfuscation RNG stream (deterministic fork of
    /// the table seed). Guarded by the held per-session lock.
    [[nodiscard]] Rng& rng();
    /// The session's private ChaCha DRBG for envelope seals. Guarded by the
    /// held per-session lock.
    [[nodiscard]] crypto::SecureRandom& secure_rng();

    /// Records one obfuscation performed on this session (the proxy calls
    /// it per query). The count is what v2 checkpoints seal as per-session
    /// obfuscator state.
    void note_obfuscation();
    [[nodiscard]] std::uint64_t obfuscations() const;

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

  /// Looks up a session, refreshes its LRU/idle position, and returns it
  /// locked. Expired sessions encountered on the way are evicted.
  [[nodiscard]] LockedSession acquire(std::uint64_t session_id);

  /// Removes a session explicitly (client teardown). False when unknown.
  bool erase(std::uint64_t session_id);

  /// Evicts every idle-expired session; returns how many were removed.
  std::size_t sweep_expired();

  [[nodiscard]] std::size_t size() const;
  /// `sessions.*`: created, evicted_lru, expired_ttl, erased, misses
  /// (unknown ids acquired); gauges active, peak_active, epc_bytes.
  [[nodiscard]] metrics::Snapshot metrics() const { return metrics_.snapshot(); }
  [[nodiscard]] const Options& options() const { return options_; }

  /// The per-session obfuscator state a v2 checkpoint seals: for every
  /// live session its *cumulative* stream position (restored base
  /// generation + obfuscations performed since), plus the carried-forward
  /// entries of restored ids that never resumed. Cumulative so generations
  /// only ever advance across repeated crash/restore cycles — a regressed
  /// generation would re-derive an already-spent decoy stream.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  checkpoint_generations() const;

  /// Installs restored per-session obfuscator state: a session later
  /// inserted under one of these ids derives its RNG streams from
  /// (rng_seed, id, generation) instead of (rng_seed, id), so a session
  /// resumed under its pre-crash id never replays the decoy draws it
  /// already spent. Must be called before the table is used concurrently
  /// (the proxy calls it during construction); the map is immutable after.
  void set_resume_generations(
      std::vector<std::pair<std::uint64_t, std::uint64_t>> generations);

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
  [[nodiscard]] const Shard& shard_for(std::uint64_t session_id) const {
    return *shards_[session_id % shards_.size()];
  }

  /// Removes the session `it` points at. Caller holds the shard mutex.
  void remove_locked(Shard& shard,
                     std::unordered_map<std::uint64_t,
                                        std::shared_ptr<Session>>::iterator it)
      XS_REQUIRES(shard.mutex);
  /// Evicts idle-expired sessions from the shard's cold end. Caller holds
  /// the shard mutex. Returns the number evicted.
  std::size_t evict_expired_locked(Shard& shard, Nanos now)
      XS_REQUIRES(shard.mutex);

  const Options options_;
  sgx::EpcAccountant* epc_;
  Clock now_;

  // Restored (session id -> generation) map; written once during
  // single-threaded construction, read-only afterwards (see
  // set_resume_generations).
  std::unordered_map<std::uint64_t, std::uint64_t> resume_generations_;

  // Cumulative stream positions of sessions that were evicted, expired, or
  // erased — checkpoints must remember spent streams of departed ids, not
  // just live ones. 16 bytes per departed session with draws; reset by a
  // restart (the checkpoint round-trips the entries that matter). Locking
  // order: a shard mutex may be held when taking this mutex, never the
  // reverse.
  mutable Mutex retained_generations_mutex_;
  std::unordered_map<std::uint64_t, std::uint64_t> retained_generations_
      XS_GUARDED_BY(retained_generations_mutex_);

  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> next_id_{1};

  metrics::Registry metrics_{"sessions"};
  metrics::Counter& created_ = metrics_.counter("created");
  metrics::Counter& evicted_lru_ = metrics_.counter("evicted_lru");
  metrics::Counter& expired_ttl_ = metrics_.counter("expired_ttl");
  metrics::Counter& erased_ = metrics_.counter("erased");
  metrics::Counter& misses_ = metrics_.counter("misses");
  metrics::Gauge& active_ = metrics_.gauge("active");
  metrics::Gauge& peak_active_ = metrics_.gauge("peak_active");
  metrics::Gauge& epc_bytes_ = metrics_.gauge("epc_bytes");
};

}  // namespace xsearch::core
