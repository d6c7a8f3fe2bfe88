#include "xsearch/session_table.hpp"

#include <algorithm>
#include <utility>

namespace xsearch::core {

namespace {

// Deterministic fork of the table seed for one session's fast RNG stream.
// `generation` is 0 for fresh sessions; a session resumed from a v2
// checkpoint under its old id forks a new stream per generation so the
// restored proxy never replays decoy draws the crashed one already made.
[[nodiscard]] std::uint64_t fork_seed(std::uint64_t base_seed, std::uint64_t id,
                                      std::uint64_t generation) {
  std::uint64_t state = base_seed ^ (id * 0x9e3779b97f4a7c15ULL) ^
                        (generation * 0xbf58476d1ce4e5b9ULL);
  return splitmix64(state);
}

// Deterministic ChaCha key for one session's SecureRandom. Domain-separated
// from the proxy-level DRBG (which tags byte 31 with 0x42).
[[nodiscard]] crypto::ChaChaKey fork_chacha_seed(std::uint64_t base_seed,
                                                 std::uint64_t id,
                                                 std::uint64_t generation) {
  crypto::ChaChaKey::Raw raw{};
  store_le64(raw.data(), base_seed);
  store_le64(raw.data() + 8, id);
  store_le64(raw.data() + 16, generation);
  raw[31] = 0x53;  // 'S' for session
  return crypto::ChaChaKey::absorb(raw);
}

}  // namespace

// One live client session. `mutex` serializes channel use and the RNG
// streams; `last_used` and `lru_it` are guarded by the owning shard's
// mutex, never by `mutex`.
struct SessionTable::Session {
  Session(crypto::SecureChannel ch, std::uint64_t id, std::uint64_t base_seed,
          std::uint64_t base_generation)
      : channel(std::move(ch)),
        generation(base_generation),
        rng(fork_seed(base_seed, id, base_generation)),
        secure_rng(fork_chacha_seed(base_seed, id, base_generation)) {}

  Mutex mutex;
  crypto::SecureChannel channel XS_GUARDED_BY(mutex);
  // Stream generation this session's RNG forks were derived with (0 for a
  // fresh session, the restored count for a resumed one). Checkpoints seal
  // generation + obfuscations so generations accumulate across crashes
  // instead of regressing to an already-spent stream.
  const std::uint64_t generation;
  Rng rng XS_GUARDED_BY(mutex);
  crypto::SecureRandom secure_rng XS_GUARDED_BY(mutex);
  // Obfuscations performed on this session; atomic because the count is
  // bumped under the session lock but snapshotted (for checkpoints) under
  // only the shard lock.
  std::atomic<std::uint64_t> obfuscations{0};
  Nanos last_used = 0;
  std::list<std::uint64_t>::iterator lru_it;
};

SessionTable::LockedSession::LockedSession(std::shared_ptr<Session> session)
    : session_(std::move(session)), lock_(session_->mutex) {}

// The three accessors below hand out fields guarded by the per-session
// mutex. The capability IS held — LockedSession owns it through `lock_` for
// its whole lifetime — but a movable lock handle crossing an object
// boundary is not expressible as a scoped capability, so the analysis is
// waived here (and the per-session discipline stays covered by TSan).
crypto::SecureChannel& SessionTable::LockedSession::channel()
    XS_NO_THREAD_SAFETY_ANALYSIS {
  return session_->channel;
}

Rng& SessionTable::LockedSession::rng() XS_NO_THREAD_SAFETY_ANALYSIS {
  return session_->rng;
}

crypto::SecureRandom& SessionTable::LockedSession::secure_rng()
    XS_NO_THREAD_SAFETY_ANALYSIS {
  return session_->secure_rng;
}

void SessionTable::LockedSession::note_obfuscation() {
  session_->obfuscations.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t SessionTable::LockedSession::obfuscations() const {
  return session_->obfuscations.load(std::memory_order_relaxed);
}

std::size_t SessionTable::session_epc_bytes() {
  // The session object (channel keys/counters/transcript hash + lock + LRU
  // bookkeeping) plus its shared_ptr control block, hash-map node, and LRU
  // list node. An estimate, like all accounting in the simulation — what
  // matters is that charge and release are exactly symmetric.
  return sizeof(Session) + 64 + 8 * sizeof(void*);
}

SessionTable::SessionTable(Options options, sgx::EpcAccountant* epc, Clock clock)
    : options_([&] {
        Options o = options;
        o.capacity = std::max<std::size_t>(1, o.capacity);
        o.shards = std::max<std::size_t>(1, std::min(o.shards, o.capacity));
        return o;
      }()),
      epc_(epc),
      // tcb-lint: allow(trusted-wall-clock) default Clock for hosts that inject none; expiry uses relative deltas only, so a lying host clock can at worst evict early (availability, not privacy)
      now_(clock ? std::move(clock) : Clock([] { return wall_now(); })) {
  shards_.reserve(options_.shards);
  // Quotas sum to exactly Options::capacity: the division remainder goes
  // one-each to the first shards.
  const std::size_t base = options_.capacity / options_.shards;
  const std::size_t remainder = options_.capacity % options_.shards;
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = base + (i < remainder ? 1 : 0);
  }
}

SessionTable::~SessionTable() {
  // Release everything still charged; eviction paths released the rest.
  if (epc_) epc_->release(epc_bytes_.value());
}

void SessionTable::remove_locked(
    Shard& shard,
    std::unordered_map<std::uint64_t, std::shared_ptr<Session>>::iterator it) {
  // Remember the departing session's cumulative stream position: its id can
  // recur (the standalone proxy's id counter restarts at 1 across restarts),
  // and a checkpoint that forgot it would hand the recurrence an
  // already-spent decoy stream. Ordering: shard mutex → generations mutex,
  // never the reverse.
  const std::uint64_t spent =
      it->second->generation +
      it->second->obfuscations.load(std::memory_order_relaxed);
  if (spent > 0) {
    MutexLock generations_lock(retained_generations_mutex_);
    retained_generations_[it->first] = spent;
  }
  shard.lru.erase(it->second->lru_it);
  shard.sessions.erase(it);
  active_.sub();
  epc_bytes_.sub(session_epc_bytes());
  if (epc_) epc_->release(session_epc_bytes());
}

std::size_t SessionTable::evict_expired_locked(Shard& shard, Nanos now) {
  if (options_.idle_ttl <= 0) return 0;
  std::size_t evicted = 0;
  // The LRU tail holds the longest-idle sessions, so expired ones form a
  // suffix and the sweep stops at the first live entry.
  while (!shard.lru.empty()) {
    const auto it = shard.sessions.find(shard.lru.back());
    if (now - it->second->last_used < options_.idle_ttl) break;
    remove_locked(shard, it);
    ++evicted;
  }
  expired_ttl_.inc(evicted);
  return evicted;
}

std::uint64_t SessionTable::insert(crypto::SecureChannel channel,
                                   std::uint64_t proposed_id) {
  const Nanos now = now_();
  std::uint64_t id = 0;
  for (;;) {
    id = proposed_id != 0 ? proposed_id
                          : next_id_.fetch_add(1, std::memory_order_relaxed);
    // A session resumed under a checkpointed id gets generation = the
    // obfuscation count the crashed proxy sealed, advancing its RNG
    // derivation past the spent stream (see set_resume_generations). The
    // retained map covers the same id departing and returning within one
    // run (eviction must not rewind the stream either); take the furthest
    // position known.
    std::uint64_t generation = 0;
    if (!resume_generations_.empty()) {
      const auto gen_it = resume_generations_.find(id);
      if (gen_it != resume_generations_.end()) generation = gen_it->second;
    }
    {
      MutexLock generations_lock(retained_generations_mutex_);
      const auto gen_it = retained_generations_.find(id);
      if (gen_it != retained_generations_.end()) {
        generation = std::max(generation, gen_it->second);
      }
    }
    auto session = std::make_shared<Session>(std::move(channel), id,
                                             options_.rng_seed, generation);

    Shard& shard = shard_for(id);
    MutexLock lock(shard.mutex);
    evict_expired_locked(shard, now);
    if (shard.sessions.contains(id)) {
      // Occupied either way (a proposed id may have landed ahead of the
      // counter): refuse a proposal, draw the next counter id otherwise —
      // a silent emplace no-op here would orphan an LRU entry and corrupt
      // the table's accounting.
      if (proposed_id != 0) return 0;
      {
        // The session was never published, so its lock is uncontended and
        // taking it under the shard lock cannot invert the documented
        // ordering against any other thread.
        MutexLock reclaim(session->mutex);
        channel = std::move(session->channel);  // reclaim for the retry
      }
      continue;
    }
    session->last_used = now;
    shard.lru.push_front(id);
    session->lru_it = shard.lru.begin();
    shard.sessions.emplace(id, std::move(session));
    active_.add();
    epc_bytes_.add(session_epc_bytes());
    if (epc_) epc_->charge(session_epc_bytes());
    while (shard.sessions.size() > shard.capacity) {
      remove_locked(shard, shard.sessions.find(shard.lru.back()));
      evicted_lru_.inc();
    }
    break;
  }

  created_.inc();
  peak_active_.raise_to(active_.value());
  return id;
}

SessionTable::LockedSession SessionTable::acquire(std::uint64_t session_id) {
  const Nanos now = now_();
  Shard& shard = shard_for(session_id);
  std::shared_ptr<Session> session;
  {
    MutexLock lock(shard.mutex);
    evict_expired_locked(shard, now);
    const auto it = shard.sessions.find(session_id);
    if (it == shard.sessions.end()) {
      misses_.inc();
      return LockedSession{};
    }
    session = it->second;
    session->last_used = now;
    shard.lru.splice(shard.lru.begin(), shard.lru, session->lru_it);
  }
  // The shard lock is released before blocking on the (possibly busy)
  // session lock — see the locking-order contract in the header.
  return LockedSession(std::move(session));
}

bool SessionTable::erase(std::uint64_t session_id) {
  Shard& shard = shard_for(session_id);
  MutexLock lock(shard.mutex);
  const auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) return false;
  remove_locked(shard, it);
  erased_.inc();
  return true;
}

std::size_t SessionTable::sweep_expired() {
  const Nanos now = now_();
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += evict_expired_locked(*shard, now);
  }
  return total;
}

std::size_t SessionTable::size() const { return active_.value(); }

std::vector<std::pair<std::uint64_t, std::uint64_t>>
SessionTable::checkpoint_generations() const {
  // Merge three layers, most current last, so an id's generation only ever
  // advances across repeated crash/restore cycles (a regressed generation
  // would re-derive a stream the engine already observed):
  //  1. the restored state — ids checkpointed before the crash that never
  //     resumed keep their spent-stream marker;
  //  2. retained positions of sessions evicted/expired/erased since —
  //     eviction must not erase how much of the stream the id spent;
  //  3. live sessions at their cumulative position (base generation +
  //     draws made since).
  std::unordered_map<std::uint64_t, std::uint64_t> merged(resume_generations_);
  {
    MutexLock generations_lock(retained_generations_mutex_);
    for (const auto& [id, generation] : retained_generations_) {
      merged[id] = generation;
    }
  }
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (const auto& [id, session] : shard->sessions) {
      merged[id] = session->generation +
                   session->obfuscations.load(std::memory_order_relaxed);
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(merged.size());
  for (const auto& [id, generation] : merged) {
    if (generation > 0) out.emplace_back(id, generation);
  }
  return out;
}

void SessionTable::set_resume_generations(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> generations) {
  resume_generations_.clear();
  for (const auto& [id, count] : generations) {
    if (count > 0) resume_generations_.emplace(id, count);
  }
}

}  // namespace xsearch::core
