#include "xsearch/session_table.hpp"

#include <algorithm>
#include <utility>

namespace xsearch::core {

namespace {

// One session's stream seeds: ChaCha20 block 0 of (stream key, nonce =
// insert ordinal). `stream` is the ordinal, never the session id: the host
// proposes ids and may bring one back within a run, but no ordinal repeats
// within a table, and each table's key is fresh enclave entropy.
struct StreamSeeds {
  std::uint64_t rng = 0;
  crypto::ChaChaKey secure_rng;
};

[[nodiscard]] StreamSeeds fork_streams(const crypto::ChaChaKey& key,
                                       std::uint64_t stream) {
  crypto::ChaChaNonce nonce{};
  store_le64(nonce.data(), stream);
  auto block = crypto::chacha20_block(key, nonce, 0);
  StreamSeeds seeds;
  seeds.rng = load_le64(block.data() + crypto::kChaChaKeySize);
  crypto::ChaChaKey::Raw raw;
  std::copy_n(block.begin(), raw.size(), raw.begin());
  seeds.secure_rng = crypto::ChaChaKey::absorb(raw);
  secure_wipe(block);
  return seeds;
}

}  // namespace

// One live client session. `mutex` serializes channel use and the RNG
// streams; `lru_it` is guarded by the owning shard's mutex, never by
// `mutex`.
struct SessionTable::Session {
  Session(crypto::SecureChannel ch, StreamSeeds seeds)
      : channel(std::move(ch)), rng(seeds.rng), secure_rng(seeds.secure_rng) {}

  Mutex mutex;
  crypto::SecureChannel channel XS_GUARDED_BY(mutex);
  Rng rng XS_GUARDED_BY(mutex);
  crypto::SecureRandom secure_rng XS_GUARDED_BY(mutex);
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

std::size_t SessionTable::session_epc_bytes() {
  // The session object (channel keys/counters/transcript hash + RNG streams
  // + lock + LRU bookkeeping) plus its shared_ptr control block, hash-map
  // node, and LRU list node. An estimate, like all accounting in the simulation — what
  // matters is that charge and release are exactly symmetric.
  return sizeof(Session) + 64 + 8 * sizeof(void*);
}

SessionTable::SessionTable(Options options, const crypto::ChaChaKey& stream_key,
                           sgx::EpcAccountant* epc)
    : stream_key_(stream_key), epc_(epc) {
  const std::size_t capacity = std::max<std::size_t>(1, options.capacity);
  const std::size_t shards = std::max<std::size_t>(1, std::min(options.shards, capacity));
  shards_.reserve(shards);
  // Quotas sum to exactly Options::capacity: the division remainder goes
  // one-each to the first shards.
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = capacity / shards + (i < capacity % shards ? 1 : 0);
  }
}

SessionTable::~SessionTable() {
  // Release everything still charged; eviction paths released the rest.
  if (epc_) epc_->release(epc_bytes_.value());
}

std::uint64_t SessionTable::insert(crypto::SecureChannel channel,
                                   std::uint64_t proposed_id) {
  const std::uint64_t stream = next_stream_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t id = 0;
  for (;;) {
    id = proposed_id != 0 ? proposed_id
                          : next_id_.fetch_add(1, std::memory_order_relaxed);
    auto session =
        std::make_shared<Session>(std::move(channel), fork_streams(stream_key_, stream));

    Shard& shard = shard_for(id);
    MutexLock lock(shard.mutex);
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
    shard.lru.push_front(id);
    session->lru_it = shard.lru.begin();
    shard.sessions.emplace(id, std::move(session));
    active_.add();
    epc_bytes_.add(session_epc_bytes());
    if (epc_) epc_->charge(session_epc_bytes());
    while (shard.sessions.size() > shard.capacity) {
      shard.sessions.erase(shard.lru.back());
      shard.lru.pop_back();
      active_.sub();
      epc_bytes_.sub(session_epc_bytes());
      if (epc_) epc_->release(session_epc_bytes());
      evicted_lru_.inc();
    }
    break;
  }

  created_.inc();
  peak_active_.raise_to(active_.value());
  return id;
}

SessionTable::LockedSession SessionTable::acquire(std::uint64_t session_id) {
  Shard& shard = shard_for(session_id);
  std::shared_ptr<Session> session;
  {
    MutexLock lock(shard.mutex);
    const auto it = shard.sessions.find(session_id);
    if (it == shard.sessions.end()) {
      misses_.inc();
      return LockedSession{};
    }
    session = it->second;
    shard.lru.splice(shard.lru.begin(), shard.lru, session->lru_it);
  }
  // The shard lock is released before blocking on the (possibly busy)
  // session lock — see the locking-order contract in the header.
  return LockedSession(std::move(session));
}

std::size_t SessionTable::size() const { return active_.value(); }

}  // namespace xsearch::core
