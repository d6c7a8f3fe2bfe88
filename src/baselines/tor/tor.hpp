// Tor baseline — unlinkability through 3-hop onion routing (paper §2.1.1,
// §5.2).
//
// The client wraps each query in three authenticated-encryption layers, one
// per relay of its circuit; each relay peels exactly one layer, learning
// only its predecessor and successor. The exit relay submits the *plain*
// query to the search engine (Tor provides no indistinguishability — the
// k = 0 point of Figure 3) and the response travels back through the same
// circuit, each relay adding one response layer which the client removes.
//
// The cryptography is real (X25519 circuit setup, ChaCha20-Poly1305
// layers); only the wide-area latency of the volunteer relay network is a
// model (see netsim/).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "crypto/aead.hpp"
#include "crypto/random.hpp"
#include "crypto/x25519.hpp"
#include "engine/search_engine.hpp"

namespace xsearch::baselines::tor {

using CircuitId = std::uint64_t;

/// One onion router. Holds a long-term key pair and per-circuit session
/// keys established via X25519.
class TorRelay {
 public:
  explicit TorRelay(std::uint64_t seed);

  [[nodiscard]] const crypto::X25519Key& public_key() const {
    return keys_.public_key;
  }

  /// Circuit extension: derive the session key for `circuit` from the
  /// client's ephemeral public key (ntor-style, simplified).
  void establish_circuit(CircuitId circuit, const crypto::X25519Key& client_ephemeral);

  /// Removes this relay's layer from a forward cell.
  [[nodiscard]] Result<Bytes> peel(CircuitId circuit, ByteSpan cell);

  /// Adds this relay's layer to a backward (response) cell.
  [[nodiscard]] Result<Bytes> wrap(CircuitId circuit, ByteSpan payload);

 private:
  struct CircuitState {
    crypto::AeadKey key{};
    std::uint64_t forward_counter = 0;
    std::uint64_t backward_counter = 0;
  };

  crypto::X25519KeyPair keys_;
  std::unordered_map<CircuitId, CircuitState> circuits_;
};

/// A client-built circuit through an ordered relay path (entry first).
class TorCircuit {
 public:
  /// Establishes session keys with every relay on `path`.
  TorCircuit(CircuitId id, std::vector<TorRelay*> path, std::uint64_t seed);

  /// Builds the onion for a payload: innermost layer for the exit relay.
  [[nodiscard]] Bytes build_onion(ByteSpan payload);

  /// Removes all response layers (entry relay's layer first).
  [[nodiscard]] Result<Bytes> unwrap_response(ByteSpan cell);

  [[nodiscard]] CircuitId id() const { return id_; }
  [[nodiscard]] std::size_t hops() const { return path_.size(); }

 private:
  CircuitId id_;
  std::vector<TorRelay*> path_;
  std::vector<crypto::AeadKey> layer_keys_;  // parallel to path_
  std::vector<std::uint64_t> forward_counters_;
  std::vector<std::uint64_t> backward_counters_;
};

/// End-to-end Tor search client over an in-process relay chain.
class TorClient {
 public:
  /// `relays` is the circuit path (entry, middle, exit).
  TorClient(std::vector<TorRelay*> relays, const engine::SearchEngine* engine,
            std::uint64_t seed);

  /// Routes `query` through the circuit; the exit node queries the engine
  /// (top_k results) and the response returns through the layers. With a
  /// null engine the exit echoes an empty result list (saturation mode).
  [[nodiscard]] Result<std::vector<engine::SearchResult>> search(
      std::string_view query, std::uint32_t top_k = 20);

 private:
  std::vector<TorRelay*> relays_;
  const engine::SearchEngine* engine_;
  TorCircuit circuit_;
};

}  // namespace xsearch::baselines::tor
