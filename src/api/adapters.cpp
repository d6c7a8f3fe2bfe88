// The five built-in mechanisms behind the unified PrivateSearchClient API,
// plus the remote X-Search client of api/remote.hpp.
//
// Each adapter owns its mechanism's whole stack — Direct nothing, TrackMeNot
// a simulated RSS feed, Tor an in-process relay chain, PEAS the two-proxy
// chain, X-Search the enclave proxy (or, remotely, just its address) — and
// exposes it through the same session/search/batch surface. Batch lanes
// are `spawn_sibling` clients sharing the stack (same relays, same issuer,
// same enclave proxy), which is exactly the multi-client deployment the
// paper load-tests in Figure 5.
#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/client.hpp"
#include "api/registry.hpp"
#include "api/remote.hpp"
#include "baselines/direct/direct.hpp"
#include "baselines/peas/peas.hpp"
#include "baselines/tmn/trackmenot.hpp"
#include "baselines/tor/tor.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "api/xsearch_options.hpp"
#include "net/frame_protocol.hpp"
#include "net/remote_broker.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::api {
namespace {

/// Truncates a result list to the caller's budget (for mechanisms whose
/// backend fetch size is fixed at session setup).
SearchResults take_top(SearchResults results, std::size_t top_k) {
  if (results.size() > top_k) results.resize(top_k);
  return results;
}

// --- Direct ------------------------------------------------------------------

class DirectAdapter final : public PrivateSearchClient {
 public:
  DirectAdapter(const Backend& backend, const ClientConfig& config)
      : PrivateSearchClient(config), engine_(backend.engine) {}
  ~DirectAdapter() override { shutdown_async(); }

  [[nodiscard]] bool connected() const override { return connected_; }

  [[nodiscard]] PrivacyProperties privacy_properties() const override {
    PrivacyProperties props;
    props.mechanism = "direct";
    props.identity_exposed = true;
    props.query_exposed = true;
    props.k = 0;
    props.trust_assumption = "the engine sees everything; no protection";
    return props;
  }

 protected:
  [[nodiscard]] Status do_connect() override {
    connected_ = true;
    return Status::ok();
  }
  void do_close() override { connected_ = false; }

  [[nodiscard]] Result<SearchResults> do_search(std::string_view query,
                                                std::size_t top_k) override {
    if (engine_ == nullptr) return SearchResults{};  // saturation mode
    return engine_->search(query, top_k);
  }

  [[nodiscard]] ClientPtr spawn_sibling(std::uint64_t seed) override {
    ClientConfig sibling_config = config();
    sibling_config.seed = seed;
    Backend backend;
    backend.engine = engine_;
    return std::make_unique<DirectAdapter>(backend, sibling_config);
  }

 private:
  const engine::SearchEngine* engine_;
  bool connected_ = false;
};

// --- TrackMeNot --------------------------------------------------------------

class TmnAdapter final : public PrivateSearchClient {
 public:
  TmnAdapter(const Backend& backend, const ClientConfig& config,
             std::shared_ptr<const baselines::tmn::TmnGenerator> generator)
      : PrivateSearchClient(config),
        engine_(backend.engine),
        generator_(std::move(generator)),
        rng_(config.seed) {}
  ~TmnAdapter() override { shutdown_async(); }

  [[nodiscard]] bool connected() const override { return connected_; }

  [[nodiscard]] PrivacyProperties privacy_properties() const override {
    PrivacyProperties props;
    props.mechanism = "tmn";
    props.identity_exposed = true;
    // The paper's Figure 1: RSS-derived fakes are distributionally
    // separable from real queries, so the query is effectively exposed.
    props.query_exposed = true;
    props.k = config().k;
    props.trust_assumption =
        "none claimed; cover traffic from RSS feeds, separable in practice";
    return props;
  }

 protected:
  [[nodiscard]] Status do_connect() override {
    connected_ = true;
    return Status::ok();
  }
  void do_close() override { connected_ = false; }

  [[nodiscard]] Result<SearchResults> do_search(std::string_view query,
                                                std::size_t top_k) override {
    if (engine_ == nullptr) return SearchResults{};  // saturation mode
    // TrackMeNot interleaves machine-generated queries with the user's
    // stream; the user's own query still goes out in the clear. The cover
    // queries ride separate requests in reality (netsim::wan models them as
    // not lengthening the user-perceived path); issuing them inline here
    // adds only their in-process retrieval compute — microseconds against
    // the modelled ~0.5 s WAN round trip.
    for (std::size_t i = 0; i < config().k; ++i) {
      (void)engine_->search(generator_->fake_query(rng_), top_k);
    }
    return engine_->search(query, top_k);
  }

  [[nodiscard]] ClientPtr spawn_sibling(std::uint64_t seed) override {
    ClientConfig sibling_config = config();
    sibling_config.seed = seed;
    Backend backend;
    backend.engine = engine_;
    return std::make_unique<TmnAdapter>(backend, sibling_config, generator_);
  }

 private:
  const engine::SearchEngine* engine_;
  std::shared_ptr<const baselines::tmn::TmnGenerator> generator_;
  Rng rng_;
  bool connected_ = false;
};

// --- Tor ---------------------------------------------------------------------

class TorAdapter final : public PrivateSearchClient {
 public:
  /// The relay chain shared by all siblings of one adapter family.
  struct RelayChain {
    explicit RelayChain(std::uint64_t seed)
        : entry(seed * 3 + 1), middle(seed * 3 + 2), exit(seed * 3 + 3) {}
    baselines::tor::TorRelay entry;
    baselines::tor::TorRelay middle;
    baselines::tor::TorRelay exit;
    // Serializes circuit establishment: relays keep per-circuit session
    // keys in a map that concurrent extensions would race on.
    Mutex establish_mutex;
  };

  TorAdapter(const Backend& backend, const ClientConfig& config,
             std::shared_ptr<RelayChain> chain)
      : PrivateSearchClient(config),
        engine_(backend.engine),
        chain_(std::move(chain)) {}
  ~TorAdapter() override { shutdown_async(); }

  [[nodiscard]] bool connected() const override { return client_.has_value(); }

  [[nodiscard]] PrivacyProperties privacy_properties() const override {
    PrivacyProperties props;
    props.mechanism = "tor";
    props.identity_exposed = false;
    props.query_exposed = true;  // the exit relay submits the plain query
    props.k = 0;
    props.trust_assumption = "no single relay sees both identity and query; "
                             "exit relay sees the plain query";
    return props;
  }

 protected:
  [[nodiscard]] Status do_connect() override {
    if (client_.has_value()) return Status::ok();
    MutexLock lock(chain_->establish_mutex);
    client_.emplace(
        std::vector<baselines::tor::TorRelay*>{&chain_->entry, &chain_->middle,
                                               &chain_->exit},
        engine_, config().seed);
    return Status::ok();
  }
  void do_close() override { client_.reset(); }

  [[nodiscard]] Result<SearchResults> do_search(std::string_view query,
                                                std::size_t top_k) override {
    return client_->search(query, static_cast<std::uint32_t>(top_k));
  }

  [[nodiscard]] ClientPtr spawn_sibling(std::uint64_t seed) override {
    ClientConfig sibling_config = config();
    sibling_config.seed = seed;
    Backend backend;
    backend.engine = engine_;
    return std::make_unique<TorAdapter>(backend, sibling_config, chain_);
  }

 private:
  const engine::SearchEngine* engine_;
  std::shared_ptr<RelayChain> chain_;
  std::optional<baselines::tor::TorClient> client_;
};

// --- PEAS --------------------------------------------------------------------

class PeasAdapter final : public PrivateSearchClient {
 public:
  /// The two-proxy chain and the co-occurrence fake generator, shared by
  /// all siblings of one adapter family.
  struct ProxyChain {
    ProxyChain(const Backend& backend, std::uint64_t seed)
        : fakes(*backend.fake_source),
          issuer(backend.engine, seed),
          receiver(issuer) {}
    baselines::peas::FakeQueryGenerator fakes;
    baselines::peas::PeasIssuer issuer;
    baselines::peas::PeasReceiver receiver;
  };

  PeasAdapter(const Backend& backend, const ClientConfig& config,
              std::shared_ptr<ProxyChain> chain)
      : PrivateSearchClient(config),
        engine_(backend.engine),
        chain_(std::move(chain)) {}
  ~PeasAdapter() override { shutdown_async(); }

  [[nodiscard]] bool connected() const override { return client_.has_value(); }

  [[nodiscard]] PrivacyProperties privacy_properties() const override {
    PrivacyProperties props;
    props.mechanism = "peas";
    props.identity_exposed = false;  // only the receiver sees the identity
    props.query_exposed = false;     // hidden among k synthetic fakes
    props.k = config().k;
    props.trust_assumption = "receiver and issuer proxies must not collude";
    return props;
  }

 protected:
  [[nodiscard]] Status do_connect() override {
    if (client_.has_value()) return Status::ok();
    client_.emplace(config().client_id, chain_->receiver,
                    chain_->issuer.public_key(), chain_->fakes, config().k,
                    config().seed);
    return Status::ok();
  }
  void do_close() override { client_.reset(); }

  [[nodiscard]] Result<SearchResults> do_search(std::string_view query,
                                                std::size_t top_k) override {
    return client_->search(query, static_cast<std::uint32_t>(top_k));
  }

  [[nodiscard]] ClientPtr spawn_sibling(std::uint64_t seed) override {
    ClientConfig sibling_config = config();
    sibling_config.seed = seed;
    sibling_config.client_id =
        config().client_id + 1000 + static_cast<std::uint32_t>(seed % 1000);
    Backend backend;
    backend.engine = engine_;
    return std::make_unique<PeasAdapter>(backend, sibling_config, chain_);
  }

 private:
  const engine::SearchEngine* engine_;
  std::shared_ptr<ProxyChain> chain_;
  std::optional<baselines::peas::PeasClient> client_;
};

// --- X-Search ----------------------------------------------------------------

class XSearchAdapter final : public PrivateSearchClient {
 public:
  /// Where the adapter family's brokers connect and whom they trust,
  /// shared by all siblings. The in-process and remote clients differ only
  /// here: an in-process endpoint owns its enclave proxy (and the
  /// attestation root the proxy points to, declared first so it is
  /// destroyed last) and connects to it through the proxy's own frame
  /// protocol; a remote one connects over TCP.
  struct Endpoint {
    std::string mechanism;
    net::Connector connect;
    const sgx::AttestationAuthority* authority = nullptr;
    sgx::Measurement measurement{};
    std::unique_ptr<sgx::AttestationAuthority> local_authority;
    std::unique_ptr<core::XSearchProxy> local_proxy;
  };

  XSearchAdapter(const ClientConfig& config, std::shared_ptr<Endpoint> endpoint)
      : PrivateSearchClient(config), endpoint_(std::move(endpoint)) {}
  ~XSearchAdapter() override { shutdown_async(); }

  [[nodiscard]] bool connected() const override {
    return broker_.has_value() && broker_->connected();
  }

  [[nodiscard]] PrivacyProperties privacy_properties() const override {
    PrivacyProperties props;
    props.mechanism = endpoint_->mechanism;
    props.identity_exposed = false;  // the engine sees only the proxy
    props.query_exposed = false;     // hidden among k real past queries
    props.k = config().k;
    props.trust_assumption =
        "SGX attestation only; no proxy operator trust (collusion-resistant)";
    if (const auto* proxy = endpoint_->local_proxy.get(); proxy != nullptr) {
      const auto transitions = proxy->enclave().transition_stats();
      props.enclave_transitions = transitions.ecalls + transitions.ocalls;
    }
    return props;
  }

  [[nodiscard]] Status prime(const std::vector<std::string>& past_queries) override {
    if (endpoint_->local_proxy == nullptr) {
      return PrivateSearchClient::prime(past_queries);
    }
    endpoint_->local_proxy->warm_history(past_queries);
    return Status::ok();
  }

 protected:
  [[nodiscard]] Status do_connect() override {
    if (!broker_.has_value()) {
      broker_.emplace(endpoint_->connect, *endpoint_->authority,
                      endpoint_->measurement, config().seed,
                      remote_broker_options(config()));
    }
    return broker_->connect();
  }
  void do_close() override { broker_.reset(); }

  [[nodiscard]] Result<SearchResults> do_search(std::string_view query,
                                                std::size_t top_k) override {
    // The per-sub-query fetch size is fixed at proxy construction
    // (config.top_k); a smaller per-call budget truncates the filtered list.
    auto results = broker_->search(query);
    if (!results.is_ok()) return results.status();
    return take_top(std::move(results).value(), top_k);
  }

  [[nodiscard]] std::vector<Result<SearchResults>> do_search_batch(
      const std::vector<BatchQuery>& queries) override {
    // One kBatchQuery frame per chunk: one round trip and one AEAD
    // seal/open regardless of chunk size (chunks only appear when the
    // caller coalesces beyond the wire bound).
    std::vector<Result<SearchResults>> outcomes;
    outcomes.reserve(queries.size());
    for (std::size_t start = 0; start < queries.size();
         start += core::wire::kMaxBatchQueries) {
      const std::size_t count =
          std::min(core::wire::kMaxBatchQueries, queries.size() - start);
      std::vector<std::string> chunk;
      chunk.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        chunk.push_back(queries[start + i].query);
      }
      auto batch = broker_->search_batch(chunk);
      for (std::size_t i = 0; i < count; ++i) {
        if (!batch.is_ok()) {
          outcomes.emplace_back(batch.status());
        } else if (auto& outcome = batch.value()[i]; !outcome.status.is_ok()) {
          outcomes.emplace_back(outcome.status);
        } else {
          outcomes.emplace_back(take_top(std::move(outcome.results),
                                         queries[start + i].top_k));
        }
      }
    }
    return outcomes;
  }

  [[nodiscard]] ClientPtr spawn_sibling(std::uint64_t seed) override {
    ClientConfig sibling_config = config();
    sibling_config.seed = seed;
    return std::make_unique<XSearchAdapter>(sibling_config, endpoint_);
  }

 private:
  std::shared_ptr<Endpoint> endpoint_;
  std::optional<net::RemoteBroker> broker_;
};

// --- factories ---------------------------------------------------------------

Result<ClientPtr> make_direct(const Backend& backend, const ClientConfig& config) {
  return ClientPtr(std::make_unique<DirectAdapter>(backend, config));
}

Result<ClientPtr> make_tmn(const Backend& backend, const ClientConfig& config) {
  baselines::tmn::TmnConfig tmn_config;
  tmn_config.seed = config.seed ^ 0x7353;
  auto generator =
      std::make_shared<const baselines::tmn::TmnGenerator>(tmn_config);
  return ClientPtr(
      std::make_unique<TmnAdapter>(backend, config, std::move(generator)));
}

Result<ClientPtr> make_tor(const Backend& backend, const ClientConfig& config) {
  auto chain = std::make_shared<TorAdapter::RelayChain>(config.seed);
  return ClientPtr(
      std::make_unique<TorAdapter>(backend, config, std::move(chain)));
}

Result<ClientPtr> make_peas(const Backend& backend, const ClientConfig& config) {
  if (backend.fake_source == nullptr) {
    return invalid_argument(
        "peas requires backend.fake_source (a past-query log) to train the "
        "co-occurrence fake generator");
  }
  if (backend.fake_source->size() == 0) {
    return invalid_argument("peas: backend.fake_source is empty");
  }
  auto chain = std::make_shared<PeasAdapter::ProxyChain>(backend, config.seed);
  return ClientPtr(
      std::make_unique<PeasAdapter>(backend, config, std::move(chain)));
}

Result<ClientPtr> make_xsearch(const Backend& backend, const ClientConfig& config) {
  auto endpoint = std::make_shared<XSearchAdapter::Endpoint>();
  endpoint->local_authority = std::make_unique<sgx::AttestationAuthority>(
      to_bytes("api-attestation-root"));
  auto proxy = core::XSearchProxy::create(
      backend.engine, *endpoint->local_authority, xsearch_proxy_options(config));
  if (!proxy.is_ok()) return proxy.status();
  endpoint->local_proxy = std::move(proxy).value();
  endpoint->mechanism = "xsearch";
  endpoint->connect = net::in_process_connector(*endpoint->local_proxy);
  endpoint->authority = endpoint->local_authority.get();
  endpoint->measurement = endpoint->local_proxy->measurement();
  return ClientPtr(std::make_unique<XSearchAdapter>(config, std::move(endpoint)));
}

}  // namespace

ClientPtr make_remote_client(std::string host, std::uint16_t port,
                             const sgx::AttestationAuthority& authority,
                             const sgx::Measurement& expected_measurement,
                             const ClientConfig& config) {
  auto endpoint = std::make_shared<XSearchAdapter::Endpoint>();
  endpoint->mechanism = "xsearch-remote";
  endpoint->connect = net::tcp_connector(std::move(host), port);
  endpoint->authority = &authority;
  endpoint->measurement = expected_measurement;
  return std::make_unique<XSearchAdapter>(config, std::move(endpoint));
}

core::XSearchProxy::Options xsearch_proxy_options(const ClientConfig& config) {
  core::XSearchProxy::Options options;
  options.k = config.k;
  options.history_capacity = config.history_capacity;
  options.results_per_subquery = static_cast<std::uint32_t>(config.top_k);
  options.seed = config.seed ^ 0x5eed;
  options.contact_engine = config.contact_engine;
  options.session_capacity = config.session_capacity;
  options.session_idle_ttl = config.session_idle_ttl;
  options.session_shards = config.session_shards;
  options.checkpoint_dir = config.recovery.checkpoint_dir;
  options.checkpoint_interval_queries = config.recovery.checkpoint_interval_queries;
  return options;
}

net::FleetSupervisor::Options supervisor_options(const ClientConfig& config) {
  net::FleetSupervisor::Options options;
  options.probe_interval = config.recovery.probe_interval;
  options.failure_threshold = config.recovery.failure_threshold;
  options.probe_budget = config.recovery.probe_budget;
  return options;
}

net::RemoteBroker::Options remote_broker_options(const ClientConfig& config) {
  net::RemoteBroker::Options options;
  options.request_budget = config.robustness.request_budget;
  options.connect_budget = config.robustness.connect_budget;
  options.retry.max_attempts = config.robustness.retry_attempts;
  options.retry.initial_backoff = config.robustness.retry_initial_backoff;
  options.retry.max_backoff = config.robustness.retry_max_backoff;
  options.breaker_enabled = config.robustness.breaker_enabled;
  return options;
}

net::ProxyFleet::Options fleet_options(const ClientConfig& config,
                                       const FleetConfig& fleet) {
  net::ProxyFleet::Options options;
  options.workers = fleet.workers;
  options.virtual_nodes = fleet.virtual_nodes;
  options.proxy = xsearch_proxy_options(config);
  return options;
}

void register_builtin_mechanisms(MechanismRegistry& registry) {
  const auto must = [](Status status) {
    (void)status;
    assert(status.is_ok());
  };
  must(registry.register_mechanism("direct", make_direct));
  must(registry.register_mechanism("tmn", make_tmn));
  must(registry.register_mechanism("tor", make_tor));
  must(registry.register_mechanism("peas", make_peas));
  must(registry.register_mechanism("xsearch", make_xsearch));
}

}  // namespace xsearch::api
