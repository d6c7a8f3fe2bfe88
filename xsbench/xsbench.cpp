// End-to-end benchmark of the X-Search private-search path.
//
// The world is the figure benches' testbed (bench_common.hpp): synthetic
// AOL-like log, its 100 most active users split 2/3 train - 1/3 test per
// user (§5.1), corpus and engine. It is built once per run, outside the
// timed set-up. Set-up then creates an enclave proxy warmed with the train
// split (the past queries it draws fakes from, as in fig4/fig7), starts the
// reactor ProxyServer on loopback TCP and connects the client. The client is
// one closed-loop attested RemoteBroker replaying the top users' test-split
// queries cut into the log's search sessions: a session ends at each change
// of user and after every gap of more than kSessionGap between one user's
// queries. A search runs RemoteBroker seal -> reactor frame parsing ->
// dispatch worker -> query ecall (open, obfuscate, k+1 engine sub-queries
// through the socket ocalls, filter, seal) -> writev -> client open.
//
//   proxy   the client keeps one connection for the whole run.
//   churn   the client closes its connection and opens a new attested
//           session where the log starts a new search session. Accept,
//           handshake and session-table eviction carry their share of the
//           cost.
//
// Usage:
//   xsbench --workload proxy|churn --seed N --seconds S --trace 0|1
//           [--trace-out PATH]
//
// The world is the same for every seed; the seed orders the replayed
// sessions and draws all key material, so runs on different seeds measure
// the same system on different inputs.
//
// Correctness is checked on every run, traced or not:
//   * no search fails;
//   * the engine received exactly one OR query per real query, each made of
//     k+1 sub-queries, and every real query was among them (the paper's
//     "every real query travels with its k fakes");
//   * for a sample of searches, the results the client decrypted equal the
//     reference: Algorithm 2 (ResultFilter) applied to the engine's answer
//     to the very OR query the engine observed for that search.
//
// With --trace 0 the run reports end-to-end metrics: the p50 latency of
// the searches completed in the measured interval (throughput only goes to
// stderr: with one closed-loop client it is the inverse of the mean
// latency, not a capacity), and set-up time (median wall time of several
// set-ups, each from a built world to an attested client session, half of
// them before the measured interval and half after, so that the figure
// samples the host at two moments of the run as the latencies do); with
// --trace 1 it records spans at the layer boundaries the benchmark can see
// from outside the program — client call, host-side ecall, engine entry,
// handshake — and reports per-layer metrics instead. The last line on
// stdout is one JSON object.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "net/proxy_server.hpp"
#include "net/remote_broker.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/filter.hpp"
#include "xsearch/proxy.hpp"

namespace {

using namespace xsearch;  // NOLINT
using Results = std::vector<engine::SearchResult>;

// ---- workload shape ---------------------------------------------------------

enum class Workload { kProxy, kChurn };

constexpr std::size_t kFakes = 3;  // the paper's k, as in fig7
constexpr std::uint32_t kResultsPerSubquery = 20;
// One closed-loop client thread and one dispatch worker: at any moment only
// one thread of the request chain (client, reactor, worker) is runnable, so
// the run measures the request path and not how a few shared cores schedule
// competing threads. A harness choice, not a claim about real traffic.
constexpr std::size_t kServerWorkers = 1;  // TCP dispatch workers
// Inactivity gap that ends a search session: the 30-minute timeout
// conventionally used to cut query logs (such as AOL's) into sessions.
constexpr std::int64_t kSessionGap = 30 * 60;  // log seconds
constexpr std::size_t kHistoryCapacity = 100'000;  // api::ClientConfig default
constexpr std::size_t kSetupRounds = 20;  // before and again after the interval
constexpr Nanos kWarmup = kSecond;                 // served, not measured
constexpr std::size_t kSampleEvery = 32;           // searches per checked sample
constexpr std::size_t kMaxSamples = 100;
constexpr std::size_t kMaxTraceSpans = 20'000;  // written to --trace-out

// One replayed search.
struct Step {
  const std::string* query;
  bool new_session;  // the log starts a search session with this query
};

struct World {
  std::unique_ptr<bench::Testbed> bed;
  // The top users' test queries cut into the log's search sessions, each
  // session's queries in time order.
  std::vector<std::vector<const std::string*>> sessions;
  std::vector<std::string> history;  // train split: the proxy's warm history
};

World build_world() {
  World world;
  world.bed = bench::make_testbed();
  struct Open {
    std::size_t session;
    std::int64_t last_seen;
  };
  std::unordered_map<dataset::UserId, Open> open;  // each user's latest session
  for (const auto& record : world.bed->split.test.records()) {
    const auto [it, fresh] = open.try_emplace(record.user);
    Open& user = it->second;
    if (fresh || record.timestamp - user.last_seen > kSessionGap) {
      user.session = world.sessions.size();
      world.sessions.emplace_back();
    }
    world.sessions[user.session].push_back(&record.text);
    user.last_seen = record.timestamp;
  }
  for (const auto& record : world.bed->split.train.records()) {
    world.history.push_back(record.text);
  }
  return world;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t state = seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b << 32);
  return splitmix64(state);
}

// What the client replays, round after round: every log session, each
// session's queries in time order, the sessions in a seed-shuffled order.
// Any stretch of a few thousand searches thus carries the log's mix of
// session lengths and queries, whatever the seed.
std::vector<Step> client_script(const World& world, std::uint64_t seed) {
  const std::size_t n = world.sessions.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(mix(seed, 0x05e7));
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.uniform(i)]);
  std::vector<Step> script;
  for (const std::size_t s : order) {
    const auto& queries = world.sessions[s];
    for (std::size_t i = 0; i < queries.size(); ++i) script.push_back({queries[i], i == 0});
  }
  return script;
}

std::uint64_t hash_query(std::string_view query) {
  return std::hash<std::string_view>{}(query);
}

// Splits the engine's view of one request ("a OR b OR c OR d").
std::vector<std::string> split_or_query(std::string_view or_query) {
  constexpr std::string_view kSep = " OR ";
  std::vector<std::string> parts;
  while (true) {
    const std::size_t at = or_query.find(kSep);
    parts.emplace_back(or_query.substr(0, at));
    if (at == std::string_view::npos) return parts;
    or_query.remove_prefix(at + kSep.size());
  }
}

// ---- tracing ------------------------------------------------------------------

enum class SpanKind : std::uint8_t { kSearch, kConnect, kHandshake, kQuery };

struct Span {
  SpanKind kind = SpanKind::kSearch;
  std::uint32_t thread = 0;
  std::uint64_t session = 0;
  Nanos start = 0;
  Nanos end = 0;
  Nanos engine_entry = 0;  // kQuery: when the OR query reached the engine
};

// Spans stay in per-thread buffers until the run ends; the buffers outlive
// their threads (server workers exit before the spans are read).
class SpanLog {
 public:
  void record(Span span) {
    thread_local std::vector<Span>* buffer = nullptr;
    thread_local std::uint32_t thread = 0;
    if (buffer == nullptr) {
      std::lock_guard lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffer = buffers_.back().get();
      buffer->reserve(1 << 16);
      thread = static_cast<std::uint32_t>(buffers_.size());
    }
    span.thread = thread;
    buffer->push_back(span);
  }

  /// Every recorded span. Call only after the threads that record have
  /// been joined.
  [[nodiscard]] std::vector<Span> collect() {
    std::lock_guard lock(mutex_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) all.insert(all.end(), buffer->begin(), buffer->end());
    return all;
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

std::atomic<bool> g_tracing{false};
SpanLog g_spans;

// ---- what the engine observes -------------------------------------------------

// The engine's observer hook is the adversary's vantage point; the
// benchmark taps it to check the privacy invariant and to link each search
// to the OR query it produced.
struct EngineTap {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> or_queries{0};
  std::atomic<std::uint64_t> bad_groups{0};  // OR queries without k+1 parts
  std::mutex mutex;
  std::vector<std::uint64_t> sub_query_hashes;  // guarded by mutex
};
EngineTap g_tap;

// The OR query most recently sent to the engine from this thread, and when
// (tracing only). The engine runs on the thread executing the query ecall.
thread_local std::string t_last_or;
thread_local Nanos t_engine_entry = 0;

void on_engine_query(std::string_view or_query) {
  if (!g_tap.enabled.load(std::memory_order_relaxed)) return;
  if (g_tracing.load(std::memory_order_relaxed)) t_engine_entry = wall_now();
  t_last_or.assign(or_query);
  const std::vector<std::string> parts = split_or_query(or_query);
  if (parts.size() != kFakes + 1) g_tap.bad_groups.fetch_add(1);
  g_tap.or_queries.fetch_add(1);
  std::lock_guard lock(g_tap.mutex);
  for (const auto& part : parts) g_tap.sub_query_hashes.push_back(hash_query(part));
}

// ---- host-side seam between the frontends and the enclave proxy -------------

// Sits where the TCP server's dispatch worker calls the proxy: counts
// handshakes, keeps each session's last OR query for the result
// check and, when tracing, records the handshake and query-ecall spans.
class TappedHandler final : public core::ProxyHandler {
 public:
  explicit TappedHandler(core::ProxyHandler& inner) : inner_(inner) {}

  using core::ProxyHandler::handshake;

  Result<core::HandshakeResponse> handshake(const crypto::X25519Key& client_pub,
                                            std::uint64_t proposed) override {
    const Nanos start = wall_now();
    auto response = inner_.handshake(client_pub, proposed);
    handshakes_.fetch_add(1, std::memory_order_relaxed);
    if (g_tracing.load(std::memory_order_relaxed) && response.is_ok()) {
      g_spans.record({.kind = SpanKind::kHandshake,
                      .session = response.value().session_id,
                      .start = start,
                      .end = wall_now()});
    }
    return response;
  }

  Result<Bytes> handle_query_record(std::uint64_t session, ByteSpan record) override {
    return handle_query_record(session, record, Deadline());
  }

  Result<Bytes> handle_query_record(std::uint64_t session, ByteSpan record,
                                    const Deadline& deadline) override {
    t_last_or.clear();
    t_engine_entry = 0;
    const Nanos start = wall_now();
    auto reply = inner_.handle_query_record(session, record, deadline);
    if (g_tracing.load(std::memory_order_relaxed)) {
      g_spans.record({.kind = SpanKind::kQuery,
                      .session = session,
                      .start = start,
                      .end = wall_now(),
                      .engine_entry = t_engine_entry});
    }
    std::lock_guard lock(mutex_);
    last_or_[session].swap(t_last_or);
    return reply;
  }

  [[nodiscard]] sgx::Measurement measurement() const override {
    return inner_.measurement();
  }

  /// The OR query the engine saw for `session`'s latest request ("" when
  /// the request never reached the engine). Forgets it.
  [[nodiscard]] std::string take_last_or(std::uint64_t session) {
    std::lock_guard lock(mutex_);
    const auto it = last_or_.find(session);
    if (it == last_or_.end()) return {};
    std::string or_query = std::move(it->second);
    last_or_.erase(it);
    return or_query;
  }

  [[nodiscard]] std::uint64_t handshakes() const { return handshakes_.load(); }

 private:
  core::ProxyHandler& inner_;
  std::atomic<std::uint64_t> handshakes_{0};
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::string> last_or_;  // guarded by mutex_
};

// ---- deployment -------------------------------------------------------------------

Status connect_traced(net::RemoteBroker& session) {
  const Nanos start = wall_now();
  Status status = session.connect();
  if (g_tracing.load(std::memory_order_relaxed) && status.is_ok()) {
    g_spans.record({.kind = SpanKind::kConnect,
                    .session = session.session_id(),
                    .start = start,
                    .end = wall_now()});
  }
  return status;
}

struct Deployment {
  std::unique_ptr<core::XSearchProxy> proxy;
  std::unique_ptr<TappedHandler> handler;
  std::unique_ptr<net::ProxyServer> server;
  std::function<std::unique_ptr<net::RemoteBroker>(std::uint64_t seed)> open_session;
  std::unique_ptr<net::RemoteBroker> session;  // the client's first session
};

std::uint64_t session_seed(std::uint64_t seed, std::size_t n) {
  return mix(seed, 0x5e55, n);
}

// Everything between a built world and "the client holds an attested
// session".
Result<std::unique_ptr<Deployment>> set_up(std::uint64_t seed, const World& world,
                                           const sgx::AttestationAuthority& authority) {
  auto d = std::make_unique<Deployment>();
  core::XSearchProxy::Options options;
  options.k = kFakes;
  options.history_capacity = kHistoryCapacity;
  options.results_per_subquery = kResultsPerSubquery;
  options.seed = mix(seed, 0x9e0);
  auto proxy = core::XSearchProxy::create(world.bed->engine.get(), authority, options);
  if (!proxy.is_ok()) return proxy.status();
  d->proxy = std::move(proxy).value();
  d->proxy->warm_history(world.history);
  d->handler = std::make_unique<TappedHandler>(*d->proxy);

  net::ProxyServer::Options server_options;
  server_options.workers = kServerWorkers;
  server_options.shards = 1;
  auto server = net::ProxyServer::start(*d->handler, 0, server_options);
  if (!server.is_ok()) return server.status();
  d->server = std::move(server).value();
  const std::uint16_t port = d->server->port();
  const sgx::Measurement measurement = d->proxy->measurement();
  d->open_session = [port, &authority, measurement](std::uint64_t s) {
    return std::make_unique<net::RemoteBroker>("127.0.0.1", port, authority, measurement, s);
  };

  d->session = d->open_session(session_seed(seed, 0));
  if (Status status = connect_traced(*d->session); !status.is_ok()) return status;
  return d;
}

// Sets up `rounds` times, appending each round's wall time to `seconds`, and
// returns the last deployment (traced when `trace_last`).
Result<std::unique_ptr<Deployment>> set_up_rounds(std::size_t rounds, std::uint64_t seed,
                                                  const World& world,
                                                  const sgx::AttestationAuthority& authority,
                                                  bool trace_last, std::vector<double>& seconds) {
  std::unique_ptr<Deployment> d;
  for (std::size_t round = 0; round < rounds; ++round) {
    d.reset();
    g_tracing.store(trace_last && round + 1 == rounds);
    const Nanos start = wall_now();
    auto deployment = set_up(seed, world, authority);
    seconds.push_back(static_cast<double>(wall_now() - start) / kSecond);
    if (!deployment.is_ok()) return deployment.status();
    d = std::move(deployment).value();
  }
  return d;
}

// ---- closed-loop client -----------------------------------------------------------

struct Sample {
  std::string query;
  std::string or_query;  // what the engine observed for this search
  Results results;       // what the client decrypted
};

struct ClientLog {
  std::vector<std::pair<Nanos, Nanos>> done;  // (completion, latency), successes
  std::vector<std::uint64_t> issued;          // query hashes of successes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t results = 0;
  std::vector<Sample> samples;
  std::string first_error;
};

void run_client(Workload workload, std::uint64_t seed, Nanos stop, Deployment& d,
                const std::vector<Step>& script, ClientLog& log) {
  std::unique_ptr<net::RemoteBroker> session = std::move(d.session);
  std::size_t session_no = 0;
  std::size_t in_session = 0;
  auto fail = [&log](const Status& status) {
    ++log.failed;
    if (log.first_error.empty()) log.first_error = status.to_string();
  };

  std::size_t next = 0;
  for (Nanos start = wall_now(); start < stop; start = wall_now()) {
    const Step& step = script[next];
    next = (next + 1) % script.size();
    const std::string& query = *step.query;
    ++log.attempted;
    if (workload == Workload::kChurn && step.new_session && in_session > 0) {
      session.reset();  // the user leaves; the connection closes
      session = d.open_session(session_seed(seed, ++session_no));
      in_session = 0;
      if (Status status = connect_traced(*session); !status.is_ok()) {
        fail(status);
        continue;
      }
    }
    const Nanos search_start = wall_now();
    auto result = session->search(query);
    const Nanos end = wall_now();
    ++in_session;
    if (g_tracing.load(std::memory_order_relaxed)) {
      g_spans.record({.kind = SpanKind::kSearch,
                      .session = session->session_id(),
                      .start = search_start,
                      .end = end});
    }
    std::string or_query = d.handler->take_last_or(session->session_id());
    if (!result.is_ok()) {
      fail(result.status());
      continue;
    }
    log.done.emplace_back(end, end - start);
    log.issued.push_back(hash_query(query));
    log.results += result.value().size();
    if (log.done.size() % kSampleEvery == 0 && log.samples.size() < kMaxSamples) {
      log.samples.push_back({query, std::move(or_query), std::move(result).value()});
    }
  }
}

// ---- statistics ---------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double percentile(std::vector<Nanos>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return static_cast<double>(values[rank]);
}

// Every search that completed inside the measured interval [begin, end).
// p90 and p99 are printed but not reported as metrics. In churn 46% of the
// searches open a new attested session first, so the percentiles above
// about the 55th fall among them, and their cost follows the shared host's
// speed about twice as strongly as a plain search: over ten 50-s runs on a
// 4-vCPU guest the quartiles of churn's p90 lay 36% of its median apart,
// beyond any useful bound.
struct IntervalStats {
  double throughput_qps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
};

IntervalStats interval_stats(const ClientLog& log, Nanos begin, Nanos end) {
  std::vector<Nanos> latencies;
  for (const auto& [done, latency] : log.done) {
    if (done >= begin && done < end) latencies.push_back(latency);
  }
  const auto count = static_cast<double>(latencies.size());
  return {count * kSecond / static_cast<double>(end - begin),
          percentile(latencies, 0.50) / kMilli, percentile(latencies, 0.90) / kMilli,
          percentile(latencies, 0.99) / kMilli};
}

// ---- correctness ------------------------------------------------------------------

struct Replay {
  std::vector<double> engine_us;
  std::vector<double> filter_us;
  std::uint64_t fetched = 0;
  std::uint64_t kept = 0;
};

// Returns "" when every check passes, else the first violation.
std::string verify(const ClientLog& log, const engine::SearchEngine& engine, Replay& replay) {
  if (log.failed > 0) return "search failed: " + log.first_error;
  const std::uint64_t succeeded = log.done.size();
  std::unordered_map<std::uint64_t, std::int64_t> balance;
  {
    std::lock_guard lock(g_tap.mutex);
    for (std::uint64_t h : g_tap.sub_query_hashes) ++balance[h];
  }
  for (std::uint64_t h : log.issued) --balance[h];
  if (g_tap.or_queries.load() != succeeded) {
    return "engine saw " + std::to_string(g_tap.or_queries.load()) + " OR queries for " +
           std::to_string(succeeded) + " searches";
  }
  if (g_tap.bad_groups.load() != 0) return "an OR query did not carry exactly k fakes";
  for (const auto& [h, count] : balance) {
    if (count < 0) return "a real query never reached the engine inside its OR query";
  }

  const core::ResultFilter filter;
  for (const auto& sample : log.samples) {
    std::vector<std::string> sub_queries = split_or_query(sample.or_query);
    std::vector<std::string> fakes = sub_queries;
    const auto real = std::find(fakes.begin(), fakes.end(), sample.query);
    if (sample.or_query.empty() || real == fakes.end()) {
      return "query '" + sample.query + "' missing from its OR query '" + sample.or_query + "'";
    }
    fakes.erase(real);
    const Nanos t0 = wall_now();
    Results merged = engine.search_or(sub_queries, kResultsPerSubquery);
    const Nanos t1 = wall_now();
    replay.fetched += merged.size();
    const Results expected = filter.filter(sample.query, fakes, std::move(merged));
    const Nanos t2 = wall_now();
    replay.engine_us.push_back(static_cast<double>(t1 - t0) / kMicro);
    replay.filter_us.push_back(static_cast<double>(t2 - t1) / kMicro);
    replay.kept += expected.size();
    if (expected != sample.results) {
      return "results for '" + sample.query + "' differ from the filtered engine answer";
    }
  }
  if (log.samples.empty()) return "no search was sampled for the result check";
  return "";
}

// ---- per-layer metrics from the spans --------------------------------------------

struct LayerTimes {
  std::vector<double> client_self_us;   // search span minus its query ecalls
  std::vector<double> enclave_us;       // query ecall, host side
  std::vector<double> pre_engine_us;    // ecall entry -> engine: open + obfuscate
  std::vector<double> post_engine_us;   // engine -> ecall exit: engine + filter + seal
  std::vector<double> handshake_us;     // handshake ecall, host side
  std::vector<double> connect_self_us;  // client connect minus its handshake
};

// A parent's children are the spans of the same session that start inside
// it; a layer's self time is the parent's duration minus theirs.
void self_times(std::vector<const Span*> parents, std::vector<const Span*> children,
                std::vector<double>& out) {
  auto by_start = [](const Span* a, const Span* b) { return a->start < b->start; };
  std::sort(parents.begin(), parents.end(), by_start);
  std::sort(children.begin(), children.end(), by_start);
  std::size_t c = 0;
  for (const Span* parent : parents) {
    while (c < children.size() && children[c]->start < parent->start) ++c;
    Nanos inside = 0;
    for (; c < children.size() && children[c]->start <= parent->end; ++c) {
      inside += children[c]->end - children[c]->start;
    }
    out.push_back(static_cast<double>(parent->end - parent->start - inside) / kMicro);
  }
}

LayerTimes layer_times(const std::vector<Span>& spans, Nanos begin, Nanos end) {
  struct SessionSpans {
    std::vector<const Span*> searches, queries, connects, handshakes;
  };
  std::unordered_map<std::uint64_t, SessionSpans> sessions;
  LayerTimes t;
  auto us = [](Nanos d) { return static_cast<double>(d) / kMicro; };
  for (const Span& span : spans) {
    SessionSpans& s = sessions[span.session];
    switch (span.kind) {
      case SpanKind::kSearch:
        if (span.start >= begin && span.end < end) s.searches.push_back(&span);
        break;
      case SpanKind::kQuery:
        s.queries.push_back(&span);
        if (span.start < begin || span.end >= end) break;
        t.enclave_us.push_back(us(span.end - span.start));
        if (span.engine_entry != 0) {
          t.pre_engine_us.push_back(us(span.engine_entry - span.start));
          t.post_engine_us.push_back(us(span.end - span.engine_entry));
        }
        break;
      case SpanKind::kConnect:
        s.connects.push_back(&span);
        break;
      case SpanKind::kHandshake:
        s.handshakes.push_back(&span);
        t.handshake_us.push_back(us(span.end - span.start));
        break;
    }
  }
  for (auto& [id, s] : sessions) {
    self_times(s.searches, s.queries, t.client_self_us);
    self_times(s.connects, s.handshakes, t.connect_self_us);
  }
  return t;
}

void write_trace(const std::string& path, std::vector<Span> spans) {
  static constexpr const char* kNames[] = {"search", "connect", "handshake", "query_ecall"};
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  if (spans.size() > kMaxTraceSpans) spans.resize(kMaxTraceSpans);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "xsbench: cannot write trace to %s\n", path.c_str());
    return;
  }
  const Nanos origin = spans.empty() ? 0 : spans.front().start;
  auto us = [origin](Nanos t) { return static_cast<double>(t - origin) / kMicro; };
  std::fprintf(out, "{\"traceEvents\":[\n");
  bool first = true;
  auto event = [&](const char* name, std::uint32_t tid, std::uint64_t session, Nanos s, Nanos e) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"session\":%llu}}",
                 first ? "" : ",\n", name, tid, us(s), us(e) - us(s),
                 static_cast<unsigned long long>(session));
    first = false;
  };
  for (const Span& span : spans) {
    event(kNames[static_cast<int>(span.kind)], span.thread, span.session, span.start, span.end);
    if (span.kind == SpanKind::kQuery && span.engine_entry != 0) {
      event("engine_filter_seal", span.thread, span.session, span.engine_entry, span.end);
    }
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

// ---- output ---------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name, metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

struct Args {
  Workload workload = Workload::kProxy;
  std::uint64_t seed = 1;
  std::int64_t seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string_view value = argv[i + 1];
    if (key == "--workload") {
      have_workload = true;
      if (value == "proxy") args.workload = Workload::kProxy;
      else if (value == "churn") args.workload = Workload::kChurn;
      else return false;
    } else if (key == "--seed") {
      args.seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::max<std::int64_t>(1, std::strtoll(argv[i + 1], nullptr, 10));
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: xsbench --workload proxy|churn --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  const sgx::AttestationAuthority authority(to_bytes("xsbench-attestation-root"));

  const World world = build_world();
  world.bed->engine->set_observer(on_engine_query);
  const std::vector<Step> script = client_script(world, args.seed);
  std::fprintf(stderr, "xsbench: replaying %zu queries in %zu log sessions\n", script.size(),
               world.sessions.size());

  std::vector<double> setup_s;
  auto deployment =
      set_up_rounds(kSetupRounds, args.seed, world, authority, args.trace, setup_s);
  if (!deployment.is_ok()) {
    std::fprintf(stderr, "xsbench: set-up failed: %s\n", deployment.status().to_string().c_str());
    return 1;
  }
  std::unique_ptr<Deployment> d = std::move(deployment).value();

  g_tap.enabled.store(true);
  const Nanos begin = wall_now() + kWarmup;
  const Nanos end = begin + args.seconds * kSecond;
  ClientLog log;
  run_client(args.workload, args.seed, end, *d, script, log);
  d->server->stop();  // joins the dispatch workers
  g_tap.enabled.store(false);
  g_tracing.store(false);

  Replay replay;
  const std::string violation = verify(log, *world.bed->engine, replay);
  if (!violation.empty()) std::fprintf(stderr, "xsbench: INCORRECT: %s\n", violation.c_str());

  const std::uint64_t succeeded = log.done.size();
  const IntervalStats stats = interval_stats(log, begin, end);
  std::fprintf(stderr,
               "xsbench: %llu searches: %.1f qps, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
               static_cast<unsigned long long>(succeeded), stats.throughput_qps, stats.p50_ms,
               stats.p90_ms, stats.p99_ms);

  std::vector<Metric> metrics;
  if (!args.trace) {
    // The other half of the set-up rounds, after the measured interval.
    d.reset();
    if (auto again = set_up_rounds(kSetupRounds, args.seed, world, authority, false, setup_s);
        !again.is_ok()) {
      std::fprintf(stderr, "xsbench: set-up failed: %s\n", again.status().to_string().c_str());
      return 1;
    }
    metrics = {{"latency_p50_ms", stats.p50_ms, "ms"},
               {"setup_s", median(setup_s), "s"}};
  } else {
    const std::vector<Span> spans = g_spans.collect();
    LayerTimes t = layer_times(spans, begin, end);
    const auto per_query = [succeeded](double n) {
      return succeeded == 0 ? 0.0 : n / static_cast<double>(succeeded);
    };
    const auto transitions = d->proxy->enclave().transition_stats();
    const auto connections = static_cast<double>(d->server->connections_served());
    metrics = {
        {"client_self_us", median(t.client_self_us), "us"},
        {"enclave_query_us", median(t.enclave_us), "us"},
        {"enclave_pre_engine_us", median(t.pre_engine_us), "us"},
        {"enclave_post_engine_us", median(t.post_engine_us), "us"},
        {"engine_replay_us", median(replay.engine_us), "us"},
        {"filter_replay_us", median(replay.filter_us), "us"},
        {"handshake_us", median(t.handshake_us), "us"},
        {"connect_self_us", median(t.connect_self_us), "us"},
        {"ecalls_per_query", per_query(static_cast<double>(transitions.ecalls)), "ecalls/query"},
        {"ocalls_per_query", per_query(static_cast<double>(transitions.ocalls)), "ocalls/query"},
        {"handshakes_per_query", per_query(static_cast<double>(d->handler->handshakes())),
         "handshakes/query"},
        {"connections_per_query", per_query(connections), "conns/query"},
        {"evictions_per_query",
         per_query(static_cast<double>(d->proxy->session_stats().evicted_lru)),
         "evictions/query"},
        {"results_per_query", per_query(static_cast<double>(log.results)), "results/query"},
        {"filter_keep_ratio",
         replay.fetched == 0 ? 0.0
                             : static_cast<double>(replay.kept) / static_cast<double>(replay.fetched),
         "ratio"},
        {"traced_latency_p50_ms", stats.p50_ms, "ms"},
        {"traced_latency_p90_ms", stats.p90_ms, "ms"},
    };
    if (!args.trace_out.empty()) write_trace(args.trace_out, spans);
  }
  print_result(violation.empty(), log.attempted, log.failed, metrics);
  return 0;
}
