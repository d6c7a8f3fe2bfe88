// Query hot-path microbenchmarks — the per-PR perf trajectory tracker.
//
// Times the stages a query pays inside the proxy, in isolation:
//
//   obfuscate    Algorithm 1: history sample + shuffle + history add, one
//                distinct logged query per op into a window warmed with 20k
//   obfuscate_mt same, from N threads over one shared history (the
//                lock-free-obfuscation claim, measured), each thread on its
//                own slice of the log
//   filter       Algorithm 2 at k=7, results_per_subquery=10 (R=80), both
//                scorings, against an embedded *reference* implementation —
//                a verbatim copy of the pre-optimization per-pair scorer —
//                so the optimized filter's speedup is re-measurable forever
//   search_or    the engine's k+1-sub-query OR evaluation + merge
//   reply_path   the enclave's side of one OR answer: the engine's encoded
//                reply -> result views -> filter -> plaintext reply frame
//   seal_open    one channel AEAD round trip at a query-sized (64 B), a
//                typical filtered-results (4 KiB) and a raw engine-reply
//                (22 KiB) record
//   x25519       one key agreement, as each attested handshake pays
//   history/warm_36k
//                set-up's history load: 36k logged queries into a fresh
//                100k window in one `add_all` (xsbench's warm-up size)
//   checkpoint/seal_restore_100k
//                one sealed checkpoint of a full, wrapped 100k window and
//                its restore into a fresh window, as a periodic checkpoint
//                and a respawn pay
//
// Output: a human-readable table on stdout and machine-readable JSON
// (default BENCH_micro.json, first CLI arg overrides), uploaded by the CI
// release-bench job so numbers accumulate per PR.
//
// Run: ./build/bench/microbench [out.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "crypto/secure_channel.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "sgx/enclave.hpp"
#include "crypto/x25519.hpp"
#include "dataset/synthetic.hpp"
#include "engine/analytics.hpp"
#include "text/sparse_vector.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"
#include "xsearch/checkpoint.hpp"
#include "xsearch/filter.hpp"
#include "xsearch/history.hpp"
#include "xsearch/obfuscator.hpp"
#include "xsearch/wire.hpp"

namespace {

using namespace xsearch;  // NOLINT
using Clock = std::chrono::steady_clock;

constexpr std::size_t kFilterK = 7;
constexpr std::size_t kResultsPerSubquery = 10;

double us_per_op(Clock::time_point t0, Clock::time_point t1, std::size_t ops) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count() /
         static_cast<double>(ops);
}

// ---- reference filter: the pre-PR per-pair implementation -----------------
//
// Kept verbatim (modulo the removed helper overloads) as the fixed point the
// optimized ResultFilter is measured against. Scores every (sub-query,
// result) pair from scratch: one tokenization + hash-set build per pair.
class ReferenceFilter {
 public:
  explicit ReferenceFilter(core::FilterScoring scoring) : scoring_(scoring) {}

  [[nodiscard]] std::vector<engine::SearchResult> filter(
      std::string_view original, const std::vector<std::string>& fakes,
      std::vector<engine::SearchResult> results) const {
    std::vector<engine::SearchResult> kept;
    kept.reserve(results.size());
    for (auto& r : results) {
      const double original_score = score(original, r);
      bool is_max = true;
      for (const auto& fake : fakes) {
        if (score(fake, r) > original_score) {
          is_max = false;
          break;
        }
      }
      if (is_max) kept.push_back(std::move(r));
    }
    core::ResultFilter::strip_tracking(kept);
    return kept;
  }

 private:
  [[nodiscard]] static std::size_t common_words(
      const std::unordered_set<std::string>& a_words, std::string_view b) {
    std::size_t count = 0;
    std::unordered_set<std::string> seen;
    for (auto& token : text::tokenize(b)) {
      if (a_words.contains(token) && seen.insert(token).second) ++count;
    }
    return count;
  }

  [[nodiscard]] double score(std::string_view query,
                             const engine::SearchResult& result) const {
    if (scoring_ == core::FilterScoring::kCommonWords) {
      const auto tokens = text::tokenize(query);
      const std::unordered_set<std::string> words(tokens.begin(), tokens.end());
      return static_cast<double>(common_words(words, result.title) +
                                 common_words(words, result.description));
    }
    text::Vocabulary vocab;
    const auto q_vec = text::tf_vector(vocab, query);
    const auto r_vec =
        text::tf_vector(vocab, result.title + " " + result.description);
    return q_vec.cosine(r_vec);
  }

  core::FilterScoring scoring_;
};

// ---- synthetic filter workload --------------------------------------------

struct FilterWorkload {
  std::string original;
  std::vector<std::string> fakes;
  std::vector<engine::SearchResult> results;
};

FilterWorkload make_filter_workload(Rng& rng) {
  const std::vector<std::string> pool = {
      "private", "web",     "search",  "engine",   "enclave", "proxy",
      "query",   "results", "pasta",   "recipe",   "quantum", "physics",
      "tennis",  "scores",  "weather", "forecast", "music",   "festival",
      "travel",  "booking", "linux",   "kernel",   "privacy", "tracking"};
  const auto words = [&](std::size_t n) {
    std::string s;
    for (std::size_t i = 0; i < n; ++i) {
      if (!s.empty()) s += ' ';
      s += pool[rng.uniform(pool.size())];
    }
    return s;
  };

  FilterWorkload w;
  w.original = words(3);
  for (std::size_t i = 0; i < kFilterK; ++i) w.fakes.push_back(words(3));
  const std::size_t R = (kFilterK + 1) * kResultsPerSubquery;
  for (std::size_t i = 0; i < R; ++i) {
    engine::SearchResult r;
    r.doc = static_cast<engine::DocId>(i);
    r.title = words(6);
    r.description = words(25);
    r.url = "https://results.example/" + std::to_string(i);
    w.results.push_back(std::move(r));
  }
  return w;
}

// ---- replay stream: serves a prepared wire image forever ------------------
//
// Backs the frame/parse_copy stage: read_frame() pulls the length word,
// then the rest of the frame, as two read_exact calls, each of which this
// stream answers with a freshly allocated copy — the allocation profile of
// the blocking client's read path.
class ReplayStream final : public net::ByteStream {
 public:
  explicit ReplayStream(Bytes wire) : wire_(std::move(wire)) {}

  [[nodiscard]] Status write_all(ByteSpan, const Deadline&) override {
    return Status::ok();
  }
  [[nodiscard]] Result<Bytes> read_exact(std::size_t n,
                                         const Deadline&) override {
    Bytes out;
    out.reserve(n);
    while (out.size() < n) {
      const std::size_t take = std::min(n - out.size(), wire_.size() - pos_);
      out.insert(out.end(), wire_.begin() + static_cast<std::ptrdiff_t>(pos_),
                 wire_.begin() + static_cast<std::ptrdiff_t>(pos_ + take));
      pos_ = (pos_ + take) % wire_.size();
    }
    return out;
  }
  void shutdown_both() override {}
  [[nodiscard]] bool valid() const override { return true; }

 private:
  Bytes wire_;
  std::size_t pos_ = 0;
};

struct StageResult {
  std::string name;
  double us = 0.0;
  double ops_per_sec = 0.0;
};

std::vector<StageResult> g_stages;

void report(const std::string& name, double us) {
  std::printf("%-24s %12.2f us/op %14.0f ops/s\n", name.c_str(), us,
              1e6 / us);
  g_stages.push_back({name, us, 1e6 / us});
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_micro.json";
  std::printf("# microbench: query hot-path stages (k=%zu, results/subq=%zu)\n",
              kFilterK, kResultsPerSubquery);
  Rng rng(42);

  // One synthetic log feeds the obfuscate stages (warm-up, then the users'
  // queries, each op a different one) and the history load stages.
  dataset::SyntheticLogConfig log_config;
  log_config.total_queries = 100'000;
  const dataset::QueryLog log = dataset::generate_synthetic_log(log_config);
  std::vector<std::string> queries;
  queries.reserve(log.size());
  for (const auto& record : log.records()) queries.push_back(record.text);
  constexpr std::size_t kObfuscateWarm = 20'000;
  const auto user_queries = std::span<const std::string>(queries).subspan(kObfuscateWarm);
  const auto warm_obfuscator_history = [&queries](core::QueryHistory& history) {
    for (std::size_t i = 0; i < kObfuscateWarm; ++i) history.add(queries[i]);
  };

  // ---- obfuscate ----------------------------------------------------------
  {
    core::QueryHistory history(100'000);
    warm_obfuscator_history(history);
    core::Obfuscator obfuscator(history, kFilterK);
    const std::size_t iters = 20'000;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      (void)obfuscator.obfuscate(user_queries[i], rng);
    }
    report("obfuscate", us_per_op(t0, Clock::now(), iters));
  }

  // ---- obfuscate_mt: shared history, one RNG stream per thread ------------
  for (const std::size_t threads : {1u, 2u, 4u}) {
    core::QueryHistory history(100'000);
    warm_obfuscator_history(history);
    core::Obfuscator obfuscator(history, kFilterK);
    const std::size_t iters_each = 8'000;
    std::vector<std::thread> pool;
    const auto t0 = Clock::now();
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        Rng thread_rng(1000 + t);  // the per-session stream, modeled
        const auto mine = user_queries.subspan(t * iters_each, iters_each);
        for (const std::string& query : mine) {
          (void)obfuscator.obfuscate(query, thread_rng);
        }
      });
    }
    for (auto& th : pool) th.join();
    const double us =
        us_per_op(t0, Clock::now(), iters_each * threads);
    report("obfuscate_mt/" + std::to_string(threads), us);
  }

  // ---- filter: optimized vs reference, both scorings ----------------------
  double filter_speedup = 0.0;
  {
    FilterWorkload w = make_filter_workload(rng);
    struct Variant {
      const char* name;
      core::FilterScoring scoring;
      std::size_t iters_opt;
      std::size_t iters_ref;
    };
    for (const Variant v :
         {Variant{"common_words", core::FilterScoring::kCommonWords, 2000, 200},
          Variant{"cosine", core::FilterScoring::kCosine, 1000, 100}}) {
      const core::ResultFilter optimized(v.scoring);
      const ReferenceFilter reference(v.scoring);

      // The two implementations must agree before their timings mean
      // anything (the randomized equivalence test covers this exhaustively;
      // this is the smoke version).
      const auto kept_opt = optimized.filter(w.original, w.fakes, w.results);
      const auto kept_ref = reference.filter(w.original, w.fakes, w.results);
      if (kept_opt != kept_ref) {
        std::fprintf(stderr, "filter mismatch (%s): opt kept %zu, ref kept %zu%s\n", v.name,
                     kept_opt.size(), kept_ref.size(),
                     kept_opt.size() == kept_ref.size() ? ", different results" : "");
        return 1;
      }

      auto t0 = Clock::now();
      for (std::size_t i = 0; i < v.iters_opt; ++i) {
        (void)optimized.filter(w.original, w.fakes, w.results);
      }
      const double opt_us = us_per_op(t0, Clock::now(), v.iters_opt);

      t0 = Clock::now();
      for (std::size_t i = 0; i < v.iters_ref; ++i) {
        (void)reference.filter(w.original, w.fakes, w.results);
      }
      const double ref_us = us_per_op(t0, Clock::now(), v.iters_ref);

      report(std::string("filter/") + v.name, opt_us);
      report(std::string("filter_ref/") + v.name, ref_us);
      std::printf("%-24s %12.1fx\n", (std::string("speedup/") + v.name).c_str(),
                  ref_us / opt_us);
      if (v.scoring == core::FilterScoring::kCommonWords) {
        filter_speedup = ref_us / opt_us;
      }
    }
  }

  // ---- search_or ----------------------------------------------------------
  {
    const auto bed = bench::make_testbed(
        {.num_users = 50, .total_queries = 4'000, .num_documents = 2'000});
    core::QueryHistory history(50'000);
    for (const auto& rec : bed->split.train.records()) history.add(rec.text);
    core::Obfuscator obfuscator(history, kFilterK);
    const auto& test = bed->split.test.records();
    const std::size_t iters = 400;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      const auto obf = obfuscator.obfuscate(test[i % test.size()].text, rng);
      (void)bed->engine->search_or(obf.sub_queries, kResultsPerSubquery);
    }
    report("search_or", us_per_op(t0, Clock::now(), iters));

    // reply_path: what the enclave does with one OR query's answer, from
    // the engine's encoding to the plaintext reply frame — encode, parse
    // views, filter, strip tracking and write the kept results. The
    // obfuscations are drawn up front so the stage times only the reply.
    std::vector<core::ObfuscatedQuery> queries;
    for (std::size_t i = 0; i < iters; ++i) {
      queries.push_back(obfuscator.obfuscate(test[i % test.size()].text, rng));
    }
    const core::ResultFilter filter;
    std::size_t reply_bytes = 0;
    const auto t1 = Clock::now();
    for (const core::ObfuscatedQuery& obf : queries) {
      const Bytes answer = bed->engine->search_or_encoded(obf.sub_queries, kResultsPerSubquery);
      auto views = core::wire::parse_result_views(answer);
      if (!views) {
        std::fprintf(stderr, "reply_path: %s\n", views.status().to_string().c_str());
        return 1;
      }
      std::vector<engine::ResultView>& results = views.value();
      const std::vector<std::size_t> kept = filter.keep(obf.original, obf.fakes, results);
      for (const std::size_t k : kept) {
        results[k].url = engine::extract_target_url(results[k].url).value_or(results[k].url);
      }
      Bytes reply;
      core::wire::begin_results_batch(reply, 1);
      core::wire::put_results_item(reply, results, kept, crypto::kAeadTagSize);
      reply_bytes += reply.size();
    }
    report("reply_path", us_per_op(t1, Clock::now(), iters));
    if (reply_bytes == 0) {
      std::fprintf(stderr, "reply_path: no reply bytes\n");
      return 1;
    }
  }

  // ---- seal_open ----------------------------------------------------------
  {
    crypto::X25519Secret::Raw seed{};
    seed[0] = 1;
    const auto server_static =
        crypto::x25519_keypair_from_seed(crypto::X25519Secret(seed));
    seed[0] = 2;
    const auto server_eph =
        crypto::x25519_keypair_from_seed(crypto::X25519Secret(seed));
    seed[0] = 3;
    const auto client_eph =
        crypto::x25519_keypair_from_seed(crypto::X25519Secret(seed));
    crypto::SecureChannel client = crypto::SecureChannel::initiator(
        client_eph, server_static.public_key, server_eph.public_key);
    crypto::SecureChannel server = crypto::SecureChannel::responder(
        server_static, server_eph, client_eph.public_key);

    struct Record {
      const char* name;
      std::size_t bytes;
      std::size_t iters;
    };
    for (const Record& record : {Record{"seal_open/64B", 64, 20'000},
                                 Record{"seal_open/4KiB", 4096, 20'000},
                                 Record{"seal_open/22KiB", 22 * 1024, 4'000}}) {
      const Bytes payload(record.bytes, 0x5a);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < record.iters; ++i) {
        auto opened = server.open(client.seal(payload));
        if (!opened) {
          std::fprintf(stderr, "seal/open failed\n");
          return 1;
        }
      }
      report(record.name, us_per_op(t0, Clock::now(), record.iters));
    }

    const std::size_t iters = 2'000;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      (void)crypto::x25519(client_eph.private_key, server_static.public_key);
    }
    report("x25519/agree", us_per_op(t0, Clock::now(), iters));
  }

  // ---- history load and checkpoint round trip ------------------------------
  {
    constexpr std::size_t kWindow = 100'000;

    const std::span<const std::string> warm(queries.data(),
                                            std::min<std::size_t>(36'000, queries.size()));
    const std::size_t warm_iters = 40;
    Clock::duration warm_time{};
    for (std::size_t i = 0; i < warm_iters; ++i) {
      sgx::EpcAccountant epc;
      core::QueryHistory history(kWindow, &epc);
      const auto t0 = Clock::now();
      history.add_all(warm);
      warm_time += Clock::now() - t0;
      if (history.size() != warm.size()) {
        std::fprintf(stderr, "history/warm_36k: window holds %zu\n", history.size());
        return 1;
      }
    }
    report("history/warm_36k",
           std::chrono::duration<double, std::micro>(warm_time).count() / warm_iters);

    // A full window that has slid, so the seal starts inside its oldest chunk.
    sgx::EnclaveRuntime enclave({.code_identity = to_bytes("microbench-checkpoint")});
    core::QueryHistory source(kWindow, &enclave.epc());
    source.add_all(queries);
    source.add_all(std::span<const std::string>(queries).first(queries.size() / 5));
    const std::size_t checkpoint_iters = 10;
    Clock::duration checkpoint_time{};
    for (std::size_t i = 0; i < checkpoint_iters; ++i) {
      core::QueryHistory restored(kWindow, &enclave.epc());
      const auto t0 = Clock::now();
      Bytes sealed = core::seal_history(enclave, source);
      const Status status = core::restore_history(enclave, std::move(sealed), restored);
      checkpoint_time += Clock::now() - t0;
      if (!status.is_ok() || restored.size() != source.size()) {
        std::fprintf(stderr, "checkpoint/seal_restore_100k: %s\n",
                     status.to_string().c_str());
        return 1;
      }
    }
    report("checkpoint/seal_restore_100k",
           std::chrono::duration<double, std::micro>(checkpoint_time).count() /
               checkpoint_iters);
  }

  // ---- frame parse: blocking copy path vs zero-copy cursor ----------------
  //
  // The same 512-byte kQuery frame, decoded two ways. parse_copy is the
  // blocking read_frame(): two read_exact calls (the length word, then the
  // budget word, type byte and payload together), each answered with a
  // fresh allocation, and the payload slid to the front of the second
  // (served here from an in-memory replay stream, so the delta is pure
  // decode cost — no syscalls on either side). parse_cursor is the reactor's FrameCursor over an
  // already-buffered wire image: header fields are decoded in place and the
  // payload comes back as a span into the buffer, zero allocations per
  // frame.
  {
    const Bytes payload(512, 0x5a);
    auto header = net::encode_frame_header(net::FrameType::kQuery, payload.size());
    if (!header.is_ok()) {
      std::fprintf(stderr, "encode_frame_header failed\n");
      return 1;
    }
    Bytes wire = std::move(header).value();
    append(wire, payload);

    const std::size_t iters = 200'000;
    {
      ReplayStream stream(wire);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < iters; ++i) {
        auto frame = net::read_frame(stream);
        if (!frame.is_ok() || frame.value().payload.size() != payload.size()) {
          std::fprintf(stderr, "frame/parse_copy: bad frame\n");
          return 1;
        }
      }
      report("frame/parse_copy", us_per_op(t0, Clock::now(), iters));
    }
    {
      // A receive buffer holding several frames, walked the way a reactor
      // connection walks its rbuf: parse at the cursor, consume frame_bytes.
      Bytes rbuf;
      for (std::size_t i = 0; i < 16; ++i) append(rbuf, wire);
      std::size_t offset = 0;
      std::uint64_t sink = 0;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < iters; ++i) {
        const auto step = net::FrameCursor::parse(
            ByteSpan(rbuf).subspan(offset, rbuf.size() - offset));
        if (step.state != net::FrameCursor::State::kFrame) {
          std::fprintf(stderr, "frame/parse_cursor: bad frame\n");
          return 1;
        }
        sink += step.frame.payload.size();
        offset += step.frame.frame_bytes;
        if (offset == rbuf.size()) offset = 0;
      }
      report("frame/parse_cursor", us_per_op(t0, Clock::now(), iters));
      if (sink != iters * payload.size()) {
        std::fprintf(stderr, "frame/parse_cursor: payload size drifted\n");
        return 1;
      }
    }
  }

  // ---- boundary: one request ecall -----------------------------------------
  //
  // A trivial request handler behind the typed dispatch table: the constant
  // factor of the simulated crossing itself. The simulation charges no
  // per-transition cost (hardware SGX pays ~8us per crossing); see
  // ARCHITECTURE.md "Boundary crossings".
  {
    sgx::EnclaveRuntime enclave(
        {.code_identity = to_bytes("microbench-boundary-enclave")});
    enclave.register_ecall(
        sgx::EcallId::kRequest,
        [](ByteSpan in) -> Result<Bytes> { return Bytes(in.begin(), in.end()); });
    const Bytes payload(256, 0x42);
    const std::size_t iters = 20'000;

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      auto r = enclave.ecall(sgx::EcallId::kRequest, payload);
      if (!r.is_ok()) return 1;
    }
    report("boundary/ecall", us_per_op(t0, Clock::now(), iters));
  }

  // ---- JSON ---------------------------------------------------------------
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"config\": {\"k\": %zu, \"results_per_subquery\": %zu},\n",
                 kFilterK, kResultsPerSubquery);
    std::fprintf(f, "  \"filter_speedup_common_words\": %.2f,\n", filter_speedup);
    std::fprintf(f, "  \"stages\": [\n");
    for (std::size_t i = 0; i < g_stages.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"us_per_op\": %.3f, "
                   "\"ops_per_sec\": %.1f}%s\n",
                   g_stages[i].name.c_str(), g_stages[i].us,
                   g_stages[i].ops_per_sec,
                   i + 1 < g_stages.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }

  // Regression alarm: the optimized filter measures above 10x even on
  // noisy shared runners. Below 4x print a loud warning (could be CI jitter);
  // below 2x something is actually broken — fail the job.
  if (filter_speedup < 2.0) {
    std::fprintf(stderr,
                 "filter speedup %.2fx below the 2x regression bar — the "
                 "optimized filter has regressed\n",
                 filter_speedup);
    return 1;
  }
  if (filter_speedup < 4.0) {
    std::fprintf(stderr,
                 "warning: filter speedup %.2fx below the expected 4x "
                 "(noisy runner, or a creeping regression — check the "
                 "BENCH_micro.json trend)\n",
                 filter_speedup);
  }
  return 0;
}
