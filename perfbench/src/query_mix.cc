// Workload `query-mix`: the serving tier under a closed loop of nproc
// client threads, each replaying its own seeded Zipf stream through
// `QueryService::AnswerCached`, with a small fixed share of requests
// also asking for the proof (`Explain` + `DerivationToText`).
//
// The catalog (65536 points) is 16x the cache's capacity (16 shards of
// 256 entries), so hits, misses (an analytic compute plus an insert) and
// FIFO evictions all occur, and cache reads run beside cache writes on
// shared shard locks. No crypto runs here.
#include <atomic>
#include <bit>
#include <string>
#include <thread>
#include <vector>

#include "game/kernel.h"
#include "harness.h"
#include "serve/cache.h"
#include "serve/derivation.h"
#include "serve/query.h"
#include "serve/query_service.h"
#include "zipf.h"

namespace perfbench {

namespace {

using hsis::serve::QueryAnswer;
using hsis::serve::QueryRequest;
using hsis::serve::QueryService;

constexpr size_t kCatalog = size_t{1} << 16;
constexpr double kSkew = 1.1;
constexpr int kCacheShards = 16;
constexpr size_t kCapacityPerShard = 256;
constexpr size_t kStreamPerThread = size_t{1} << 18;
constexpr uint64_t kExplainOneIn = 512;
constexpr size_t kWarmupPerThread = size_t{1} << 16;
constexpr uint64_t kSampleEvery = 4096;  // answers kept for verification
constexpr uint64_t kWindowNs = 100'000'000;  // throughput windows

struct Draw {
  uint32_t point;
  bool explain;
};

struct Inputs {
  std::vector<QueryRequest> catalog;
  std::vector<std::vector<Draw>> streams;  // one per client thread
};

/// Catalog points as `serve::MakeSyntheticStream` draws them (B >= 0,
/// F > B, f in [0, 1), P >= 0), then per-thread Zipf streams.
Inputs MakeInputs(uint64_t seed, int threads) {
  hsis::Rng rng(seed);
  Inputs in;
  in.catalog.reserve(kCatalog);
  for (size_t i = 0; i < kCatalog; ++i) {
    QueryRequest r;
    r.benefit = 50.0 * rng.UniformDouble();
    r.cheat_gain = r.benefit + 0.5 + 50.0 * rng.UniformDouble();
    r.frequency = rng.UniformDouble();
    r.penalty = 100.0 * rng.UniformDouble();
    r.n = 2;
    in.catalog.push_back(r);
  }
  const ZipfSampler zipf(kCatalog, kSkew);
  for (int t = 0; t < threads; ++t) {
    hsis::Rng stream_rng = hsis::Rng::ForIndex(seed, static_cast<uint64_t>(t));
    std::vector<Draw> stream(kStreamPerThread);
    for (Draw& d : stream) {
      d.point = static_cast<uint32_t>(zipf.Draw(stream_rng));
      d.explain = stream_rng.UniformUint64(kExplainOneIn) == 0;
    }
    in.streams.push_back(std::move(stream));
  }
  return in;
}

bool SameAnswer(const QueryAnswer& x, const QueryAnswer& y) {
  auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  return x.effectiveness == y.effectiveness &&
         x.honest_is_dominant == y.honest_is_dominant &&
         bits(x.min_frequency) == bits(y.min_frequency) &&
         bits(x.min_penalty) == bits(y.min_penalty) &&
         bits(x.zero_penalty_frequency) == bits(y.zero_penalty_frequency);
}

hsis::Result<QueryService> NewService() {
  hsis::serve::QueryServiceConfig config;
  config.cache.shards = kCacheShards;
  config.cache.capacity_per_shard = kCapacityPerShard;
  return QueryService::Create(config);
}

struct ClientResult {
  Histogram latency;
  uint64_t requests = 0;
  uint64_t errors = 0;
  std::string first_error;
  std::vector<std::pair<uint32_t, QueryAnswer>> samples;
  Clock::time_point end;
  size_t render_bytes = 0;
  /// Requests completed in each whole 100 ms window of the run.
  std::vector<uint64_t> per_window;
};

/// One closed-loop client: the next request goes out when the previous
/// answer is back. Runs until `deadline`.
void Client(QueryService& service, const Inputs& in, int t,
            std::atomic<int>& ready, const std::atomic<bool>& go,
            const Clock::time_point& start, const Clock::time_point& deadline,
            ClientResult& out) {
  const std::vector<Draw>& stream = in.streams[t];
  size_t i = 0;
  for (size_t k = 0; k < kWarmupPerThread; ++k, ++i) {
    (void)service.AnswerCached(in.catalog[stream[i].point]);
  }
  ready.fetch_add(1);
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  for (;; i = (i + 1) % stream.size()) {
    const QueryRequest& request = in.catalog[stream[i].point];
    const Clock::time_point t0 = Clock::now();
    hsis::Result<QueryAnswer> answer = service.AnswerCached(request);
    bool ok = answer.ok();
    if (ok && stream[i].explain) {
      auto proof = service.Explain(request);
      ok = proof.ok() && proof->honest_is_dominant == answer->honest_is_dominant;
      if (ok) out.render_bytes += hsis::serve::DerivationToText(*proof).size();
    }
    const Clock::time_point t1 = Clock::now();
    out.latency.Add(NsBetween(t0, t1));
    ++out.requests;
    const uint64_t window = NsBetween(start, t1) / kWindowNs;
    if (window < out.per_window.size()) ++out.per_window[window];
    if (!ok) {
      if (out.errors++ == 0) {
        out.first_error =
            answer.ok() ? "Explain disagrees" : answer.status().ToString();
      }
    } else if (out.requests % kSampleEvery == 0) {
      out.samples.emplace_back(stream[i].point, *answer);
    }
    if (t1 >= deadline) {
      out.end = t1;
      return;
    }
  }
}

struct TraceResult {
  Tracer tracer;
  uint64_t requests = 0, wrong = 0;
  double wall_ns = 0;
  std::vector<QueryRequest> misses;
  std::vector<QueryAnswer> miss_answers;
};

/// The traced replay of `AnswerCached`, one call per layer, over a
/// standalone cache of the same shape: admission (validate + key),
/// cache lookup, and on a miss the kernel answer at the canonical point
/// plus the insert; then the proof for the explain share. The misses'
/// answers are checked against `QueryService::Answer` after the pass.
void TracedClient(QueryService& service, hsis::serve::AnswerCache& cache,
                  const Inputs& in, int t, bool record, TraceResult& out) {
  Tracer* tr = record ? &out.tracer : nullptr;
  const std::vector<Draw>& stream = in.streams[t];
  const double quantum = cache.quantum();
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < stream.size(); ++i) {
    if (tr != nullptr) tr->SetOp(i);
    const QueryRequest& request = in.catalog[stream[i].point];
    hsis::serve::QueryKey key;
    {
      Tracer::Scope span(tr, "serve", "snap");
      if (!hsis::serve::ValidateQueryRequest(request).ok()) ++out.wrong;
      key = hsis::serve::MakeQueryKey(request, quantum);
    }
    QueryAnswer answer;
    bool hit;
    {
      Tracer::Scope span(tr, "serve", "cache_lookup");
      hit = cache.Lookup(key, &answer);
    }
    if (!hit) {
      QueryRequest canonical;
      {
        Tracer::Scope span(tr, "serve", "snap");
        canonical = hsis::serve::SnapRequest(request, quantum);
      }
      {
        // What AnswerCached runs on a miss: the device kernel at the
        // canonical point, then the answer built from it.
        Tracer::Scope span(tr, "serve", "analytic");
        answer = hsis::serve::AnswerFromKernel(hsis::game::kernel::DeviceAnswerAt(
            canonical.benefit, canonical.cheat_gain, canonical.frequency,
            canonical.penalty, service.margin()));
      }
      {
        Tracer::Scope span(tr, "serve", "cache_insert");
        cache.Insert(key, answer);
      }
      if (record) {
        out.misses.push_back(canonical);
        out.miss_answers.push_back(answer);
      }
    }
    if (stream[i].explain) {
      Tracer::Scope span(tr, "serve", "render");
      auto proof = service.Explain(request);
      if (!proof.ok() || hsis::serve::DerivationToText(*proof).empty()) {
        ++out.wrong;
      }
    }
    if (record && i % kSampleEvery == 0) {
      auto served = service.AnswerCached(request);
      if (!served.ok() || !SameAnswer(*served, answer)) ++out.wrong;
    }
  }
  if (record) {
    out.wall_ns += static_cast<double>(NsBetween(start, Clock::now()));
    out.requests += stream.size();
  }
}

}  // namespace

Report RunQueryMix(const Options& options) {
  Report report;
  const int threads = LoadThreads(options);
  Inputs in;
  std::optional<QueryService> service;
  report.setup_s = MedianSetupSeconds(kSetupReps, [&] {
    in = MakeInputs(options.seed, threads);
    auto created = NewService();
    if (created.ok()) service.emplace(std::move(*created));
  });
  report.Check(service.has_value(), "QueryService::Create failed");
  if (!service) return report;

  // The untraced closed loop. A traced run gives it half its time.
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const size_t windows =
      static_cast<size_t>(seconds * 1e9 / static_cast<double>(kWindowNs));
  std::vector<ClientResult> results(threads);
  for (ClientResult& r : results) r.per_window.assign(windows, 0);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start, deadline;
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back(Client, std::ref(*service), std::cref(in), t,
                         std::ref(ready), std::cref(go), std::cref(start),
                         std::cref(deadline), std::ref(results[t]));
  }
  while (ready.load() < threads) std::this_thread::yield();
  const hsis::serve::CacheStats before = service->Stats();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& c : clients) c.join();
  const hsis::serve::CacheStats after = service->Stats();

  Histogram latency;
  uint64_t requests = 0;
  Clock::time_point end = start;
  for (ClientResult& r : results) {
    latency.Merge(r.latency);
    requests += r.requests;
    end = std::max(end, r.end);
    report.attempted += r.requests;
    report.failed += r.errors;
    if (r.errors > 0) report.errors.push_back("AnswerCached: " + r.first_error);
  }
  // A sample of cached answers equals the analytic QueryService::Answer.
  for (const ClientResult& r : results) {
    for (const auto& [point, cached] : r.samples) {
      auto analytic = service->Answer(in.catalog[point]);
      report.Check(analytic.ok() && SameAnswer(*analytic, cached),
                   "cached answer differs from QueryService::Answer");
    }
  }
  const double wall_s = SecondsBetween(start, end);
  const double qps = static_cast<double>(requests) / wall_s;
  const double p50 = latency.Quantile(0.5);
  const uint64_t timed_hits = after.hits - before.hits;
  const uint64_t timed_misses = after.misses - before.misses;
  Samples window_qps;
  for (size_t w = 0; w < windows; ++w) {
    uint64_t n = 0;
    for (const ClientResult& r : results) n += r.per_window[w];
    window_qps.Add(static_cast<double>(n) * 1e9 /
                   static_cast<double>(kWindowNs));
  }
  report.throughput_per_s = report.Summarize("window_query_per_s",
                                             window_qps, "1/s");
  report.latency_ms_p50 = p50 / 1e6;
  report.AddDetail("query_per_s", qps, "1/s");
  report.AddDetail("query_ns_p50", p50, "ns");
  report.AddDetail("query_ns_p99", latency.Quantile(0.99), "ns");
  report.AddDetail("query_ns_p99.9", latency.Quantile(0.999), "ns");
  report.AddDetail("hit_ratio",
                   static_cast<double>(timed_hits) /
                       static_cast<double>(timed_hits + timed_misses),
                   "ratio");
  report.AddDetail("evictions", static_cast<double>(after.evictions -
                                                    before.evictions),
                   "count");
  report.AddDetail("clients", threads, "count");
  char line[160];
  std::snprintf(line, sizeof(line),
                "query_ns: median %.6g ns, q1 %.6g, q3 %.6g, n %llu, "
                "p99 %.6g, p99.9 %.6g",
                p50, latency.Quantile(0.25), latency.Quantile(0.75),
                static_cast<unsigned long long>(latency.count()),
                latency.Quantile(0.99), latency.Quantile(0.999));
  report.distributions.push_back(line);

  if (!options.trace) return report;

  // Traced replay: a fresh cache of the same shape, one warm pass and
  // one recorded pass over every client's stream, clients in parallel.
  hsis::serve::CacheConfig cache_config;
  cache_config.shards = kCacheShards;
  cache_config.capacity_per_shard = kCapacityPerShard;
  auto cache = hsis::serve::AnswerCache::Create(cache_config);
  report.Check(cache.ok(), "AnswerCache::Create failed");
  if (!cache.ok()) return report;
  std::vector<TraceResult> traced(threads);
  for (int t = 0; t < threads; ++t) {
    traced[t].tracer = Tracer(static_cast<uint32_t>(t + 1));
  }
  for (bool record : {false, true}) {
    const hsis::serve::CacheStats cache_before = cache->Stats();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back(TracedClient, std::ref(*service), std::ref(*cache),
                           std::cref(in), t, record, std::ref(traced[t]));
    }
    for (std::thread& w : workers) w.join();
    if (record) {
      const hsis::serve::CacheStats cache_after = cache->Stats();
      std::map<std::string, double>& m = report.layers;
      m["serve.hits"] = static_cast<double>(cache_after.hits - cache_before.hits);
      m["serve.misses"] =
          static_cast<double>(cache_after.misses - cache_before.misses);
      m["serve.evictions"] =
          static_cast<double>(cache_after.evictions - cache_before.evictions);
      m["serve.hit_ratio"] =
          m["serve.hits"] / (m["serve.hits"] + m["serve.misses"]);
    }
  }
  Tracer merged;
  uint64_t traced_requests = 0, wrong = 0;
  double traced_wall_ns = 0;
  std::vector<QueryRequest> misses;
  std::vector<QueryAnswer> miss_answers;
  for (TraceResult& r : traced) {
    merged.Merge(r.tracer);
    traced_requests += r.requests;
    wrong += r.wrong;
    traced_wall_ns += r.wall_ns;
    misses.insert(misses.end(), r.misses.begin(), r.misses.end());
    miss_answers.insert(miss_answers.end(), r.miss_answers.begin(),
                        r.miss_answers.end());
  }
  report.Check(wrong == 0, "traced replay disagrees with AnswerCached");
  // The replay's miss path equals the analytic reference, on a sample.
  constexpr size_t kMissCheckEvery = 16;
  bool misses_ok = true;
  for (size_t i = 0; misses_ok && i < misses.size(); i += kMissCheckEvery) {
    auto analytic = service->Answer(misses[i]);
    misses_ok = analytic.ok() && SameAnswer(*analytic, miss_answers[i]);
  }
  report.Check(misses_ok, "replayed miss differs from QueryService::Answer");

  // The batch kernel over the misses, checked slot for slot.
  hsis::game::kernel::DeviceAnswersSoA batch;
  const Clock::time_point k0 = Clock::now();
  const hsis::Status batched =
      service->AnswerBatch(misses.data(), misses.size(), batch);
  const double kernel_ns = static_cast<double>(NsBetween(k0, Clock::now()));
  bool batch_ok = batched.ok() && batch.effectiveness.size() == misses.size();
  for (size_t i = 0; batch_ok && i < misses.size(); ++i) {
    batch_ok = batch.effectiveness[i] == miss_answers[i].effectiveness &&
               std::bit_cast<uint64_t>(batch.min_penalty[i]) ==
                   std::bit_cast<uint64_t>(miss_answers[i].min_penalty);
  }
  report.Check(batch_ok, "AnswerBatch disagrees with the analytic answers");

  auto per_call = [&](const char* name, double scale) {
    const Tracer::Aggregate a = merged.Get("serve", name);
    return a.count == 0 ? 0.0
                        : static_cast<double>(a.self_ns) /
                              static_cast<double>(a.count) / scale;
  };
  std::map<std::string, double>& m = report.layers;
  m["serve.snap_ns"] = static_cast<double>(merged.Get("serve", "snap").self_ns) /
                       static_cast<double>(traced_requests);
  m["serve.cache_lookup_ns"] = per_call("cache_lookup", 1);
  m["serve.cache_insert_ns"] = per_call("cache_insert", 1);
  m["serve.analytic_us"] = per_call("analytic", 1e3);
  m["serve.render_us"] = per_call("render", 1e3);
  m["serve.kernel_ns_per_req"] =
      misses.empty() ? 0.0 : kernel_ns / static_cast<double>(misses.size());
  const double untraced_ns_per_req =
      wall_s * 1e9 * threads / static_cast<double>(requests);
  const double traced_ns_per_req =
      traced_wall_ns / static_cast<double>(traced_requests);
  m["trace.overhead_pct"] =
      100.0 * (traced_ns_per_req - untraced_ns_per_req) / untraced_ns_per_req;
  m["trace.unexplained_pct"] =
      100.0 * (traced_wall_ns - static_cast<double>(merged.TotalSelfNs())) /
      traced_wall_ns;
  merged.WriteSpans(options.trace_dir + "/spans-query-mix.jsonl");
  return report;
}

}  // namespace perfbench
