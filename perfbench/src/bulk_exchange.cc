// Workload `bulk-exchange`: one large streamed exchange through
// `RunTwoPartyIntersectionStreamed` on the 64-bit test group, with
// `threads = nproc` and the default chunk size and pipeline depth.
//
// Modexp is cheap on the 64-bit group and runs in parallel batches, so
// the serial stages dominate: commitment, frame codec, AEAD channel,
// shuffle and the map-based resolve. Each party holds ~100k tuples with
// 50% overlap, so the resolve maps (~100k U256 each) outgrow L2. Every
// exchange of a run starts from the same Rng state, so every exchange
// does identical work and ships an identical transcript.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "crypto/group.h"
#include "crypto/multiset_hash.h"
#include "harness.h"
#include "protocol_replay.h"
#include "sovereign/intersection_protocol.h"

namespace perfbench {

namespace {

using hsis::sovereign::Dataset;
using hsis::sovereign::Tuple;

constexpr size_t kTuplesPerParty = 100000;
constexpr size_t kShared = kTuplesPerParty / 2;

struct Inputs {
  Dataset a, b;
  uint64_t protocol_seed = 0;
};

Inputs MakeInputs(uint64_t seed) {
  hsis::Rng rng(seed);
  std::unordered_set<uint64_t> used;
  auto fresh = [&] {
    for (;;) {
      const uint64_t x = rng.NextUint64();
      if (used.insert(x).second) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "rec-%016llx",
                      static_cast<unsigned long long>(x));
        return Tuple::FromString(buf);
      }
    }
  };
  std::vector<Tuple> a, b;
  a.reserve(kTuplesPerParty);
  b.reserve(kTuplesPerParty);
  for (size_t i = 0; i < kShared; ++i) {
    a.push_back(fresh());
    b.push_back(a.back());
  }
  for (size_t i = kShared; i < kTuplesPerParty; ++i) {
    a.push_back(fresh());
    b.push_back(fresh());
  }
  Inputs in;
  in.a = Dataset(std::move(a));
  in.b = Dataset(std::move(b));
  in.protocol_seed = rng.NextUint64();
  return in;
}

std::vector<hsis::Bytes> Values(const Dataset& d) {
  std::vector<hsis::Bytes> out;
  out.reserve(d.size());
  for (const Tuple& t : d.tuples()) out.push_back(t.value);
  return out;
}

}  // namespace

Report RunBulkExchange(const Options& options) {
  Report report;
  const hsis::crypto::PrimeGroup& group =
      hsis::crypto::PrimeGroup::SmallTestGroup();
  auto family = hsis::crypto::MultisetHashFamily::CreateMu(group);
  report.Check(family.ok(), "Mu family");
  if (!family.ok()) return report;

  Inputs in;
  report.setup_s =
      MedianSetupSeconds(kSetupReps, [&] { in = MakeInputs(options.seed); });

  hsis::sovereign::IntersectionOptions opts;
  opts.threads = LoadThreads(options);
  auto exchange = [&] {
    hsis::Rng rng(in.protocol_seed);
    return hsis::sovereign::RunTwoPartyIntersectionStreamed(
        in.a, in.b, group, *family, rng, opts);
  };

  // Warm-up (discarded): the first exchange pays for page faults in the
  // resolve maps and for spinning up the worker pool.
  auto first = exchange();
  report.Check(first.ok(), "warm-up exchange: " + first.status().ToString());
  if (!first.ok()) return report;

  Tracer tracer;
  Samples exchange_ms;
  double tuples = 0, seconds = 0;
  ReplayTotals replays;
  const double per_exchange_tuples =
      static_cast<double>(in.a.size() + in.b.size());
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    auto x = exchange();
    const double ms = MsSince(t0);
    // Identical inputs and Rng state: the outcome must repeat exactly.
    const bool ok = x.ok() && SameOutcome(x->first, first->first) &&
                    SameOutcome(x->second, first->second);
    report.Op(ok, "RunTwoPartyIntersectionStreamed: " +
                      (x.ok() ? "outcome differs from the first exchange"
                              : x.status().ToString()));
    if (!x.ok()) continue;
    exchange_ms.Add(ms);
    seconds += ms / 1e3;
    tuples += per_exchange_tuples;

    if (options.trace) {
      tracer.SetOp(exchange_ms.size());
      hsis::Rng rng(in.protocol_seed);
      const uint64_t before = tracer.TotalSelfNs();
      auto replay = ReplayIntersection(in.a, in.b, group, *family, rng,
                                       opts.chunk_size, opts.threads, &tracer);
      report.Check(replay.ok() && SameOutcome(replay->a, x->first) &&
                       SameOutcome(replay->b, x->second),
                   "replay disagrees with RunTwoPartyIntersectionStreamed");
      if (replay.ok()) {
        replays.Add(*replay, ms,
                    static_cast<double>(tracer.TotalSelfNs() - before) / 1e6,
                    in.a.size() + in.b.size());
      }
    }
  } while (SecondsBetween(start, Clock::now()) < options.seconds);

  // Intersections equal Dataset::Intersect of the reported sets, and
  // commitments equal the multiset hash of each reported set.
  const Dataset expected = in.a.Intersect(in.b);
  const hsis::Bytes commit_a = family->HashMultiset(Values(in.a))->Serialize();
  const hsis::Bytes commit_b = family->HashMultiset(Values(in.b))->Serialize();
  report.Check(first->first.intersection == expected &&
                   first->second.intersection == expected &&
                   first->first.intersection_size == kShared &&
                   first->first.own_commitment == commit_a &&
                   first->second.own_commitment == commit_b &&
                   first->first.peer_commitment == commit_b &&
                   first->second.peer_commitment == commit_a,
               "streamed exchange: wrong intersection or commitment");

  const double wire_bytes = static_cast<double>(first->first.bytes_sent +
                                                first->second.bytes_sent);
  report.latency_ms_p50 = report.Summarize("exchange_ms", exchange_ms, "ms");
  report.throughput_per_s = per_exchange_tuples / (report.latency_ms_p50 / 1e3);
  report.AddDetail("exchange_tuples_per_s", tuples / seconds, "1/s");
  report.AddDetail("exchange_ms_p50", exchange_ms.Median(), "ms");
  if (exchange_ms.size() >= 100) {  // ten samples beyond p90
    report.AddDetail("exchange_ms_p90", exchange_ms.Quantile(0.9), "ms");
  }
  report.AddDetail("wire_bytes_per_tuple", wire_bytes / per_exchange_tuples,
                   "bytes");
  report.AddDetail("threads", opts.threads, "count");

  if (options.trace) {
    ProtocolLayerMetrics(tracer, replays, report.layers);
    tracer.WriteSpans(options.trace_dir + "/spans-bulk-exchange.jsonl");
  }
  return report;
}

}  // namespace perfbench
