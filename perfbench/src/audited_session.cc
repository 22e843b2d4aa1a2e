// Workload `audited-session`: the paper's full Section 6 system on the
// production 256-bit group, single-threaded and bound by modexp.
//
// Four parties issue their tuples through their tuple generators into
// the auditing device, then run a fixed schedule of two-party
// `RunExchange` rounds (honest, fabricated probes, withheld tuples) with
// Bernoulli audits at f = 0.5, plus one 4-party `RunMultiPartyExchange`
// ring. That is one pass. Every pass starts a fresh session from the same
// seed, so every pass does identical work and draws identical audits;
// the run repeats passes until its time is up.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "audit/auditing_device.h"
#include "audit/tuple_generator.h"
#include "core/honest_sharing_session.h"
#include "crypto/group.h"
#include "harness.h"
#include "protocol_replay.h"

namespace perfbench {

namespace {

using hsis::core::CheatPlan;
using hsis::core::ExchangeResult;
using hsis::core::ExchangeStats;
using hsis::core::HonestSharingSession;
using hsis::sovereign::Dataset;
using hsis::sovereign::Tuple;

constexpr int kParties = 4;
constexpr size_t kTuplesPerParty = 2000;
constexpr size_t kCommonTuples = 1000;  // held by all four parties
constexpr size_t kProbeHits = 8;        // probes aimed at real peer tuples
constexpr size_t kProbeMisses = 8;
constexpr size_t kWithhold = 64;
constexpr double kAuditFrequency = 0.5;
constexpr double kPenalty = 100.0;

struct Round {
  int a, b;
  CheatPlan cheat_a, cheat_b;
};

struct Inputs {
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> values;  // issue order
  std::vector<Dataset> truth;
  std::vector<Round> rounds;
  uint64_t session_seed = 0;
};

std::string Hex(uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

Inputs MakeInputs(uint64_t seed) {
  hsis::Rng rng(seed);
  std::unordered_set<std::string> used;
  auto fresh = [&](const char* prefix) {
    for (;;) {
      std::string v = std::string(prefix) + Hex(rng.NextUint64());
      if (used.insert(v).second) return v;
    }
  };
  Inputs in;
  std::vector<std::string> common;
  for (size_t i = 0; i < kCommonTuples; ++i) common.push_back(fresh("cust-"));
  std::vector<std::vector<std::string>> privates(kParties);
  for (int p = 0; p < kParties; ++p) {
    in.names.push_back("party" + std::to_string(p));
    std::vector<std::string> v = common;
    for (size_t i = kCommonTuples; i < kTuplesPerParty; ++i) {
      privates[p].push_back(fresh("cust-"));
      v.push_back(privates[p].back());
    }
    rng.Shuffle(v);
    in.truth.push_back(Dataset::FromStrings(v));
    in.values.push_back(std::move(v));
  }
  // Probes of `a` against `b`: some of b's private tuples, some misses.
  auto probes = [&](int b) {
    std::vector<std::string> out;
    for (size_t i = 0; i < kProbeHits; ++i) {
      out.push_back(privates[b][rng.UniformUint64(privates[b].size())]);
    }
    for (size_t i = 0; i < kProbeMisses; ++i) out.push_back(fresh("probe-"));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  CheatPlan honest;
  CheatPlan withhold;
  withhold.withhold = kWithhold;
  CheatPlan probe12, probe03;
  probe12.fabricate = probes(2);
  probe03.fabricate = probes(3);
  in.rounds = {{0, 1, honest, honest},
               {1, 2, probe12, honest},
               {2, 3, honest, withhold},
               {0, 3, probe03, withhold}};
  in.session_seed = rng.NextUint64();
  return in;
}

hsis::Result<HonestSharingSession> NewSession(const Inputs& in) {
  hsis::core::SessionConfig config;
  config.audit_frequency = kAuditFrequency;
  config.penalty = kPenalty;
  config.seed = in.session_seed;
  HSIS_ASSIGN_OR_RETURN(HonestSharingSession session,
                        HonestSharingSession::Create(config));
  for (const std::string& name : in.names) {
    HSIS_RETURN_IF_ERROR(session.AddParty(name));
  }
  return session;
}

Dataset Reported(const Dataset& truth, const CheatPlan& plan) {
  Dataset out = truth;
  for (const std::string& f : plan.fabricate) out.Add(Tuple::FromString(f));
  return out;
}

bool AuditConsistent(const ExchangeStats& s, const CheatPlan& plan) {
  const bool cheated = !plan.IsHonest();
  return s.detected == (s.audited && cheated) &&
         s.penalty_paid == (s.detected ? kPenalty : 0.0);
}

/// Checks one round's outcome against what the reported sets imply.
bool RoundCorrect(const Inputs& in, const Round& r, const ExchangeResult& x) {
  const Dataset rep_a = Reported(in.truth[r.a], r.cheat_a);
  const Dataset rep_b = Reported(in.truth[r.b], r.cheat_b);
  const Dataset upper = rep_a.Intersect(rep_b);
  if (!(x.a.intersection == x.b.intersection)) return false;
  if (x.a.reported_size != rep_a.size() - r.cheat_a.withhold ||
      x.b.reported_size != rep_b.size() - r.cheat_b.withhold) {
    return false;
  }
  if (r.cheat_a.withhold == 0 && r.cheat_b.withhold == 0) {
    if (!(x.a.intersection == upper)) return false;
  } else {
    // Withheld tuples are drawn inside the session: the result must be
    // a subset of the full intersection missing at most the withheld.
    if (!(x.a.intersection.Intersect(upper) == x.a.intersection)) return false;
    if (x.a.intersection.size() + r.cheat_a.withhold + r.cheat_b.withhold <
        upper.size()) {
      return false;
    }
  }
  auto hits = [](const CheatPlan& plan, const Dataset& d) {
    size_t n = 0;
    for (const std::string& f : plan.fabricate) {
      n += d.Contains(Tuple::FromString(f)) ? 1 : 0;
    }
    return n;
  };
  return x.a.probe_hits == hits(r.cheat_a, x.a.intersection) &&
         x.b.probe_hits == hits(r.cheat_b, x.b.intersection) &&
         (r.cheat_b.withhold != 0 ||
          x.a.probe_hits == hits(r.cheat_a, in.truth[r.b])) &&
         AuditConsistent(x.a, r.cheat_a) && AuditConsistent(x.b, r.cheat_b);
}

/// What one pass observed that must repeat exactly in every pass.
struct PassSignature {
  std::vector<int> audits;  // per round: audited_a, detected_a, ...
  bool operator==(const PassSignature&) const = default;
};

struct Totals {
  Samples exchange_ms, ring_ms;
  Samples pass_protocol_s;  // a pass's rounds plus its ring
  double exchange_s = 0, ring_s = 0, issue_s = 0;
  double exchange_tuples = 0, ring_tuples = 0, issued = 0;
  // Traced run.
  ReplayTotals replays;
  uint64_t issue_traced = 0, audit_calls = 0;
  int audits = 0, flags = 0, audited_cheats = 0;
};

void RunPass(const Inputs& in, const hsis::crypto::MultisetHashFamily& family,
             Tracer* tracer, int pass, Totals& t, PassSignature& sig,
             Report& report) {
  auto session = NewSession(in);
  report.Check(session.ok(), "session create: " + session.status().ToString());
  if (!session.ok()) return;

  Clock::time_point t0 = Clock::now();
  for (int p = 0; p < kParties; ++p) {
    hsis::Status s = session->IssueTuples(in.names[p], in.values[p]);
    report.Op(s.ok(), "IssueTuples: " + s.ToString());
  }
  t.issue_s += SecondsBetween(t0, Clock::now());
  t.issued += static_cast<double>(kParties * kTuplesPerParty);

  // The traced run's own auditing device, fed through tuple generators
  // with the same family, so the audit layer can be timed call by call.
  std::optional<hsis::audit::AuditingDevice> device;
  if (tracer != nullptr) {
    auto created = hsis::audit::AuditingDevice::Create(1.0, kPenalty);
    report.Check(created.ok(), "replay device");
    if (!created.ok()) return;
    device.emplace(std::move(*created));
    for (int p = 0; p < kParties; ++p) {
      auto tg = hsis::audit::TupleGenerator::Create(in.names[p], family,
                                                    &*device);
      report.Check(tg.ok(), "replay tuple generator");
      if (!tg.ok()) return;
      bool issued = true;
      for (const std::string& v : in.values[p]) {
        Tracer::Scope span(tracer, "audit", "issue");
        issued = tg->IssueString(v).ok() && issued;
      }
      report.Check(issued, "replay issue");
      t.issue_traced += in.values[p].size();
    }
  }

  const double protocol_before = t.exchange_s + t.ring_s;
  for (size_t i = 0; i < in.rounds.size(); ++i) {
    const Round& r = in.rounds[i];
    t0 = Clock::now();
    auto x = session->RunExchange(in.names[r.a], in.names[r.b], r.cheat_a,
                                  r.cheat_b);
    const double ms = MsSince(t0);
    const bool ok = x.ok() && RoundCorrect(in, r, *x);
    report.Op(ok, "RunExchange round " + std::to_string(i) + ": " +
                      (x.ok() ? "wrong result" : x.status().ToString()));
    if (!x.ok()) continue;
    t.exchange_ms.Add(ms);
    t.exchange_s += ms / 1e3;
    t.exchange_tuples +=
        static_cast<double>(x->a.reported_size + x->b.reported_size);
    for (const ExchangeStats* s : {&x->a, &x->b}) {
      sig.audits.push_back(s->audited);
      sig.audits.push_back(s->detected);
    }
    if (pass == 0) {
      for (auto [s, plan] : {std::pair{&x->a, &r.cheat_a},
                             std::pair{&x->b, &r.cheat_b}}) {
        t.audits += s->audited;
        t.flags += s->detected;
        t.audited_cheats += s->audited && !plan->IsHonest();
      }
    }

    // Replay the rounds whose reported sets are known outside the
    // session (withheld tuples are drawn by the session's own Rng).
    if (tracer == nullptr || r.cheat_a.withhold != 0 ||
        r.cheat_b.withhold != 0) {
      continue;
    }
    const Dataset rep_a = Reported(in.truth[r.a], r.cheat_a);
    const Dataset rep_b = Reported(in.truth[r.b], r.cheat_b);
    tracer->SetOp(pass * in.rounds.size() + i);
    const uint64_t before = tracer->TotalSelfNs();
    hsis::Rng rng(in.session_seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    auto replay = ReplayIntersection(
        rep_a, rep_b, hsis::crypto::PrimeGroup::Default(), family, rng,
        std::max(rep_a.size(), rep_b.size()), 1, tracer);
    report.Check(replay.ok(), "replay: " + replay.status().ToString());
    if (!replay.ok()) continue;
    // Commitments equal the multiset hash of the reported set, and the
    // device flags a commitment exactly when the party cheated.
    std::vector<hsis::Bytes> va, vb;
    for (const Tuple& tp : rep_a.tuples()) va.push_back(tp.value);
    for (const Tuple& tp : rep_b.tuples()) vb.push_back(tp.value);
    bool flags_ok = true;
    for (auto [name, commitment, plan] :
         {std::tuple{in.names[r.a], &replay->a.own_commitment, &r.cheat_a},
          std::tuple{in.names[r.b], &replay->b.own_commitment, &r.cheat_b}}) {
      Tracer::Scope span(tracer, "audit", "audit");
      auto audited = device->Audit(name, *commitment);
      flags_ok = flags_ok && audited.ok() &&
                 audited->cheating_detected == !plan->IsHonest();
      ++t.audit_calls;
    }
    const double layers_ms =
        static_cast<double>(tracer->TotalSelfNs() - before) / 1e6;
    report.Check(
        replay->a.intersection == x->a.intersection &&
            replay->b.intersection == x->b.intersection &&
            replay->a.own_commitment ==
                family.HashMultiset(va)->Serialize() &&
            replay->b.own_commitment ==
                family.HashMultiset(vb)->Serialize() &&
            replay->a.peer_commitment == replay->b.own_commitment && flags_ok,
        "replay of round " + std::to_string(i) + " disagrees with RunExchange");
    t.replays.Add(*replay, ms, layers_ms, rep_a.size() + rep_b.size());
  }

  Dataset expected = in.truth[0];
  for (int p = 1; p < kParties; ++p) expected = expected.Intersect(in.truth[p]);
  t0 = Clock::now();
  auto ring = session->RunMultiPartyExchange(in.names);
  const double ring_ms = MsSince(t0);
  bool ring_ok = ring.ok() && ring->parties.size() == kParties;
  if (ring_ok) {
    for (const ExchangeStats& s : ring->parties) {
      ring_ok = ring_ok && s.intersection == expected && !s.detected;
    }
  }
  report.Op(ring_ok, "RunMultiPartyExchange: " +
                         (ring.ok() ? "wrong result" : ring.status().ToString()));
  if (ring.ok()) {
    t.ring_ms.Add(ring_ms);
    t.ring_s += ring_ms / 1e3;
    t.ring_tuples += static_cast<double>(kParties * kTuplesPerParty);
    for (const ExchangeStats& s : ring->parties) {
      sig.audits.push_back(s.audited);
      if (pass == 0) {
        t.audits += s.audited;
        t.flags += s.detected;
      }
    }
  }
  t.pass_protocol_s.Add(t.exchange_s + t.ring_s - protocol_before);
}

}  // namespace

Report RunAuditedSession(const Options& options) {
  Report report;
  Inputs in;
  std::optional<HonestSharingSession> warm;
  report.setup_s = MedianSetupSeconds(kSetupReps, [&] {
    in = MakeInputs(options.seed);
    auto session = NewSession(in);
    if (session.ok()) warm.emplace(std::move(*session));
  });
  report.Check(warm.has_value(), "setup: session create failed");
  if (!warm) return report;

  auto family =
      hsis::crypto::MultisetHashFamily::CreateMu(
          hsis::crypto::PrimeGroup::Default());
  report.Check(family.ok(), "Mu family");
  if (!family.ok()) return report;

  // Warm-up (discarded): issue into the set-up session and run one
  // honest round, so code, allocator and caches are hot before timing.
  for (int p = 0; p < 2; ++p) {
    report.Check(warm->IssueTuples(in.names[p], in.values[p]).ok(),
                 "warm-up issue");
  }
  report.Check(warm->RunExchange(in.names[0], in.names[1]).ok(),
               "warm-up exchange");

  Tracer tracer;
  Tracer* tr = options.trace ? &tracer : nullptr;
  Totals t;
  PassSignature first;
  const Clock::time_point start = Clock::now();
  int pass = 0;
  do {
    PassSignature sig;
    RunPass(in, *family, tr, pass, t, sig, report);
    if (pass == 0) {
      first = sig;
    } else {
      report.Check(sig == first, "pass " + std::to_string(pass) +
                                     " drew different audits than pass 0");
    }
    ++pass;
  } while (SecondsBetween(start, Clock::now()) < options.seconds);

  const double exchange_tps = t.exchange_tuples / t.exchange_s;
  report.throughput_per_s = (t.exchange_tuples + t.ring_tuples) / pass /
                            t.pass_protocol_s.Median();
  report.latency_ms_p50 =
      report.Summarize("exchange_ms", t.exchange_ms, "ms");
  report.Summarize("ring_ms", t.ring_ms, "ms");
  report.AddDetail("exchange_tuples_per_s", exchange_tps, "1/s");
  report.AddDetail("exchange_ms_p50", t.exchange_ms.Median(), "ms");
  if (t.exchange_ms.size() >= 100) {  // ten samples beyond p90
    report.AddDetail("exchange_ms_p90", t.exchange_ms.Quantile(0.9), "ms");
  }
  report.AddDetail("issue_tuples_per_s", t.issued / t.issue_s, "1/s");
  report.AddDetail("ring_ms_p50", t.ring_ms.Median(), "ms");
  report.AddDetail("passes", pass, "count");

  if (tr != nullptr && t.replays.replayed > 0) {
    std::map<std::string, double>& m = report.layers;
    ProtocolLayerMetrics(tracer, t.replays, m);
    m["audit.issue_us_per_tuple"] =
        static_cast<double>(tracer.Get("audit", "issue").self_ns) /
        static_cast<double>(t.issue_traced) / 1e3;
    m["audit.audit_us"] =
        static_cast<double>(tracer.Get("audit", "audit").self_ns) /
        static_cast<double>(t.audit_calls) / 1e3;
    m["audit.audits"] = t.audits;
    m["audit.flags"] = t.flags;
    m["audit.detect_ratio"] =
        t.audited_cheats == 0 ? 1.0
                              : static_cast<double>(t.flags) / t.audited_cheats;
    report.AddDetail("wire_bytes_per_tuple",
                     static_cast<double>(t.replays.wire_bytes) /
                         static_cast<double>(t.replays.tuples),
                     "bytes");
    tracer.WriteSpans(options.trace_dir + "/spans-audited-session.jsonl");
  }
  return report;
}

}  // namespace perfbench
