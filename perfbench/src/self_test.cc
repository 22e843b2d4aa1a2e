// Self-test of the counts a later change may rest a claim on: they must
// repeat exactly across runs and, where a workload has load threads,
// across thread counts.
//
//   wire_bytes_per_tuple, sovereign.frames, crypto.modexps — both
//     protocol workloads;
//   audit.audits, audit.flags — audited-session;
//   common.lease_requests - common.no_work_replies (the grants) —
//     sweep-drain.
//
// It also checks that the benchmark's Zipf sampler draws exactly what
// `Rng::Zipf` draws. Each workload runs its shortest traced form: one
// pass, exchange or drain pair.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "zipf.h"

namespace perfbench {

namespace {

struct Counts {
  std::map<std::string, double> values;
  bool correct = false;
};

Counts Measure(Report (*run)(const Options&), const Options& base,
               int threads, const std::vector<std::string>& names) {
  Options o = base;
  o.seconds = 1e-3;  // one pass / exchange / drain pair
  o.trace = true;
  o.threads = threads;
  const Report r = run(o);
  Counts c;
  c.correct = r.correct() && r.attempted > 0;
  for (const std::string& n : names) {
    if (n == "wire_bytes_per_tuple") {
      for (const Metric& m : r.detail) {
        if (m.name == n) c.values[n] = m.value;
      }
    } else if (n == "grants") {
      c.values[n] = r.layers.at("common.lease_requests") -
                    r.layers.at("common.no_work_replies");
    } else {
      c.values[n] = r.layers.at(n);
    }
  }
  return c;
}

bool Compare(const char* workload, const std::vector<Counts>& runs,
             const std::vector<int>& threads) {
  bool ok = true;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].correct) {
      std::printf("FAIL %s: run %zu reported a wrong result\n", workload, i);
      ok = false;
    }
  }
  for (const auto& [name, value] : runs[0].values) {
    bool same = true;
    for (const Counts& c : runs) same = same && c.values.at(name) == value;
    std::printf("%s %s %s: %.17g", same ? "ok  " : "FAIL", workload,
                name.c_str(), value);
    for (size_t i = 0; i < runs.size(); ++i) {
      std::printf(" [threads %d: %.17g]", threads[i],
                  runs[i].values.at(name));
    }
    std::printf("\n");
    ok = ok && same;
  }
  return ok;
}

bool ZipfMatchesRng() {
  for (const auto& [n, s] : {std::pair<size_t, double>{1, 1.1}, {1000, 1.1},
                             {1000, 0.0}, {4096, 0.6}}) {
    const ZipfSampler sampler(n, s);
    hsis::Rng a(7), b(7);
    for (int i = 0; i < 5000; ++i) {
      if (sampler.Draw(a) != b.Zipf(n, s)) {
        std::printf("FAIL zipf: n=%zu s=%g differs at draw %d\n", n, s, i);
        return false;
      }
    }
  }
  std::printf("ok   zipf sampler draws what Rng::Zipf draws\n");
  return true;
}

}  // namespace

int RunSelfTest(const Options& options) {
  bool ok = ZipfMatchesRng();
  const int n = Nproc();
  const std::vector<int> threads = {1, n, 1, n};

  const std::vector<std::string> protocol = {
      "wire_bytes_per_tuple", "sovereign.frames", "crypto.modexps"};
  std::vector<Counts> runs;
  for (int t : threads) {
    runs.push_back(Measure(RunBulkExchange, options, t, protocol));
  }
  ok = Compare("bulk-exchange", runs, threads) && ok;

  std::vector<std::string> session = protocol;
  session.push_back("audit.audits");
  session.push_back("audit.flags");
  // Audited-session is single-threaded (its calls take no thread
  // count), so only the repeat across runs is checked there.
  const std::vector<int> session_threads = {1, 1};
  runs.clear();
  for (int t : session_threads) {
    runs.push_back(Measure(RunAuditedSession, options, t, session));
  }
  ok = Compare("audited-session", runs, session_threads) && ok;

  // Sweep-drain runs nproc - 1 workers; 2 load threads give one worker.
  const std::vector<int> drain_threads = {2, n, 2, n};
  runs.clear();
  for (int t : drain_threads) {
    runs.push_back(Measure(RunSweepDrain, options, t, {"grants"}));
  }
  ok = Compare("sweep-drain", runs, drain_threads) && ok;

  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace perfbench
