// Workload `sweep-drain`: the five figure sweeps drained through an
// in-process `SweepService` on loopback by nproc - 1 worker threads,
// each a `SweepServiceClient` plus a `ShardRunner`.
//
// The five sweeps are concatenated into one plan (in seeded order) of
// 160 fine shards, ~16 rows each. A whole figure export takes ~1.5 ms,
// so the drain is bound by coordination: lease RPCs, shard files,
// manifests, SHA-256 checks and the merge. Every drain's merged rows
// must be byte-identical to the serial `game::LandscapeCsv` of each
// figure.
//
// Every lease creates two shard files, so the drain follows the file
// system's speed; the files are deleted between drains, outside the
// timing. One plan per drain, not one daemon per figure: every worker
// connection leaves a TIME_WAIT socket for 60 s, and five daemons per
// ~20 ms drain piled up tens of thousands of them and slowed every later
// connect() and bind().
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/file.h"
#include "common/random.h"
#include "common/shard.h"
#include "common/sweep_service.h"
#include "game/landscape_shards.h"
#include "harness.h"

namespace perfbench {

namespace {

namespace cm = hsis::common;

constexpr const char* kSweepName = "figures";
constexpr int kShards = 160;

struct Figure {
  std::string name;
  cm::ShardSweepSpec spec;
  size_t offset = 0;  // first row of this figure in the combined plan
};

struct Inputs {
  std::vector<Figure> figures;  // drain order
  std::string dir;
  cm::ShardSweepSpec spec;      // the five figures, concatenated
  std::optional<cm::ShardPlan> plan;
  std::optional<cm::ShardPlanInfo> info;
  std::string expected_rows;    // the serial CSVs' rows, concatenated
  std::string worker_prefix;
};

/// Plans the five figure sweeps as one combined sweep in `dir` and
/// computes their serial CSVs.
hsis::Result<Inputs> MakeInputs(uint64_t seed, const std::string& dir) {
  Inputs in;
  in.dir = dir;
  for (const char* name :
       {"figure1", "figure2_f02", "figure2_f07", "figure3", "figure4"}) {
    Figure f;
    f.name = name;
    HSIS_ASSIGN_OR_RETURN(f.spec, hsis::game::LandscapeSweepSpec(name));
    in.figures.push_back(std::move(f));
  }
  hsis::Rng rng(seed);
  rng.Shuffle(in.figures);
  in.worker_prefix = "w" + std::to_string(rng.UniformUint64(1000000)) + "-";

  size_t total = 0;
  for (Figure& f : in.figures) {
    f.offset = total;
    total += f.spec.total;
    HSIS_ASSIGN_OR_RETURN(std::string csv, hsis::game::LandscapeCsv(f.name));
    HSIS_ASSIGN_OR_RETURN(std::string header,
                          hsis::game::LandscapeCsvHeader(f.name));
    if (csv.compare(0, header.size(), header) != 0) {
      return hsis::Status::Internal(f.name +
                                    ": CSV does not start with its header");
    }
    in.expected_rows += csv.substr(header.size());
  }
  in.spec.name = kSweepName;
  in.spec.total = total;
  in.spec.seed = 0;
  in.spec.record =
      [figures = in.figures](size_t i) -> hsis::Result<hsis::Bytes> {
    auto it = std::upper_bound(
        figures.begin(), figures.end(), i,
        [](size_t row, const Figure& f) { return row < f.offset; });
    const Figure& f = *(it - 1);
    return f.spec.record(i - f.offset);
  };
  HSIS_ASSIGN_OR_RETURN(cm::ShardPlan plan,
                        cm::ShardPlan::Create(total, kShards));
  in.plan.emplace(plan);
  HSIS_RETURN_IF_ERROR(hsis::CreateDirectories(dir));
  HSIS_RETURN_IF_ERROR(cm::WriteShardPlan(in.spec, plan, dir));
  HSIS_ASSIGN_OR_RETURN(cm::ShardPlanInfo info, cm::ReadShardPlan(dir));
  in.info.emplace(info);
  return in;
}

/// Deletes every shard's files, outside the timed drain, so the next
/// drain's daemon finds all shards pending. Fresh files are cheaper to
/// write than truncating old ones, whose blocks must be freed.
void Uncommit(const Inputs& in) {
  for (int k = 0; k < in.plan->shards(); ++k) {
    std::error_code ec;
    std::filesystem::remove(cm::ShardManifestPath(in.dir, k), ec);
    std::filesystem::remove(cm::ShardPayloadPath(in.dir, k), ec);
  }
}

struct WorkerCounts {
  uint64_t lease_requests = 0;
  uint64_t no_work = 0;
  uint64_t grants = 0;
  std::string error;
};

void Worker(const std::string& name, int port, const cm::ShardRunner& runner,
            const std::string& dir, Tracer* tr, WorkerCounts& out) {
  auto client = cm::SweepServiceClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    out.error = client.status().ToString();
    return;
  }
  for (;;) {
    hsis::Result<std::variant<cm::SweepLeaseGrant, cm::SweepNoWork>> lease =
        hsis::Status::Internal("unset");
    {
      Tracer::Scope span(tr, "common", "lease_rpc");
      lease = (*client)->RequestLease(name);
    }
    ++out.lease_requests;
    if (!lease.ok()) {
      out.error = lease.status().ToString();
      return;
    }
    if (const auto* none = std::get_if<cm::SweepNoWork>(&*lease)) {
      ++out.no_work;
      if (none->drained != 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(none->retry_ms));
      continue;
    }
    const auto& grant = std::get<cm::SweepLeaseGrant>(*lease);
    if (grant.sweep != kSweepName) {
      out.error = "grant names sweep " + grant.sweep;
      return;
    }
    const int shard = static_cast<int>(grant.shard);
    ++out.grants;
    hsis::Status ran = hsis::Status::OK();
    {
      Tracer::Scope span(tr, "common", "shard_run");
      ran = runner.Run(shard, dir, 1);
    }
    if (!ran.ok()) {
      out.error = ran.ToString();
      return;
    }
    std::string sha;
    {
      Tracer::Scope span(tr, "common", "manifest");
      auto text = hsis::ReadFile(cm::ShardManifestPath(dir, shard));
      auto manifest = text.ok()
                          ? cm::ParseShardManifest(*text)
                          : hsis::Result<cm::ShardManifest>(text.status());
      if (!manifest.ok()) {
        out.error = manifest.status().ToString();
        return;
      }
      sha = manifest->payload_sha256;
    }
    hsis::Result<cm::SweepCompleteAck> ack = hsis::Status::Internal("unset");
    {
      Tracer::Scope span(tr, "common", "complete_rpc");
      ack = (*client)->Complete(grant.lease_id, shard, sha);
    }
    if (!ack.ok()) {
      out.error = ack.status().ToString();
      return;
    }
  }
}

struct DrainTotals {
  uint64_t lease_requests = 0, no_work = 0, grants = 0;
  int retries = 0, expired = 0;
};

/// Drains the plan once: daemon start, workers, daemon stop, merge.
/// Returns false (and records why) on any error or wrong merge.
bool Drain(const Inputs& in, int workers, Tracer* coordinator,
           std::vector<Tracer>* worker_tracers, DrainTotals& totals,
           Report& report) {
  cm::SweepServiceOptions service_options;
  service_options.lease.lease_ms = 60000;
  service_options.lease.retry_ms = 1;
  // Stop() waits for the accept loop's next poll tick; at the default
  // 50 ms that wait, not the coordination, would dominate the drain.
  service_options.expiry_poll_ms = 1;
  auto service = cm::SweepService::Start(*in.info, in.dir, service_options);
  if (!service.ok()) {
    report.errors.push_back("SweepService::Start: " +
                            service.status().ToString());
    return false;
  }
  const cm::ShardRunner runner(in.spec, *in.plan);
  std::vector<WorkerCounts> counts(workers);
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back(
        Worker, in.worker_prefix + std::to_string(w), (*service)->port(),
        std::cref(runner), std::cref(in.dir),
        worker_tracers == nullptr ? nullptr : &(*worker_tracers)[w],
        std::ref(counts[w]));
  }
  for (std::thread& t : threads) t.join();
  bool ok = true;
  uint64_t grants = 0;
  for (const WorkerCounts& c : counts) {
    totals.lease_requests += c.lease_requests;
    totals.no_work += c.no_work;
    grants += c.grants;
    if (!c.error.empty()) {
      report.errors.push_back("worker: " + c.error);
      ok = false;
    }
  }
  totals.grants += grants;
  const cm::SweepStatusReply status = (*service)->Snapshot();
  totals.retries += static_cast<int>(status.retries);
  totals.expired += static_cast<int>(status.expired);
  ok = ok && (*service)->drained() && (*service)->run_status().ok() &&
       status.retries == 0 && status.expired == 0 &&
       grants == static_cast<uint64_t>(in.plan->shards());
  (*service)->Stop();

  hsis::Result<hsis::Bytes> merged = hsis::Status::Internal("unset");
  {
    Tracer::Scope span(coordinator, "common", "merge");
    merged = cm::MergeShards(in.dir, kSweepName);
  }
  const bool same =
      merged.ok() && hsis::BytesToString(*merged) == in.expected_rows;
  if (!same) {
    report.errors.push_back("merged rows differ from the serial LandscapeCsv");
  }
  ok = ok && same;
  if (coordinator != nullptr) {
    // The serial exports the merge must match, timed as the figure
    // kernels' share of the work.
    std::string rows;
    for (const Figure& f : in.figures) {
      hsis::Result<std::string> csv = std::string();
      {
        Tracer::Scope span(coordinator, "game", "sweep");
        csv = hsis::game::LandscapeCsv(f.name);
      }
      auto header = hsis::game::LandscapeCsvHeader(f.name);
      ok = ok && csv.ok() && header.ok();
      if (ok) rows += csv->substr(header->size());
    }
    ok = ok && rows == in.expected_rows;
  }
  return ok;
}

}  // namespace

Report RunSweepDrain(const Options& options) {
  Report report;
  const int workers = std::max(1, LoadThreads(options) - 1);
  const std::string base = options.work_dir + "/sweep-drain";
  std::optional<Inputs> in;
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
  report.setup_s = MedianSetupSeconds(kSetupReps, [&] {
    auto made = MakeInputs(options.seed, base);
    if (made.ok()) in.emplace(std::move(*made));
  });
  report.Check(in.has_value(), "sweep inputs");
  if (!in) return report;

  // Warm-up drain (discarded): starts the loopback stack and the file
  // paths the drains reuse.
  DrainTotals warm;
  report.Check(Drain(*in, workers, nullptr, nullptr, warm, report),
               "warm-up drain");

  // A traced run alternates untraced and traced drains, so the tracing
  // overhead is the difference of their medians.
  Samples drain_s, traced_s;
  DrainTotals totals, traced_totals;
  Tracer coordinator;
  std::vector<Tracer> worker_tracers;
  for (int w = 0; w < workers; ++w) worker_tracers.emplace_back(w + 1);
  double seconds = 0;
  uint64_t shards = 0;
  const Clock::time_point start = Clock::now();
  int k = 0;
  do {
    const bool traced = options.trace && k % 2 == 1;
    if (traced) {
      coordinator.SetOp(k);
      for (Tracer& w : worker_tracers) w.SetOp(k);
    }
    Uncommit(*in);
    const Clock::time_point t0 = Clock::now();
    DrainTotals& t = traced ? traced_totals : totals;
    const bool ok = Drain(*in, workers, traced ? &coordinator : nullptr,
                          traced ? &worker_tracers : nullptr, t, report);
    const double s = SecondsBetween(t0, Clock::now());
    report.Op(ok, "drain " + std::to_string(k));
    if (traced) {
      traced_s.Add(s);
    } else {
      drain_s.Add(s);
      seconds += s;
      shards += in->plan->shards();
    }
    ++k;
  } while (SecondsBetween(start, Clock::now()) < options.seconds ||
           (options.trace && traced_s.empty()));
  std::filesystem::remove_all(base, ec);

  report.latency_ms_p50 = 1e3 * report.Summarize("drain_s", drain_s, "s");
  report.throughput_per_s = kShards / drain_s.Median();
  report.AddDetail("drain_s", drain_s.Median(), "s");
  report.AddDetail("leases_per_s", static_cast<double>(shards) / seconds,
                   "1/s");
  report.AddDetail("workers", workers, "count");
  if (!options.trace) return report;

  report.Summarize("traced_drain_s", traced_s, "s");
  Tracer merged;
  for (const Tracer& w : worker_tracers) merged.Merge(w);
  const double drains = static_cast<double>(traced_s.size());
  auto per_call_us = [&](const char* name) {
    const Tracer::Aggregate a = merged.Get("common", name);
    return a.count == 0 ? 0.0
                        : static_cast<double>(a.self_ns) /
                              static_cast<double>(a.count) / 1e3;
  };
  auto per_drain_ms = [&](const Tracer& t, const char* layer,
                          const char* name) {
    return static_cast<double>(t.Get(layer, name).self_ns) / drains / 1e6;
  };
  std::map<std::string, double>& m = report.layers;
  m["common.lease_rpc_us"] = per_call_us("lease_rpc");
  m["common.complete_rpc_us"] = per_call_us("complete_rpc");
  m["common.lease_requests"] =
      static_cast<double>(traced_totals.lease_requests) / drains;
  m["common.no_work_replies"] =
      static_cast<double>(traced_totals.no_work) / drains;
  m["common.grant_ratio"] = static_cast<double>(traced_totals.grants) /
                            static_cast<double>(traced_totals.lease_requests);
  m["common.shard_run_ms"] = per_drain_ms(merged, "common", "shard_run");
  m["common.manifest_ms"] = per_drain_ms(merged, "common", "manifest");
  m["common.merge_ms"] = per_drain_ms(coordinator, "common", "merge");
  m["common.retries"] = totals.retries + traced_totals.retries;
  m["common.expired"] = totals.expired + traced_totals.expired;
  const Tracer::Aggregate sweep = coordinator.Get("game", "sweep");
  m["game.sweep_ms"] = static_cast<double>(sweep.self_ns) /
                       static_cast<double>(sweep.count) / 1e6;
  // The traced drains also ran the serial reference exports; take them
  // out before comparing with the untraced drains. Workers run side by
  // side, so their spans cover the drain's wall time divided among them;
  // the coordinator's spans are serial.
  const double sweep_ms = static_cast<double>(sweep.self_ns) / 1e6;
  const double traced_ms = traced_s.Sum() * 1e3 - sweep_ms;
  const double covered_ms =
      static_cast<double>(merged.TotalSelfNs()) / workers / 1e6 +
      static_cast<double>(coordinator.TotalSelfNs()) / 1e6 - sweep_ms;
  m["trace.unexplained_pct"] = 100.0 * (traced_ms - covered_ms) / traced_ms;
  const double untraced_ms = drain_s.Median() * 1e3;
  m["trace.overhead_pct"] =
      100.0 * (traced_ms / drains - untraced_ms) / untraced_ms;
  coordinator.Merge(merged);
  coordinator.WriteSpans(options.trace_dir + "/spans-sweep-drain.jsonl");
  return report;
}

}  // namespace perfbench
