#include "harness.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int LoadThreads(const Options& options) {
  return options.threads > 0 ? options.threads : Nproc();
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  Sort();
  const double pos = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + frac * (values_[hi] - values_[lo]);
}

std::optional<std::pair<std::string, double>> Samples::Tail() const {
  static const std::pair<const char*, double> kTails[] = {
      {"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}};
  for (const auto& [label, q] : kTails) {
    if (static_cast<double>(values_.size()) * (1.0 - q) >= 10.0) {
      return std::make_pair(std::string(label), Quantile(q));
    }
  }
  return std::nullopt;
}

size_t Histogram::Bucket(uint64_t ns) {
  if (ns < (uint64_t{1} << kSubBits)) return static_cast<size_t>(ns);
  const int msb = 63 - std::countl_zero(ns);
  const int shift = msb - kSubBits;
  const uint64_t sub = (ns >> shift) & ((uint64_t{1} << kSubBits) - 1);
  return (static_cast<size_t>(shift + 1) << kSubBits) + sub;
}

std::pair<double, double> Histogram::BucketSpan(size_t bucket) {
  if (bucket < (size_t{1} << kSubBits)) {
    return {static_cast<double>(bucket), 1.0};
  }
  const int shift = static_cast<int>(bucket >> kSubBits) - 1;
  const uint64_t sub = bucket & ((uint64_t{1} << kSubBits) - 1);
  return {std::ldexp(static_cast<double>((uint64_t{1} << kSubBits) + sub),
                     shift),
          std::ldexp(1.0, shift)};
}

void Histogram::Add(uint64_t ns) {
  ++buckets_[std::min(Bucket(ns), buckets_.size() - 1)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const uint64_t rank = std::min<uint64_t>(
      count_ - 1, static_cast<uint64_t>(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (seen + buckets_[i] > rank) {
      // Spread the bucket's samples evenly over its width.
      const auto [lo, width] = BucketSpan(i);
      return lo + width * (static_cast<double>(rank - seen) + 0.5) /
                      static_cast<double>(buckets_[i]);
    }
    seen += buckets_[i];
  }
  return 0;
}

void Tracer::Begin(const char* layer, const char* name) {
  stack_.push_back({layer, name, Clock::now(), 0, next_id_++});
}

void Tracer::End() {
  const Clock::time_point end = Clock::now();
  Open open = stack_.back();
  stack_.pop_back();
  const uint64_t dur = NsBetween(open.start, end);
  const uint64_t self = dur > open.child_ns ? dur - open.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  Aggregate& agg = Slot(open.layer, open.name);
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += self;
  if (raw_.size() < kMaxRaw) {
    const uint64_t start_ns =
        static_cast<uint64_t>(open.start.time_since_epoch().count());
    raw_.push_back({open.id, stack_.empty() ? 0 : stack_.back().id, op_,
                    thread_id_, open.layer, open.name, start_ns,
                    start_ns + dur});
  }
}

Tracer::Aggregate& Tracer::Slot(const char* layer, const char* name) {
  for (Entry& e : entries_) {
    if (e.name == name && e.layer == layer) return e.agg;
  }
  entries_.push_back({layer, name, {}});
  return entries_.back().agg;
}

Tracer::Aggregate Tracer::Get(const std::string& layer,
                              const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.layer == layer && e.name == name) return e.agg;
  }
  return {};
}

uint64_t Tracer::TotalSelfNs() const {
  uint64_t sum = 0;
  for (const Entry& e : entries_) sum += e.agg.self_ns;
  return sum;
}

void Tracer::Merge(const Tracer& other) {
  for (const Entry& e : other.entries_) {
    Aggregate& mine = Slot(e.layer.c_str(), e.name.c_str());
    mine.count += e.agg.count;
    mine.total_ns += e.agg.total_ns;
    mine.self_ns += e.agg.self_ns;
  }
  raw_.insert(raw_.end(), other.raw_.begin(), other.raw_.end());
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Raw& r : raw_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"thread\":%u,"
                 "\"layer\":\"%s\",\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu}\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.op), r.thread, r.layer,
                 r.name, static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

void Report::Op(bool ok, const std::string& what_failed) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what_failed);
  }
}

double Report::Summarize(const std::string& name, const Samples& samples,
                         const std::string& unit) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: median %.6g %s, q1 %.6g, q3 %.6g, n %zu", name.c_str(),
                samples.Median(), unit.c_str(), samples.Quantile(0.25),
                samples.Quantile(0.75), samples.size());
  std::string text = line;
  if (auto tail = samples.Tail()) {
    std::snprintf(line, sizeof(line), ", %s %.6g", tail->first.c_str(),
                  tail->second);
    text += line;
  }
  distributions.push_back(text);
  return samples.Median();
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"crypto.hash_encrypt_ms", "ms"},
      {"crypto.encrypt_ms", "ms"},
      {"crypto.modexps", "count"},
      {"crypto.modexp_per_s", "1/s"},
      {"crypto.keygen_ms", "ms"},
      {"sovereign.commit_ms", "ms"},
      {"sovereign.frame_encode_ms", "ms"},
      {"sovereign.frame_decode_ms", "ms"},
      {"sovereign.channel_seal_ms", "ms"},
      {"sovereign.channel_open_ms", "ms"},
      {"sovereign.shuffle_ms", "ms"},
      {"sovereign.resolve_ms", "ms"},
      {"sovereign.frames", "count"},
      {"sovereign.wire_bytes", "bytes"},
      {"sovereign.unexplained_ms", "ms"},
      {"audit.issue_us_per_tuple", "us"},
      {"audit.audit_us", "us"},
      {"audit.audits", "count"},
      {"audit.flags", "count"},
      {"audit.detect_ratio", "ratio"},
      {"serve.snap_ns", "ns"},
      {"serve.cache_lookup_ns", "ns"},
      {"serve.hits", "count"},
      {"serve.misses", "count"},
      {"serve.evictions", "count"},
      {"serve.hit_ratio", "ratio"},
      {"serve.cache_insert_ns", "ns"},
      {"serve.analytic_us", "us"},
      {"serve.render_us", "us"},
      {"serve.kernel_ns_per_req", "ns"},
      {"trace.unexplained_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& DrainLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"common.lease_rpc_us", "us"},
      {"common.complete_rpc_us", "us"},
      {"common.lease_requests", "count"},
      {"common.no_work_replies", "count"},
      {"common.grant_ratio", "ratio"},
      {"common.shard_run_ms", "ms"},
      {"common.manifest_ms", "ms"},
      {"common.merge_ms", "ms"},
      {"common.retries", "count"},
      {"common.expired", "count"},
      {"game.sweep_ms", "ms"},
  };
  return kMetrics;
}

}  // namespace perfbench
