// Shared harness of the repo benchmark: run options, sample statistics,
// the in-memory span tracer, and the per-run report every workload
// fills in. The workloads live in their own files and see only this
// header plus the hsis library's public headers.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsSince(Clock::time_point start) {
  return 1e3 * SecondsBetween(start, Clock::now());
}
inline uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Load threads; 0 = nproc, the only value a workload run uses. The
  /// self-test sets other counts to check that counts do not depend on it.
  int threads = 0;
  /// Directory the traced run writes its spans into.
  std::string trace_dir = ".bench_build/traces";
  /// Directory for the sweep-drain shard files.
  std::string work_dir = ".bench_build/work";
  /// Source revision stamped into the provenance line.
  std::string rev = "unknown";
};

/// Number of hardware threads, at least 1.
int Nproc();
/// Load threads a run uses: `options.threads`, or nproc when 0.
int LoadThreads(const Options& options);

/// A set of timings with the summary statistics the report prints.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); sorted_ = false; }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  /// Linear interpolation between order statistics; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The highest of p90/p99/p99.9 that has at least ten samples above
  /// it, as (label, value); nothing when the run is too short for p90.
  std::optional<std::pair<std::string, double>> Tail() const;

 private:
  void Sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Log-linear latency histogram for streams too long to keep every
/// sample (query-mix): 1/64-octave buckets, with samples spread evenly
/// inside a bucket, so a quantile read back from it is within ~1.6% of
/// the exact order statistic.
class Histogram {
 public:
  void Add(uint64_t ns);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 6;
  static size_t Bucket(uint64_t ns);
  /// (lower edge, width) of a bucket, in ns.
  static std::pair<double, double> BucketSpan(size_t bucket);
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(64 << kSubBits, 0);
  uint64_t count_ = 0;
};

/// In-memory span recorder. One instance per thread; spans nest through
/// a stack, so each span's self time is its duration minus the part its
/// children cover. Aggregates (count, total, self) are kept for every
/// span; raw spans are kept up to a cap per thread and written out at
/// the end.
class Tracer {
 public:
  struct Aggregate {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  /// RAII span; a no-op on a null tracer.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, const char* name)
        : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->Begin(layer, name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  explicit Tracer(uint32_t thread_id = 0) : thread_id_(thread_id) {}

  void Begin(const char* layer, const char* name);
  void End();
  /// Groups the spans that follow under one operation id.
  void SetOp(uint64_t op) { op_ = op; }

  /// Aggregate of span `layer.name` (zero if never recorded).
  Aggregate Get(const std::string& layer, const std::string& name) const;
  /// Sum of self time over every span.
  uint64_t TotalSelfNs() const;
  void Merge(const Tracer& other);
  /// Writes the raw spans as JSON lines to `path`, replacing it.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Open {
    const char* layer;
    const char* name;
    Clock::time_point start;
    uint64_t child_ns;
    uint64_t id;
  };
  struct Raw {
    uint64_t id, parent, op;
    uint32_t thread;
    const char* layer;
    const char* name;
    uint64_t start_ns, end_ns;
  };
  struct Entry {
    std::string layer, name;
    Aggregate agg;
  };
  /// The aggregate slot of a span name; a linear scan, since a workload
  /// has a dozen span names and this runs once per span.
  Aggregate& Slot(const char* layer, const char* name);
  static constexpr size_t kMaxRaw = 50000;  // raw spans kept per thread
  uint32_t thread_id_;
  uint64_t op_ = 0;
  uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<Raw> raw_;
  std::vector<Entry> entries_;
};

/// One named end-to-end value, printed with its unit in the
/// human-readable part of the report.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run measured and checked.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Counts one operation; a wrong or failed one is recorded.
  void Op(bool ok, const std::string& what_failed);
  /// A check outside the counted operations (setup, replay, merge):
  /// counts as one attempted operation too, so a wrong result can never
  /// hide behind a large denominator of good ones.
  void Check(bool ok, const std::string& what_failed) { Op(ok, what_failed); }
  bool correct() const { return failed == 0; }

  /// The end-to-end metrics of the result line, common to every workload.
  /// `throughput_per_s` is the work of one operation over the median
  /// operation time (query-mix: the median of 100 ms windows), so one
  /// stalled stretch of a run does not move it.
  double setup_s = 0;
  double throughput_per_s = 0;
  double latency_ms_p50 = 0;

  /// The named end-to-end metrics that apply to this workload.
  std::vector<Metric> detail;
  /// Distribution lines: median, quartiles, sample count, tail.
  std::vector<std::string> distributions;
  /// Per-layer metrics of the traced run.
  std::map<std::string, double> layers;

  void AddDetail(const std::string& name, double value,
                 const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  /// Adds a distribution line for `samples` and returns its median.
  double Summarize(const std::string& name, const Samples& samples,
                   const std::string& unit);
};

/// The per-layer metric names every traced run reports in its result
/// line, with units; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// sweep-drain's per-layer metrics. They are printed as `layer` lines
/// only, because that workload is not in the gated set (see METRICS.md).
const std::vector<std::pair<std::string, std::string>>& DrainLayerMetrics();

/// Set-up repetitions per run; `setup_s` is their median.
inline constexpr int kSetupReps = 5;

/// Runs `setup` `reps` times and returns the median wall time in
/// seconds; the last run's product is what the workload keeps.
template <typename F>
double MedianSetupSeconds(int reps, F&& setup) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    s.Add(SecondsBetween(t0, Clock::now()));
  }
  return s.Median();
}

// The four workloads and the count self-test.
Report RunAuditedSession(const Options& options);
Report RunBulkExchange(const Options& options);
Report RunQueryMix(const Options& options);
Report RunSweepDrain(const Options& options);
int RunSelfTest(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
