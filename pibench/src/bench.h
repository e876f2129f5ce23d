// Shared pieces of the repository benchmark (README.md): run
// parameters, the pinned machine constants, the four index kinds, the
// exact oracle, statistics, and the report every workload fills in.
#ifndef PIBENCH_BENCH_H_
#define PIBENCH_BENCH_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/index_base.h"
#include "cost/calibration.h"
#include "obs/metrics.h"
#include "storage/column.h"

namespace pibench {

using progidx::Column;
using progidx::IndexBase;
using progidx::MachineConstants;
using progidx::QueryResult;
using progidx::RangeQuery;
using progidx::value_t;

/// Sizes of one run. The defaults are what the benchmark measures;
/// `Tiny` is the self-test size (selftest.py), done in seconds.
struct Params {
  // explore
  size_t explore_n = 4'000'000;
  size_t explore_queries = 1000;    ///< per session, well past convergence
  size_t explore_min_rounds = 4;    ///< a round is one session per kind
  // dashboard
  size_t dashboard_n = 1'000'000;
  double dashboard_rate = 1000;     ///< arrivals per second (open loop)
  size_t dashboard_arrivals = 400;  ///< per round
  size_t dashboard_min_rounds = 3;  ///< per kind
  size_t first_query_probes = 6;    ///< extra fresh servers per round
  double dashboard_selectivity = 0.01;
  // ingest
  size_t ingest_n = 16'000;
  size_t ingest_ops_per_client = 1500;  ///< per round
  size_t ingest_min_rounds = 2;         ///< per kind
  size_t ingest_check_queries = 200;
  size_t ingest_first_op_probes = 12;  ///< extra fresh servers per round
  // every workload
  size_t setup_reps = 3;
  size_t recover_reps = 3;  ///< ingest: RecoverIndex calls per round
  size_t probe_reps = 5;

  static Params Tiny();
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt_oracle = false;
  std::string work_dir;
  Params params;
};

/// Generator seed of the workloads' tables. Like the paper's single
/// SkyServer table, each workload's column is the same in every run;
/// --seed draws what varies: query logs, arrivals and client mixes.
/// Different columns moved converged-query times by up to 25% between
/// seeds, which no regression bound could absorb.
constexpr uint64_t kTableSeed = 20190101;

/// Client or dispatcher threads of the serving workloads: one per
/// hardware thread, at most 4.
size_t Workers();

/// steady_clock seconds since an arbitrary origin.
double Now();

/// The machine constants every index of the benchmark is built from.
/// Fixed, so the budget arithmetic — and with it the refinement
/// trajectory and the query of convergence — is identical in every run
/// and on every commit; the live calibration is metadata only.
const MachineConstants& PinnedConstants();

/// The four progressive indexes, in report order.
constexpr std::array<const char*, 4> kKinds = {"pq", "pmsd", "plsd", "pb"};
constexpr size_t kNumKinds = kKinds.size();

/// A fresh index of one kind plus its public phase(), folded to
/// 0 creation, 1 refinement (LSD's merge counts here), 2 consolidation,
/// 3 done.
struct Built {
  std::unique_ptr<IndexBase> index;
  std::function<int()> phase;
};
Built MakeIndex(size_t kind, const Column& column, const MachineConstants& mc);

/// Exact answers from a sorted copy and prefix sums, built in set-up.
/// Corrupt() makes the next answer wrong (self-test of the check).
class Oracle {
 public:
  Oracle() = default;
  explicit Oracle(std::vector<value_t> values);
  QueryResult Answer(const RangeQuery& q) const;
  void Corrupt() { corrupt_.store(true); }

 private:
  std::vector<value_t> sorted_;
  std::vector<int64_t> prefix_;  ///< prefix_[i] = sum of sorted_[0, i)
  mutable std::atomic<bool> corrupt_{false};
};

/// Quantile by nearest rank over a copy; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Sum(const std::vector<double>& v);

/// Peak resident set of the process, in MiB.
double PeakRssMb();

/// Process-wide obs registry values, read through its public API.
uint64_t CounterValue(const char* name);
progidx::obs::LocalHistogram HistogramValue(const char* name);
/// after − before, bucket by bucket.
progidx::obs::LocalHistogram HistogramDelta(
    const progidx::obs::LocalHistogram& after,
    const progidx::obs::LocalHistogram& before);

/// One traced section's spans, flushed by the program's tracer to
/// `path`; run.py derives self times from them.
struct TraceFile {
  std::string workload;
  std::string path;
};

/// Everything a run prints: counts, metrics with units, metadata.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  ///< wrong answers (also counted in failed)
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> meta;  ///< raw JSON values
  std::vector<std::pair<std::string, uint64_t>> trace_ops;
  std::vector<TraceFile> traces;
  uint64_t dropped_spans = 0;  ///< lost to trace-ring wraparound

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Meta(const std::string& key, const std::string& json) {
    meta.push_back({key, json});
  }
  void Meta(const std::string& key, double v);
  /// Checks one answer; a mismatch is a wrong answer and a failed op.
  void Check(const QueryResult& got, const QueryResult& want) {
    attempted++;
    if (!(got == want)) {
      wrong++;
      failed++;
    }
  }
  std::string ToJson() const;
};

/// Starts a traced section: every span the program and the benchmark
/// record until EndTrace goes to `<work_dir>/trace-<tag>.json`.
void BeginTrace(const Options& opt, const std::string& tag);
/// Flushes the section and lists its file under `workload`.
void EndTrace(Report* report, const std::string& workload);

/// Seconds of one serve::RecoverIndex over an empty directory, which
/// hands back a fresh pq index: the fixed part of a restart for the
/// workloads that keep nothing on disk. Their recover_s adds the time
/// the run already measured for a fresh pq index to converge.
double EmptyRecoverySecs(const Options& opt, const Column& column);

/// query_p99_ms of a workload whose operations come in sessions or
/// rounds of the four kinds, from `p99[k]`, the p99 within each session
/// of kind k: the median over each kind's sessions, then the mean over
/// the kinds. A descheduled vCPU slice then moves one session's tail,
/// not the tail of every sample pooled.
double SessionP99(const std::vector<double> (&p99)[kNumKinds]);

/// The three workloads (README.md). Each runs its set-up, warm-up and
/// measured phase and appends its metrics: end-to-end ones when
/// `traced` is false, per-layer ones otherwise. Returns the workload's
/// headline time (explore: mean query time; dashboard: median latency;
/// ingest: mean operation latency), which the traced run compares
/// against an untraced one for obs.trace_overhead_frac.
double RunExplore(const Options& opt, bool traced, Report* report);
double RunDashboard(const Options& opt, bool traced, Report* report);
double RunIngest(const Options& opt, bool traced, Report* report);

/// Layer micro-measurements on a column (probes.cc): kernel GB/s at one
/// lane, parallel composites at the default lanes vs one lane.
void KernelProbes(const Options& opt, const Column& column, Report* report);
/// exec::PredicateSet: four single-predicate scans vs one 4-predicate
/// scan over the same column.
void SharedScanProbe(const Options& opt, const Column& column,
                     const std::vector<RangeQuery>& queries,
                     const Oracle& oracle, Report* report);

}  // namespace pibench

#endif  // PIBENCH_BENCH_H_
