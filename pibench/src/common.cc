#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "core/progressive_bucketsort.h"
#include "core/progressive_quicksort.h"
#include "core/progressive_radixsort_lsd.h"
#include "core/progressive_radixsort_msd.h"
#include "kernels/kernels.h"
#include "obs/trace.h"
#include "serve/recovery.h"

namespace pibench {

using namespace progidx;

Params Params::Tiny() {
  Params p;
  p.explore_n = 100'000;
  p.explore_queries = 400;
  p.explore_min_rounds = 2;
  p.dashboard_n = 100'000;
  p.dashboard_rate = 4000;
  p.dashboard_arrivals = 400;
  p.dashboard_min_rounds = 1;
  p.first_query_probes = 1;
  p.ingest_first_op_probes = 1;
  p.ingest_n = 8'000;
  p.ingest_ops_per_client = 300;
  p.ingest_min_rounds = 1;
  p.ingest_check_queries = 50;
  p.setup_reps = 2;
  p.recover_reps = 2;
  p.probe_reps = 2;
  return p;
}

size_t Workers() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const MachineConstants& PinnedConstants() {
  // Rounded from a live calibration of a 4-vCPU AVX-512 x86-64 server
  // (MeasureMachineConstants). Only their stability matters: they set
  // how much indexing work each query's budget buys.
  static const MachineConstants mc = [] {
    MachineConstants c;
    c.seq_read_secs = 7.0e-10;
    c.seq_write_secs = 1.0e-9;
    c.random_access_secs = 8.0e-8;
    c.swap_secs = 1.1e-9;
    c.alloc_secs = 2.7e-7;
    c.bucket_scan_secs = 7.2e-10;
    c.bucket_append_secs = 5.4e-9;
    c.batch_lookup_secs = 1.4e-9;
    c.sort_unit_scale = 5.0;
    for (size_t t = 2; t <= MachineConstants::kMaxThreadScale; t++) {
      c.scan_scale[t] = 1.15;
    }
    c.kernel_name = kernels::ActiveKernelName();
    return c;
  }();
  return mc;
}

namespace {

template <typename T>
Built Make(const Column& column, const MachineConstants& mc) {
  ProgressiveOptions opt;
  opt.machine = &mc;
  auto* raw = new T(column, BudgetSpec::Adaptive(0.2), opt);
  Built b;
  b.index.reset(raw);
  b.phase = [raw] {
    using P = typename T::Phase;
    switch (raw->phase()) {
      case P::kCreation:
        return 0;
      case P::kConsolidation:
        return 2;
      case P::kDone:
        return 3;
      default:
        return 1;
    }
  };
  return b;
}

}  // namespace

Built MakeIndex(size_t kind, const Column& column, const MachineConstants& mc) {
  switch (kind) {
    case 0:
      return Make<ProgressiveQuicksort>(column, mc);
    case 1:
      return Make<ProgressiveRadixsortMSD>(column, mc);
    case 2:
      return Make<ProgressiveRadixsortLSD>(column, mc);
    default:
      return Make<ProgressiveBucketsort>(column, mc);
  }
}

Oracle::Oracle(std::vector<value_t> values) : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
  prefix_.resize(sorted_.size() + 1);
  prefix_[0] = 0;
  for (size_t i = 0; i < sorted_.size(); i++) {
    prefix_[i + 1] = prefix_[i] + sorted_[i];
  }
}

QueryResult Oracle::Answer(const RangeQuery& q) const {
  QueryResult r;
  if (q.low <= q.high) {
    const size_t lo = static_cast<size_t>(
        std::lower_bound(sorted_.begin(), sorted_.end(), q.low) -
        sorted_.begin());
    const size_t hi = static_cast<size_t>(
        std::upper_bound(sorted_.begin(), sorted_.end(), q.high) -
        sorted_.begin());
    r.count = static_cast<int64_t>(hi - lo);
    r.sum = prefix_[hi] - prefix_[lo];
  }
  if (corrupt_.load(std::memory_order_relaxed) && corrupt_.exchange(false)) {
    r.sum += 1;
  }
  return r;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (i >= v.size()) i = v.size() - 1;
  return v[i];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t CounterValue(const char* name) {
  obs::Registry& r = obs::Registry::Global();
  return r.CounterValue(r.RegisterCounter(name));
}

obs::LocalHistogram HistogramValue(const char* name) {
  obs::Registry& r = obs::Registry::Global();
  return r.SnapshotHistogram(r.RegisterHistogram(name));
}

obs::LocalHistogram HistogramDelta(const obs::LocalHistogram& after,
                                   const obs::LocalHistogram& before) {
  obs::LocalHistogram d;
  for (size_t i = 0; i < obs::Buckets::kCount; i++) {
    d.AccumulateBucket(i, after.counts()[i] - before.counts()[i]);
  }
  d.AccumulateTotals(after.total() - before.total(),
                     after.sum() - before.sum());
  return d;
}

void Report::Meta(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  meta.push_back({key, buf});
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += wrong == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); i++) {
    // %.17g keeps every digit the measurement has.
    const double v = std::isfinite(metrics[i].second.first)
                         ? metrics[i].second.first
                         : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", " : "") + Quote(metrics[i].first) + ": {\"value\": " +
           buf + ", \"unit\": " + Quote(metrics[i].second.second) + "}";
  }
  out += "}, \"meta\": {";
  for (size_t i = 0; i < meta.size(); i++) {
    out += (i ? ", " : "") + Quote(meta[i].first) + ": " + meta[i].second;
  }
  out += "}, \"trace_ops\": {";
  for (size_t i = 0; i < trace_ops.size(); i++) {
    out += (i ? ", " : "") + Quote(trace_ops[i].first) + ": " +
           std::to_string(trace_ops[i].second);
  }
  out += "}, \"traces\": [";
  for (size_t i = 0; i < traces.size(); i++) {
    out += std::string(i ? ", " : "") + "{\"workload\": " +
           Quote(traces[i].workload) + ", \"path\": " +
           Quote(traces[i].path) + "}";
  }
  return out + "]}";
}

void BeginTrace(const Options& opt, const std::string& tag) {
  obs::EnableTracing(opt.work_dir + "/trace-" + tag + ".json");
}

void EndTrace(Report* report, const std::string& workload) {
  obs::DisableTracing();
  // A wrapped ring lost spans, so the self times and span quantiles of
  // this section would be computed from a truncated trace.
  const uint64_t dropped = obs::DroppedSpans();
  if (dropped > 0) {
    std::fprintf(stderr, "pibench: %s trace dropped %" PRIu64 " spans\n",
                 workload.c_str(), dropped);
    report->dropped_spans += dropped;
  }
  const std::string path = obs::TracePath();
  if (obs::FlushTrace()) report->traces.push_back({workload, path});
}

double EmptyRecoverySecs(const Options& opt, const Column& column) {
  const std::string dir = opt.work_dir + "/empty-recovery";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::RecoveryStats stats;
  const double t0 = Now();
  std::unique_ptr<IndexBase> index = serve::RecoverIndex(
      dir, column,
      [&column](const MachineConstants&) {
        return MakeIndex(0, column, PinnedConstants()).index;
      },
      &stats);
  const double secs = Now() - t0;
  std::filesystem::remove_all(dir);
  return secs;
}

double SessionP99(const std::vector<double> (&p99)[kNumKinds]) {
  double sum = 0;
  for (const std::vector<double>& kind : p99) sum += Median(kind);
  return sum / static_cast<double>(kNumKinds);
}

}  // namespace pibench
