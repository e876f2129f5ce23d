// Layer probes of the traced run: the kernels at one lane, the parallel
// composites at the default lane count against one lane, and the
// shared multi-predicate scan against single scans. Each timing is the
// median of `probe_reps` repetitions over a whole column.
#include <cstring>

#include "bench.h"
#include "exec/shared_scan.h"
#include "kernels/kernels.h"
#include "obs/trace.h"
#include "parallel/primitives.h"
#include "parallel/thread_pool.h"

namespace pibench {

using namespace progidx;

namespace {

template <typename Fn>
double MedianSecs(const Options& opt, const Fn& fn) {
  std::vector<double> secs;
  for (size_t rep = 0; rep < opt.params.probe_reps; rep++) {
    const double t0 = Now();
    fn();
    secs.push_back(Now() - t0);
  }
  return Median(secs);
}

}  // namespace

void KernelProbes(const Options& opt, const Column& column, Report* report) {
  obs::TraceScope span("bench.kernel_probes", "bench");
  const size_t n = column.size();
  const value_t* src = column.data();
  const double gb = static_cast<double>(n * sizeof(value_t)) / 1e9;
  const value_t lo = column.min_value();
  const value_t hi = column.max_value();
  const value_t pivot = lo + (hi - lo) / 2;
  const RangeQuery q{lo + (hi - lo) / 4, hi - (hi - lo) / 4};
  std::vector<value_t> dst(n), buf(n);

  // Range sums of every repetition must agree with the one-lane kernel.
  const QueryResult want = kernels::RangeSumPredicated(src, n, q);
  auto range_sum = [&](size_t lanes) {
    return MedianSecs(opt, [&] {
      const QueryResult got =
          lanes == 0 ? kernels::RangeSumPredicated(src, n, q)
                     : parallel::RangeSumPredicatedWithLanes(src, n, q, lanes);
      report->Check(got, want);
    });
  };
  auto partition = [&](bool parallel) {
    return MedianSecs(opt, [&] {
      size_t lo_pos = 0;
      int64_t hi_pos = static_cast<int64_t>(n) - 1;
      if (parallel) {
        parallel::PartitionTwoSided(src, n, pivot, dst.data(), &lo_pos,
                                    &hi_pos);
      } else {
        kernels::PartitionTwoSided(src, n, pivot, dst.data(), &lo_pos,
                                   &hi_pos);
      }
    });
  };
  // The top 8-bit digit: one scatter pass over the whole column.
  const uint64_t width =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  const int bits = width == 0 ? 1 : 64 - __builtin_clzll(width);
  const int shift = bits > 8 ? bits - 8 : 0;
  uint64_t counts[256] = {};
  kernels::Dispatch().radix_histogram(src, n, lo, shift, 255u, counts);
  size_t offsets[256];
  size_t acc = 0;
  for (int d = 0; d < 256; d++) {
    offsets[d] = acc;
    acc += static_cast<size_t>(counts[d]);
  }
  auto scatter = [&](size_t lanes) {
    return MedianSecs(opt, [&] {
      size_t offs[256];
      std::memcpy(offs, offsets, sizeof(offs));
      if (lanes == 0) {
        kernels::Dispatch().radix_scatter(src, n, lo, shift, 255u, dst.data(),
                                          offs);
      } else {
        parallel::RadixScatter(src, n, lo, shift, 255u, dst.data(), offs,
                               lanes);
      }
    });
  };

  const double range_t1 = range_sum(0);
  const double partition_t1 = partition(false);
  std::vector<double> crack_secs;
  for (size_t rep = 0; rep < opt.params.probe_reps; rep++) {
    std::memcpy(buf.data(), src, n * sizeof(value_t));
    size_t c_lo = 0, c_hi = n - 1;
    bool done = false;
    const double t0 = Now();
    kernels::CrackInPlace(buf.data(), &c_lo, &c_hi, pivot, n + 1, &done);
    crack_secs.push_back(Now() - t0);
  }
  const double scatter_t1 = scatter(0);
  report->Add("kernels.range_sum_gbps", gb / range_t1, "GB/s");
  report->Add("kernels.partition_gbps", gb / partition_t1, "GB/s");
  report->Add("kernels.crack_gbps", gb / Median(crack_secs), "GB/s");
  report->Add("kernels.radix_scatter_gbps", gb / scatter_t1, "GB/s");

  const size_t lanes = parallel::DefaultLanes();
  parallel::SetLanesForTesting(1);
  const double partition_one = partition(true);
  parallel::SetLanesForTesting(0);
  const double partition_all = partition(true);
  report->Add("parallel.range_sum_speedup", range_sum(1) / range_sum(lanes),
              "x");
  report->Add("parallel.partition_speedup", partition_one / partition_all,
              "x");
  report->Add("parallel.scatter_speedup", scatter(1) / scatter(lanes), "x");
  report->Meta("parallel.default_lanes", static_cast<double>(lanes));
}

void SharedScanProbe(const Options& opt, const Column& column,
                     const std::vector<RangeQuery>& queries,
                     const Oracle& oracle, Report* report) {
  obs::TraceScope span("bench.shared_scan_probe", "bench");
  constexpr size_t kBatch = 4;
  exec::PredicateSet set;
  QueryResult out[kBatch];
  auto singles = [&] {
    for (size_t j = 0; j < kBatch; j++) {
      out[j] = QueryResult{};
      set.Reset(&queries[j], 1);
      set.Scan(column.data(), column.size());
      set.AccumulateInto(&out[j]);
    }
  };
  auto shared = [&] {
    for (QueryResult& r : out) r = QueryResult{};
    set.Reset(queries.data(), kBatch);
    set.Scan(column.data(), column.size());
    set.AccumulateInto(out);
  };
  auto check = [&] {
    for (size_t j = 0; j < kBatch; j++) {
      report->Check(out[j], oracle.Answer(queries[j]));
    }
  };
  const double t_single = MedianSecs(opt, singles);
  check();
  const double t_shared = MedianSecs(opt, shared);
  check();
  report->Add("exec.shared_scan_gain_b4", t_single / t_shared, "x");
}

}  // namespace pibench
