// pibench: the repository benchmark program (README.md). Normally run
// through run.py, which builds it and adds the span-derived metrics.
//
//   pibench --workload explore|dashboard|ingest --seed N --seconds S
//           --trace 0|1 --work-dir DIR [--tiny] [--corrupt-oracle]
//
// Prints one JSON line: correct / attempted / failed, the metrics with
// units, metadata, and (traced runs) the trace files to post-process.
// Exits 1 when any answer was wrong, 2 on a usage error, and 3 without
// a result when a traced section lost spans to ring wraparound.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "cost/calibration.h"
#include "kernels/kernels.h"

namespace {

using namespace pibench;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "pibench: %s\nusage: pibench --workload "
               "explore|dashboard|ingest --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--tiny] [--corrupt-oracle]\n",
               msg);
  return 2;
}

double RunWorkload(const Options& opt, bool traced, Report* report) {
  if (opt.workload == "explore") return RunExplore(opt, traced, report);
  if (opt.workload == "dashboard") return RunDashboard(opt, traced, report);
  return RunIngest(opt, traced, report);
}

void RecordMachine(Report* report) {
  const progidx::MachineConstants& live = progidx::GlobalMachineConstants();
  report->Meta("kernel_tier",
               std::string("\"") + progidx::kernels::ActiveKernelName() + "\"");
  report->Meta("hardware_threads",
               static_cast<double>(std::thread::hardware_concurrency()));
  report->Meta("live.seq_read_secs", live.seq_read_secs);
  report->Meta("live.seq_write_secs", live.seq_write_secs);
  report->Meta("live.random_access_secs", live.random_access_secs);
  report->Meta("live.swap_secs", live.swap_secs);
  report->Meta("live.alloc_secs", live.alloc_secs);
  report->Meta("live.bucket_scan_secs", live.bucket_scan_secs);
  report->Meta("live.bucket_append_secs", live.bucket_append_secs);
  report->Meta("live.batch_lookup_secs", live.batch_lookup_secs);
  report->Meta("live.sort_unit_scale", live.sort_unit_scale);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt-oracle") {
      opt.corrupt_oracle = true;
    } else if (a != "--workload" && a != "--seed" && a != "--seconds" &&
               a != "--trace" && a != "--work-dir") {
      return Usage(("unknown flag " + a).c_str());
    } else if (!has_value) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      opt.work_dir = argv[++i];
    }
  }
  if (opt.workload != "explore" && opt.workload != "dashboard" &&
      opt.workload != "ingest") {
    return Usage("unknown workload");
  }
  if (opt.work_dir.empty()) return Usage("--work-dir is required");
  if (!(opt.seconds > 0)) return Usage("--seconds must be positive");
  std::filesystem::create_directories(opt.work_dir);
  opt.params = opt.tiny ? Params::Tiny() : Params();

  Report report;
  // Calibrate first, outside every timed region: metadata only.
  RecordMachine(&report);
  if (!opt.trace) {
    RunWorkload(opt, false, &report);
  } else {
    // The traced run: the named workload untraced and then traced for
    // the tracing overhead, plus the other two workloads traced, so
    // every per-layer metric is measured on the workload that
    // exercises its layer. Each section gets half the run length.
    Options half = opt;
    half.seconds = opt.seconds / 2;
    Report untraced_report;
    const double untraced = RunWorkload(half, false, &untraced_report);
    report.attempted += untraced_report.attempted;
    report.failed += untraced_report.failed;
    report.wrong += untraced_report.wrong;
    const double explore = RunExplore(half, true, &report);
    const double dashboard = RunDashboard(half, true, &report);
    const double ingest = RunIngest(half, true, &report);
    const double traced = opt.workload == "explore"     ? explore
                          : opt.workload == "dashboard" ? dashboard
                                                        : ingest;
    report.Add("obs.trace_overhead_frac", (traced - untraced) / untraced,
               "frac");
    if (report.dropped_spans > 0) {
      std::fprintf(stderr,
                   "pibench: traced run lost %llu spans; its per-layer "
                   "metrics would come from incomplete traces\n",
                   static_cast<unsigned long long>(report.dropped_spans));
      return 3;
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.wrong == 0 ? 0 : 1;
}
