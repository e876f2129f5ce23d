// dashboard: an open loop of read-only range queries arriving at one
// fixed rate, fed by at most nproc dispatcher threads into a
// serve::Server in front of a fresh index each round (README.md).
// Rounds rotate over the four kinds. Latency runs from each query's
// scheduled arrival, so a stall is charged to every query it delays.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "workload/skyserver.h"
#include "workload/synthetic.h"

namespace pibench {

using namespace progidx;

namespace {

struct Inputs {
  Column column;
  std::unique_ptr<Oracle> oracle;
};

/// The arrivals of round `i`: random ranges of fixed selectivity, a
/// fresh draw from the seed every round.
std::vector<RangeQuery> Arrivals(const Options& opt, const Column& column,
                                 uint64_t i) {
  return WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(),
      opt.params.dashboard_arrivals, opt.params.dashboard_selectivity,
      opt.seed * 1000003 + i);
}
constexpr uint64_t kWarmUpArrivals = 999999;

double SetUp(const Options& opt, bool traced, Inputs* in) {
  std::vector<double> secs;
  const size_t reps = traced ? 1 : opt.params.setup_reps;
  for (size_t rep = 0; rep < reps; rep++) {
    const double t0 = Now();
    in->column = MakeSkyServerColumn(opt.params.dashboard_n, kTableSeed + 1);
    in->oracle = std::make_unique<Oracle>(in->column.values());
    secs.push_back(Now() - t0);
  }
  return Median(secs);
}

struct Round {
  std::vector<double> latency;  ///< completion − scheduled arrival
  std::vector<double> late;     ///< send − scheduled arrival
  double session = 0;           ///< Σ latency
  double converge = 0;          ///< first read-epoch answer − first arrival
  bool converged = false;
  double wall = 0;              ///< last completion − first arrival
  serve::ServeStats stats;
};

std::chrono::steady_clock::time_point AsTimePoint(double secs) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(secs)));
}

Round RunRound(const Options& opt, size_t kind, const Inputs& in,
               const std::vector<RangeQuery>& queries, Report* report) {
  const size_t n = queries.size();
  const double rate = opt.params.dashboard_rate;
  const size_t d = Workers();
  Round r;
  r.latency.assign(n, 0);
  r.late.assign(n, 0);
  std::vector<serve::Response> got(n);
  std::vector<double> seen_read(d, 0), last_done(d, 0);

  Built b = MakeIndex(kind, in.column, PinnedConstants());
  {
    serve::Server server(b.index.get(), in.column, serve::ServerConfig{});
    // A short lead so every dispatcher is parked before arrival 0.
    const double start = Now() + 0.002;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < d; t++) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < n; i += d) {
          const double due = start + static_cast<double>(i) / rate;
          std::this_thread::sleep_until(AsTimePoint(due));
          const double sent = Now();
          {
            obs::TraceScope span("bench.submit", "bench");
            got[i] = server.Submit(queries[i]);
          }
          const double done = Now();
          r.latency[i] = done - due;
          r.late[i] = sent - due;
          last_done[t] = done;
          if (seen_read[t] == 0 && server.stats().read_epoch > 0) {
            seen_read[t] = done;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    r.stats = server.stats();
    double first_read = 0;
    for (double s : seen_read) {
      if (s > 0 && (first_read == 0 || s < first_read)) first_read = s;
    }
    r.wall = *std::max_element(last_done.begin(), last_done.end()) - start;
    r.converged = first_read > 0;
    r.converge = r.converged ? first_read - start : r.wall;
  }
  r.session = Sum(r.latency);
  for (size_t i = 0; i < n; i++) {
    report->Check(got[i].result, in.oracle->Answer(queries[i]));
    if (got[i].degraded) report->failed++;
  }
  if (!r.converged) {
    std::fprintf(stderr,
                 "pibench: dashboard %s round never reached read epochs\n",
                 kKinds[kind]);
    report->failed++;
  }
  return r;
}

/// Latency of the only query a fresh server over a fresh index answers:
/// the dashboard's first query, sampled more often than rounds allow.
double FirstQuery(size_t kind, const Inputs& in, const RangeQuery& q,
                  Report* report) {
  Built b = MakeIndex(kind, in.column, PinnedConstants());
  serve::Server server(b.index.get(), in.column, serve::ServerConfig{});
  // The same lead a round gives: the scheduler is parked, as it is
  // when a round's first query arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double t0 = Now();
  serve::Response resp;
  {
    obs::TraceScope span("bench.submit", "bench");
    resp = server.Submit(q);
  }
  const double dt = Now() - t0;
  report->Check(resp.result, in.oracle->Answer(q));
  if (resp.degraded) report->failed++;
  return dt;
}

}  // namespace

double RunDashboard(const Options& opt, bool traced, Report* report) {
  Inputs in;
  const double setup = SetUp(opt, traced, &in);
  if (opt.corrupt_oracle) in.oracle->Corrupt();

  const double warm0 = Now();
  const Round warm = RunRound(
      opt, 0, in, Arrivals(opt, in.column, kWarmUpArrivals), report);
  const double warmup = Now() - warm0;
  report->Meta("dashboard.warmup_converge_s", warm.converge);

  const obs::LocalHistogram epoch0 = HistogramValue("serve.epoch_size");
  const obs::LocalHistogram wait0 = HistogramValue("serve.queue_wait_ns");
  const uint64_t blocked0 = CounterValue("serve.admit_blocked");

  std::vector<Round> rounds[kNumKinds];
  std::vector<double> first[kNumKinds];
  const double deadline = Now() + opt.seconds;
  size_t rotations = 0;
  while (rotations < opt.params.dashboard_min_rounds || Now() < deadline) {
    const std::vector<RangeQuery> arrivals =
        Arrivals(opt, in.column, rotations);
    for (size_t k = 0; k < kNumKinds; k++) {
      if (traced) {
        BeginTrace(opt,
                   "dashboard-" + std::to_string(rotations) + "-" + kKinds[k]);
      }
      rounds[k].push_back(RunRound(opt, k, in, arrivals, report));
      if (traced) EndTrace(report, "dashboard");
      first[k].push_back(rounds[k].back().latency.front());
      for (size_t j = 1; j <= opt.params.first_query_probes; j++) {
        first[k].push_back(FirstQuery(k, in, arrivals[j], report));
      }
    }
    rotations++;
  }

  std::vector<double> all_latency, all_late, p99[kNumKinds];
  double answered = 0, wall = 0, read_epoch = 0, write_epochs = 0;
  size_t unconverged = 0;
  for (size_t k = 0; k < kNumKinds; k++) {
    for (const Round& r : rounds[k]) {
      all_latency.insert(all_latency.end(), r.latency.begin(),
                         r.latency.end());
      p99[k].push_back(Quantile(r.latency, 0.99));
      all_late.insert(all_late.end(), r.late.begin(), r.late.end());
      answered += static_cast<double>(r.latency.size());
      wall += r.wall;
      read_epoch += static_cast<double>(r.stats.read_epoch);
      write_epochs += static_cast<double>(r.stats.write_epochs);
      if (!r.converged) unconverged++;
    }
  }
  report->Meta("dashboard.rounds_per_kind", static_cast<double>(rotations));
  report->Meta("dashboard.latency_samples", answered);
  report->Meta("dashboard.rate_per_s", opt.params.dashboard_rate);
  report->Meta("dashboard.unconverged_rounds",
               static_cast<double>(unconverged));
  const double p50 = Quantile(all_latency, 0.5);

  if (!traced) {
    std::vector<double> converge;  // per kind
    for (size_t k = 0; k < kNumKinds; k++) {
      std::vector<double> session, conv;
      for (const Round& r : rounds[k]) {
        session.push_back(r.session);
        conv.push_back(r.converge);
      }
      report->Add(std::string("first_query_ms.") + kKinds[k],
                  Median(first[k]) * 1e3, "ms");
      report->Add(std::string("session_s.") + kKinds[k], Median(session),
                  "s");
      converge.push_back(Median(conv));
    }
    report->Add("query_p50_ms", p50 * 1e3, "ms");
    report->Add("query_p99_ms", SessionP99(p99) * 1e3, "ms");
    report->Add("converge_s", Sum(converge), "s");
    report->Add("ops_per_s", answered / wall, "1/s");
    // Nothing is on disk: a restart recovers a fresh pq index, which
    // the arrivals then drive to read epochs as in every pq round.
    report->Add("recover_s", EmptyRecoverySecs(opt, in.column) + converge[0],
                "s");
    report->Add("setup_s", setup + warmup, "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MiB");
    return p50;
  }

  const obs::LocalHistogram epochs =
      HistogramDelta(HistogramValue("serve.epoch_size"), epoch0);
  const obs::LocalHistogram waits =
      HistogramDelta(HistogramValue("serve.queue_wait_ns"), wait0);
  const double round_count = static_cast<double>(rotations * kNumKinds);
  report->Add("exec.epoch_size_mean", epochs.Mean(), "count");
  report->Add("serve.queue_wait_p99_us",
              static_cast<double>(waits.ValueAtQuantile(0.99)) / 1e3, "us");
  report->Add("serve.admit_blocked",
              static_cast<double>(CounterValue("serve.admit_blocked") -
                                  blocked0) /
                  round_count,
              "count");
  report->Add("serve.read_epoch_frac", read_epoch / answered, "frac");
  report->Add("serve.write_epochs", write_epochs / round_count, "count");
  report->Add("serve.generator_late_p99_ms", Quantile(all_late, 0.99) * 1e3,
              "ms");
  report->trace_ops.push_back({"dashboard", all_latency.size()});
  SharedScanProbe(opt, in.column, Arrivals(opt, in.column, 0), *in.oracle,
                  report);
  return p50;
}

}  // namespace pibench
