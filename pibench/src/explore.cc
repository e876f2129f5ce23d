// explore: one analyst issues one query at a time through
// IndexBase::Query on the SkyServer-style clustered column and its
// drifting query log (README.md). Every session starts from a fresh
// index of one kind and runs the same fixed query count, well past
// convergence, under the paper's adaptive budget.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "obs/trace.h"
#include "workload/skyserver.h"

namespace pibench {

using namespace progidx;

namespace {

struct Inputs {
  Column column;
  std::unique_ptr<Oracle> oracle;
};

/// The query log of round `i`. Every round draws its own log from the
/// seed, so a run's medians average over many logs instead of hanging
/// on the drift of one.
std::vector<RangeQuery> Log(const Options& opt, uint64_t i) {
  return MakeSkyServerWorkload(opt.params.explore_queries,
                               opt.seed * 1000003 + i);
}
constexpr uint64_t kWarmUpLog = 999999;

/// Median seconds of generating the column and building the oracle.
double SetUp(const Options& opt, bool traced, Inputs* in) {
  std::vector<double> secs;
  const size_t reps = traced ? 1 : opt.params.setup_reps;
  for (size_t rep = 0; rep < reps; rep++) {
    const double t0 = Now();
    in->column = MakeSkyServerColumn(opt.params.explore_n, kTableSeed);
    in->oracle = std::make_unique<Oracle>(in->column.values());
    secs.push_back(Now() - t0);
  }
  return Median(secs);
}

struct Session {
  double first = 0;          ///< query 1, seconds
  double total = 0;          ///< cumulative query time, seconds
  double converge = 0;       ///< cumulative time until converged()
  size_t converge_queries = 0;
  double p99 = 0;            ///< p99 of the session's query latencies
  std::vector<double> latency;
  std::vector<double> converged_latency;
  double phase_secs[3] = {0, 0, 0};
  std::vector<double> relerr[2];  ///< creation, refinement
};

Session RunSession(size_t kind, const Inputs& in,
                   const std::vector<RangeQuery>& queries, Report* report) {
  Built b = MakeIndex(kind, in.column, PinnedConstants());
  Session s;
  std::vector<QueryResult> got(queries.size());
  s.latency.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); i++) {
    const int phase = b.phase();
    const bool was_converged = phase == 3;
    const double t0 = Now();
    {
      obs::TraceScope span("bench.query", "bench");
      got[i] = b.index->Query(queries[i]);
    }
    const double dt = Now() - t0;
    s.latency.push_back(dt);
    s.total += dt;
    if (phase < 3) s.phase_secs[phase] += dt;
    if (phase < 2 && dt > 0) {
      s.relerr[phase].push_back(
          std::fabs(b.index->last_predicted_cost() - dt) / dt);
    }
    if (was_converged) s.converged_latency.push_back(dt);
    if (s.converge_queries == 0 && b.index->converged()) {
      s.converge_queries = i + 1;
      s.converge = s.total;
    }
  }
  s.first = s.latency.front();
  s.p99 = Quantile(s.latency, 0.99);
  if (s.converge_queries == 0) {
    // A failed operation, and the cap rather than 0 in the
    // lower-is-better converge_queries, so lost convergence never
    // reads as a gain.
    std::fprintf(stderr,
                 "pibench: explore %s did not converge in %zu queries\n",
                 kKinds[kind], queries.size());
    report->failed++;
    s.converge_queries = queries.size() + 1;
    s.converge = s.total;
  }
  for (size_t i = 0; i < got.size(); i++) {
    report->Check(got[i], in.oracle->Answer(queries[i]));
  }
  return s;
}

}  // namespace

double RunExplore(const Options& opt, bool traced, Report* report) {
  Inputs in;
  const double setup = SetUp(opt, traced, &in);
  if (opt.corrupt_oracle) in.oracle->Corrupt();

  // Warm-up: one discarded session per kind. The first index built in
  // a process pays for page faults, pool start-up and cold caches.
  const double warm0 = Now();
  const std::vector<RangeQuery> warm_log = Log(opt, kWarmUpLog);
  for (size_t k = 0; k < kNumKinds; k++) {
    const Session s = RunSession(k, in, warm_log, report);
    report->Meta(std::string("explore.warmup_first_query_ms.") + kKinds[k],
                 s.first * 1e3);
  }
  const double warmup = Now() - warm0;

  std::vector<Session> sessions[kNumKinds];
  const uint64_t steals0 = CounterValue("pool.steals");
  const uint64_t tasks0 = CounterValue("pool.tasks");
  const double deadline = Now() + opt.seconds;
  size_t rounds = 0;
  while (rounds < opt.params.explore_min_rounds || Now() < deadline) {
    const std::vector<RangeQuery> log = Log(opt, rounds);
    for (size_t k = 0; k < kNumKinds; k++) {
      if (traced) {
        BeginTrace(opt, "explore-" + std::to_string(rounds) + "-" + kKinds[k]);
      }
      sessions[k].push_back(RunSession(k, in, log, report));
      if (traced) EndTrace(report, "explore");
    }
    rounds++;
  }

  // query_p50_ms covers the exploration phase: the first
  // kExplorationQueries of every session, before any kind converges
  // (78-167 queries). Past convergence a query takes a few
  // microseconds, and that latency moved by 25% between runs with the
  // machine's cache contention; core.<idx>.converged_query_us tracks it.
  // query_p99_ms is taken within each session (SessionP99); a session's
  // slowest 1% are all queries before convergence.
  constexpr size_t kExplorationQueries = 100;
  std::vector<double> all_latency, exploration, p99[kNumKinds];
  double total_secs = 0;
  for (size_t k = 0; k < kNumKinds; k++) {
    for (const Session& s : sessions[k]) {
      all_latency.insert(all_latency.end(), s.latency.begin(),
                         s.latency.end());
      exploration.insert(
          exploration.end(), s.latency.begin(),
          s.latency.begin() +
              static_cast<std::ptrdiff_t>(
                  std::min(kExplorationQueries, s.latency.size())));
      p99[k].push_back(s.p99);
      total_secs += s.total;
    }
  }
  const double queries = static_cast<double>(all_latency.size());
  report->Meta("explore.sessions_per_kind", static_cast<double>(rounds));
  report->Meta("explore.queries", queries);
  report->Meta("explore.latency_samples",
               static_cast<double>(exploration.size()));

  if (!traced) {
    std::vector<double> converge;  // per kind
    for (size_t k = 0; k < kNumKinds; k++) {
      std::vector<double> first, total, conv;
      for (const Session& s : sessions[k]) {
        first.push_back(s.first);
        total.push_back(s.total);
        conv.push_back(s.converge);
      }
      report->Add(std::string("first_query_ms.") + kKinds[k],
                  Median(first) * 1e3, "ms");
      report->Add(std::string("session_s.") + kKinds[k], Median(total), "s");
      converge.push_back(Median(conv));
    }
    report->Add("query_p50_ms", Quantile(exploration, 0.5) * 1e3, "ms");
    report->Add("query_p99_ms", SessionP99(p99) * 1e3, "ms");
    report->Add("converge_s", Sum(converge), "s");
    report->Add("ops_per_s", queries / total_secs, "1/s");
    // Nothing is on disk: a restart recovers a fresh pq index, which
    // the queries then drive to convergence as in every pq session.
    report->Add("recover_s", EmptyRecoverySecs(opt, in.column) + converge[0],
                "s");
    report->Add("setup_s", setup + warmup, "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MiB");
    return total_secs / queries;
  }

  // Per-layer: per-phase index work, convergence, cost-model error.
  for (size_t k = 0; k < kNumKinds; k++) {
    std::vector<double> phase[3], conv_q, conv_us, relerr[2];
    for (size_t r = 0; r < sessions[k].size(); r++) {
      const Session& s = sessions[k][r];
      for (int p = 0; p < 3; p++) phase[p].push_back(s.phase_secs[p]);
      // Only the rounds every run makes, so the count repeats exactly
      // for a seed however many rounds fit in the run.
      if (r < opt.params.explore_min_rounds) {
        conv_q.push_back(static_cast<double>(s.converge_queries));
      }
      for (int p = 0; p < 2; p++) {
        relerr[p].insert(relerr[p].end(), s.relerr[p].begin(),
                         s.relerr[p].end());
      }
      conv_us.insert(conv_us.end(), s.converged_latency.begin(),
                     s.converged_latency.end());
    }
    const std::string core = std::string("core.") + kKinds[k] + ".";
    const std::string cost = std::string("cost.") + kKinds[k] + ".";
    report->Add(core + "creation_s", Median(phase[0]), "s");
    report->Add(core + "refinement_s", Median(phase[1]), "s");
    report->Add(core + "consolidation_s", Median(phase[2]), "s");
    report->Add(core + "converge_queries", Median(conv_q), "count");
    report->Add(core + "converged_query_us", Median(conv_us) * 1e6, "us");
    report->Add(cost + "creation_relerr", Median(relerr[0]), "frac");
    report->Add(cost + "refinement_relerr", Median(relerr[1]), "frac");
  }
  report->Add("parallel.steals_per_query",
              static_cast<double>(CounterValue("pool.steals") - steals0) /
                  queries,
              "count");
  report->Meta("explore.pool_tasks",
               static_cast<double>(CounterValue("pool.tasks") - tasks0));
  report->trace_ops.push_back({"explore", all_latency.size()});
  KernelProbes(opt, in.column, report);
  return total_secs / queries;
}

}  // namespace pibench
