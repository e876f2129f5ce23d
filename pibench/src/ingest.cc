// ingest: a closed loop of at most nproc clients sends a read / insert /
// update / delete mix through a durable serve::Server (persist_dir set,
// the default checkpoint interval) in front of an UpdatableIndex
// (README.md).
// Rounds rotate the inner index over the four kinds. Each client deletes
// only values it appended itself. After the loop the live index and a
// cold serve::RecoverIndex of the directory are both checked against an
// oracle over the final multiset.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/updatable_index.h"
#include "obs/trace.h"
#include "serve/recovery.h"
#include "serve/server.h"
#include "workload/skyserver.h"

namespace pibench {

using namespace progidx;

namespace {

/// Forwards every IndexBase call to the index it owns and, when given a
/// sink, stores the time of the first call after which that index is
/// converged. Lets the benchmark see from outside when the inner index
/// of an UpdatableIndex first converges, which the serving scheduler
/// otherwise hides.
class ConvergenceProbe : public IndexBase {
 public:
  ConvergenceProbe(std::unique_ptr<IndexBase> inner,
                   std::shared_ptr<std::atomic<double>> sink)
      : inner_(std::move(inner)), sink_(std::move(sink)) {}

  QueryResult Query(const RangeQuery& q) override {
    const QueryResult r = inner_->Query(q);
    Note();
    return r;
  }
  void QueryBatch(const RangeQuery* qs, size_t count,
                  QueryResult* out) override {
    inner_->QueryBatch(qs, count, out);
    Note();
  }
  bool converged() const override { return inner_->converged(); }
  double ConvergenceFraction() const override {
    return inner_->ConvergenceFraction();
  }
  bool TryReadOnlyQuery(const RangeQuery& q, QueryResult* out) const override {
    return inner_->TryReadOnlyQuery(q, out);
  }
  bool SupportsPersistence() const override {
    return inner_->SupportsPersistence();
  }
  const MachineConstants* machine_constants() const override {
    return inner_->machine_constants();
  }
  void SaveState(persist::Writer* w) const override { inner_->SaveState(w); }
  bool LoadState(persist::Reader* r) override { return inner_->LoadState(r); }
  std::string name() const override { return inner_->name(); }
  double last_predicted_cost() const override {
    return inner_->last_predicted_cost();
  }

 private:
  void Note() {
    if (sink_ && inner_->converged()) {
      sink_->store(Now());
      sink_.reset();
    }
  }
  std::unique_ptr<IndexBase> inner_;
  std::shared_ptr<std::atomic<double>> sink_;
};

/// An UpdatableIndex over `base` whose inner indexes are of `kind`,
/// built from `mc`. Only the first inner index (the one built over the
/// initial column, before any merge) reports its convergence to `sink`.
std::unique_ptr<IndexBase> MakeUpdatable(
    size_t kind, const Column& base, const MachineConstants& mc,
    std::shared_ptr<std::atomic<double>> sink) {
  auto pinned = std::make_shared<MachineConstants>(mc);
  auto first = std::make_shared<bool>(true);
  UpdatableIndex::IndexFactory factory = [kind, pinned, sink,
                                          first](const Column& c) {
    std::shared_ptr<std::atomic<double>> s = *first ? sink : nullptr;
    *first = false;
    return std::unique_ptr<IndexBase>(new ConvergenceProbe(
        MakeIndex(kind, c, *pinned).index, std::move(s)));
  };
  return std::unique_ptr<IndexBase>(
      new UpdatableIndex(std::vector<value_t>(base.values()), factory));
}

struct Inputs {
  Column base;
  std::vector<RangeQuery> checks;
  std::unique_ptr<Oracle> base_oracle;
};

/// The read log of rotation `i`. Every rotation draws its own log from
/// the seed, so a run's figures average over many logs: with one log
/// per run, the log alone moved ops_per_s by about 20% between seeds.
std::vector<RangeQuery> Reads(const Options& opt, uint64_t i) {
  return MakeSkyServerWorkload(1000, opt.seed * 1000003 + i);
}
constexpr uint64_t kWarmUpReads = 999999;

double SetUp(const Options& opt, bool traced, Inputs* in) {
  std::vector<double> secs;
  const size_t reps = traced ? 1 : opt.params.setup_reps;
  for (size_t rep = 0; rep < reps; rep++) {
    const double t0 = Now();
    in->base = MakeSkyServerColumn(opt.params.ingest_n, kTableSeed + 2);
    in->checks =
        MakeSkyServerWorkload(opt.params.ingest_check_queries, opt.seed + 22);
    in->base_oracle = std::make_unique<Oracle>(in->base.values());
    secs.push_back(Now() - t0);
  }
  return Median(secs);
}

struct Round {
  double first = 0;     ///< the round's first operation, a read, seconds
  double loop = 0;      ///< wall time of the closed loop
  double converge = 0;  ///< first op → first inner convergence
  bool converged = false;
  std::vector<double> latency;
  std::vector<double> recover;  ///< seconds per RecoverIndex call
  std::vector<serve::RecoveryStats> recovery;
  serve::ServeStats stats;
  size_t merges = 0;
  size_t pending = 0;
  size_t ops = 0;
};

/// One request through the server, inside a bench.submit span; true
/// when it was applied.
bool Send(serve::Server* server, const ServeRequest& op) {
  serve::Response resp;
  {
    obs::TraceScope span("bench.submit", "bench");
    resp = server->Submit(op);
  }
  return !resp.rejected && !resp.degraded;
}

/// Client `c`'s closed loop in the 50:30:10:10 read:insert:update:delete
/// mix of bench/mixed_throughput (docs/updates.md). As there, an update
/// is a delete plus an append, timed as one operation, and appended
/// values are uniform over the column's range. Deletes take only values
/// this client appended and still holds; a client holding none reads
/// instead, as mixed_throughput does on an empty pool. A rejected
/// append is not kept; a rejected delete leaves the value live.
void ClientLoop(const Options& opt, uint64_t stream, const Inputs& in,
                const std::vector<RangeQuery>& reads, serve::Server* server, std::vector<double>* latency,
                std::vector<value_t>* mine, Report* failures) {
  constexpr int kRead = 50, kInsert = 30, kUpdate = 10;
  const value_t lo = in.base.min_value();
  const value_t hi = in.base.max_value();
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + stream);
  for (size_t j = 0; j < opt.params.ingest_ops_per_client; j++) {
    const int roll = static_cast<int>(rng.NextBounded(100));
    const bool removes = roll >= kRead + kInsert;  // update or delete
    const bool read = roll < kRead || (removes && mine->empty());
    const bool appends = !read && roll < kRead + kInsert + kUpdate;
    const double t0 = Now();
    bool ok = true;
    if (read) {
      ok = Send(server, reads[rng.NextBounded(reads.size())]);
    }
    if (!read && removes) {
      const size_t victim = rng.NextBounded(mine->size());
      ok = Send(server, ServeRequest::Delete((*mine)[victim]));
      if (ok) {
        (*mine)[victim] = mine->back();
        mine->pop_back();
      }
    }
    if (ok && appends) {
      const value_t v = rng.NextInRange(lo, hi);
      ok = Send(server, ServeRequest::Append(v));
      if (ok) mine->push_back(v);
    }
    latency->push_back(Now() - t0);
    failures->attempted++;
    if (!ok) failures->failed++;
  }
}

Round RunRound(const Options& opt, size_t kind, size_t round_no,
               const Inputs& in, const std::vector<RangeQuery>& reads,
               Report* report) {
  const std::string dir =
      opt.work_dir + "/ingest-" + std::to_string(round_no);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const size_t clients = Workers();
  Round r;
  auto sink = std::make_shared<std::atomic<double>>(0.0);
  std::unique_ptr<IndexBase> index =
      MakeUpdatable(kind, in.base, PinnedConstants(), sink);
  std::vector<std::vector<double>> latency(clients);
  std::vector<std::vector<value_t>> mine(clients);
  std::vector<Report> failures(clients);
  double t_first = 0;
  {
    serve::ServerConfig cfg;
    cfg.persist_dir = dir;
    serve::Server server(index.get(), in.base, cfg);
    t_first = Now();
    serve::Response first;
    {
      obs::TraceScope span("bench.submit", "bench");
      first = server.Submit(reads[0]);
    }
    r.first = Now() - t_first;
    report->Check(first.result, in.base_oracle->Answer(reads[0]));
    if (first.degraded) report->failed++;

    const double t0 = Now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; c++) {
      threads.emplace_back([&, c] {
        ClientLoop(opt, round_no * clients + c, in, reads, &server,
                   &latency[c], &mine[c], &failures[c]);
      });
    }
    for (std::thread& th : threads) th.join();
    r.loop = Now() - t0;
    r.stats = server.stats();
  }
  const double conv_at = sink->load();
  r.converged = conv_at > 0;
  r.converge = r.converged ? conv_at - t_first : r.first + r.loop;
  for (size_t c = 0; c < clients; c++) {
    r.latency.insert(r.latency.end(), latency[c].begin(), latency[c].end());
    report->attempted += failures[c].attempted;
    report->failed += failures[c].failed;
  }
  r.ops = r.latency.size();

  // The final multiset: the base column plus every append that is
  // still live. Rejected updates were never applied, so they are not in it.
  std::vector<value_t> final_values(in.base.values());
  for (const auto& m : mine) {
    final_values.insert(final_values.end(), m.begin(), m.end());
  }
  const Oracle oracle(std::move(final_values));
  for (const RangeQuery& q : in.checks) {
    report->Check(index->Query(q), oracle.Answer(q));
  }
  UpdatableIndex* live = index->AsUpdatable();
  r.merges = live->merge_count();
  r.pending = live->pending_count() + live->tombstone_count();
  index.reset();

  auto make_fresh = [kind, &in](const MachineConstants& mc) {
    return MakeUpdatable(kind, in.base, mc, nullptr);
  };
  for (size_t rep = 0; rep < opt.params.recover_reps; rep++) {
    serve::RecoveryStats stats;
    const double t0 = Now();
    std::unique_ptr<IndexBase> recovered;
    {
      obs::TraceScope span("bench.recover", "bench");
      recovered = serve::RecoverIndex(dir, in.base, make_fresh, &stats);
    }
    r.recover.push_back(Now() - t0);
    r.recovery.push_back(stats);
    for (const RangeQuery& q : in.checks) {
      report->Check(recovered->Query(q), oracle.Answer(q));
    }
  }
  std::filesystem::remove_all(dir);
  if (!r.converged) {
    std::fprintf(stderr, "pibench: ingest %s inner index never converged\n",
                 kKinds[kind]);
    report->failed++;
  }
  return r;
}

/// Latency of the only operation (a read) a fresh durable server over a
/// fresh index answers: the first query, sampled more often than
/// rounds allow.
double FirstOp(const Options& opt, size_t kind, const Inputs& in,
               const RangeQuery& q, Report* report) {
  const std::string dir = opt.work_dir + "/ingest-first";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  double dt = 0;
  {
    std::unique_ptr<IndexBase> index =
        MakeUpdatable(kind, in.base, PinnedConstants(), nullptr);
    serve::ServerConfig cfg;
    cfg.persist_dir = dir;
    serve::Server server(index.get(), in.base, cfg);
    const double t0 = Now();
    serve::Response resp;
    {
      obs::TraceScope span("bench.submit", "bench");
      resp = server.Submit(q);
    }
    dt = Now() - t0;
    report->Check(resp.result, in.base_oracle->Answer(q));
    if (resp.degraded) report->failed++;
  }
  std::filesystem::remove_all(dir);
  return dt;
}

}  // namespace

double RunIngest(const Options& opt, bool traced, Report* report) {
  Inputs in;
  const double setup = SetUp(opt, traced, &in);
  if (opt.corrupt_oracle) in.base_oracle->Corrupt();

  const double warm0 = Now();
  RunRound(opt, 0, 0, in, Reads(opt, kWarmUpReads), report);  // discarded
  const double warmup = Now() - warm0;

  const uint64_t wal0 = CounterValue("persist.wal_bytes");
  const uint64_t snap_bytes0 = CounterValue("persist.snapshot_bytes");
  const uint64_t snaps0 = CounterValue("persist.snapshots");

  std::vector<Round> rounds[kNumKinds];
  std::vector<double> first[kNumKinds];
  const double deadline = Now() + opt.seconds;
  size_t rotations = 0;
  size_t round_no = 1;
  while (rotations < opt.params.ingest_min_rounds || Now() < deadline) {
    const std::vector<RangeQuery> reads = Reads(opt, rotations);
    for (size_t k = 0; k < kNumKinds; k++) {
      if (traced) {
        BeginTrace(opt,
                   "ingest-" + std::to_string(rotations) + "-" + kKinds[k]);
      }
      rounds[k].push_back(RunRound(opt, k, round_no++, in, reads, report));
      if (traced) EndTrace(report, "ingest");
      first[k].push_back(rounds[k].back().first);
      for (size_t j = 1; j <= opt.params.ingest_first_op_probes; j++) {
        first[k].push_back(FirstOp(opt, k, in, reads[j], report));
      }
    }
    rotations++;
  }

  std::vector<double> all_latency, p99[kNumKinds];
  double ops = 0, loop = 0;
  size_t unconverged = 0;
  for (size_t k = 0; k < kNumKinds; k++) {
    for (const Round& r : rounds[k]) {
      all_latency.insert(all_latency.end(), r.latency.begin(),
                         r.latency.end());
      p99[k].push_back(Quantile(r.latency, 0.99));
      ops += static_cast<double>(r.ops);
      loop += r.loop;
      if (!r.converged) unconverged++;
    }
  }
  report->Meta("ingest.rounds_per_kind", static_cast<double>(rotations));
  report->Meta("ingest.latency_samples", ops);
  report->Meta("ingest.clients", static_cast<double>(Workers()));
  report->Meta("ingest.unconverged_rounds", static_cast<double>(unconverged));
  const double mean_latency = Sum(all_latency) / ops;

  if (!traced) {
    double converge_sum = 0, recover_sum = 0;
    for (size_t k = 0; k < kNumKinds; k++) {
      std::vector<double> session, converge, recover;
      for (const Round& r : rounds[k]) {
        session.push_back(r.loop);
        converge.push_back(r.converge);
        recover.insert(recover.end(), r.recover.begin(), r.recover.end());
      }
      report->Add(std::string("first_query_ms.") + kKinds[k],
                  Median(first[k]) * 1e3, "ms");
      report->Add(std::string("session_s.") + kKinds[k], Median(session),
                  "s");
      converge_sum += Median(converge);
      recover_sum += Median(recover);
    }
    report->Add("query_p50_ms", Quantile(all_latency, 0.5) * 1e3, "ms");
    report->Add("query_p99_ms", SessionP99(p99) * 1e3, "ms");
    report->Add("converge_s", converge_sum, "s");
    report->Add("ops_per_s", ops / loop, "1/s");
    report->Add("recover_s", recover_sum, "s");
    report->Add("setup_s", setup + warmup, "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MiB");
    return mean_latency;
  }

  std::vector<double> merges, checkpoints, wal_read, snap_load, replay;
  double pending_peak = 0;
  for (size_t k = 0; k < kNumKinds; k++) {
    for (const Round& r : rounds[k]) {
      merges.push_back(static_cast<double>(r.merges));
      checkpoints.push_back(static_cast<double>(r.stats.checkpoints));
      pending_peak = std::max(pending_peak, static_cast<double>(r.pending));
      for (const serve::RecoveryStats& s : r.recovery) {
        wal_read.push_back(s.wal_read_ms);
        snap_load.push_back(s.snapshot_load_ms);
        replay.push_back(s.replay_ms);
      }
    }
  }
  const double snaps =
      static_cast<double>(CounterValue("persist.snapshots") - snaps0);
  const double rounds_run = static_cast<double>(merges.size());
  report->Add("core.updatable.merges", Sum(merges) / rounds_run, "count");
  report->Add("core.updatable.pending_peak", pending_peak, "count");
  report->Add("persist.wal_bytes_per_op",
              static_cast<double>(CounterValue("persist.wal_bytes") - wal0) /
                  ops,
              "B");
  report->Add("persist.checkpoints", Sum(checkpoints) / rounds_run, "count");
  report->Add("persist.snapshot_bytes_per_value",
              snaps > 0 ? static_cast<double>(
                              CounterValue("persist.snapshot_bytes") -
                              snap_bytes0) /
                              snaps / static_cast<double>(in.base.size())
                        : 0,
              "B");
  report->Add("persist.recover_wal_read_ms", Median(wal_read), "ms");
  report->Add("persist.recover_snapshot_load_ms", Median(snap_load), "ms");
  report->Add("persist.recover_replay_ms", Median(replay), "ms");
  report->trace_ops.push_back({"ingest", all_latency.size()});
  return mean_latency;
}

}  // namespace pibench
