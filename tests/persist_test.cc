// Durability tests (docs/recovery.md): snapshot container integrity,
// per-index Save/Load round-trip parity (identical state bytes AND
// identical subsequent query trajectory), checkpoint fallback across
// corrupt files, torn-tail WAL truncation, and end-to-end server
// recovery — including under every injected crash-fault mode. The one
// invariant mirrored from the serving layer: corruption costs replay
// time or durability, never a wrong answer and never a silently-loaded
// corrupt state.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/rng.h"
#include "core/budget.h"
#include "core/progressive_radixsort_lsd.h"
#include "core/progressive_radixsort_msd.h"
#include "core/updatable_index.h"
#include "eval/registry.h"
#include "exec/zero_budget_scan.h"
#include "persist/calibration_store.h"
#include "persist/checkpoint.h"
#include "persist/io.h"
#include "persist/wal.h"
#include "serve/epoch.h"
#include "serve/recovery.h"
#include "serve/server.h"
#include "storage/bucket_chain.h"
#include "workload/data_generator.h"
#include "workload/synthetic.h"

namespace progidx {
namespace {

/// Restores the environment fault mode on scope exit.
struct FaultModeGuard {
  explicit FaultModeGuard(fault::Mode mode) { fault::SetModeForTesting(mode); }
  ~FaultModeGuard() { fault::ClearModeForTesting(); }
};

/// A unique empty directory, removed (recursively) on scope exit.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/progidx_persist_XXXXXX";
    path = ::mkdtemp(tmpl);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    const std::string cmd = "rm -rf " + path;
    (void)std::system(cmd.c_str());
  }
  std::string path;
};

std::string StatePayload(const IndexBase& index) {
  persist::Writer w;
  index.SaveState(&w);
  return w.payload();
}

/// Flips one byte of a file in place.
void FlipByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, offset < 0 ? SEEK_END : SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

void TruncateFile(const std::string& path, long keep) {
  ASSERT_EQ(::truncate(path.c_str(), keep), 0);
}

// --- io layer ----------------------------------------------------------

TEST(PersistIoTest, WriterReaderRoundTrip) {
  persist::Writer w;
  w.WriteU64(42);
  w.WriteI64(-7);
  w.WriteBool(true);
  w.WriteDouble(0.125);
  w.WriteString("P. Quicksort");
  const std::vector<value_t> values = {5, -3, 0, 99};
  w.WriteValueVector(values);

  persist::Reader r = persist::Reader::FromPayload(w.payload());
  EXPECT_EQ(r.ReadU64(), 42u);
  EXPECT_EQ(r.ReadI64(), -7);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadDouble(), 0.125);
  EXPECT_EQ(r.ReadString(), "P. Quicksort");
  std::vector<value_t> out;
  EXPECT_TRUE(r.ReadValueVector(&out));
  EXPECT_EQ(out, values);
  EXPECT_TRUE(r.AtEnd());
  // Reading past the end returns zeros and flips ok().
  EXPECT_EQ(r.ReadU64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(PersistIoTest, PublishedFileRoundTrips) {
  TempDir dir;
  const std::string path = dir.path + "/snap";
  persist::Writer w;
  for (uint64_t i = 0; i < 1000; i++) w.WriteU64(i * 31);
  ASSERT_TRUE(w.Publish(path));
  persist::Reader r = persist::Reader::FromFile(path);
  ASSERT_TRUE(r.ok());
  for (uint64_t i = 0; i < 1000; i++) EXPECT_EQ(r.ReadU64(), i * 31);
  EXPECT_TRUE(r.AtEnd());
}

TEST(PersistIoTest, BitFlipAndTruncationAreDetected) {
  TempDir dir;
  const std::string path = dir.path + "/snap";
  persist::Writer w;
  for (uint64_t i = 0; i < 4096; i++) w.WriteU64(i);
  ASSERT_TRUE(w.Publish(path));

  // A flipped payload byte fails a frame CRC.
  FlipByte(path, 200);
  EXPECT_FALSE(persist::Reader::FromFile(path).ok());

  // A flipped bit in the *framing* itself is equally fatal.
  ASSERT_TRUE(w.Publish(path));
  FlipByte(path, 9);
  EXPECT_FALSE(persist::Reader::FromFile(path).ok());

  // A torn tail (lost terminator) is detected even with intact frames.
  ASSERT_TRUE(w.Publish(path));
  TruncateFile(path, 1000);
  EXPECT_FALSE(persist::Reader::FromFile(path).ok());

  // Trailing garbage after the terminator is rejected too.
  ASSERT_TRUE(w.Publish(path));
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputc('x', f);
    std::fclose(f);
  }
  EXPECT_FALSE(persist::Reader::FromFile(path).ok());

  EXPECT_FALSE(persist::Reader::FromFile(dir.path + "/absent").ok());
}

// --- per-index round-trip parity ---------------------------------------

class PersistRoundTripTest : public ::testing::TestWithParam<const char*> {};

// Save → Load at many points along the index's lifetime must reproduce
// identical state bytes and an identical subsequent query trajectory —
// the acceptance bar for every phase of every persistent technique.
TEST_P(PersistRoundTripTest, SaveLoadParityAcrossPhases) {
  const std::string algo = GetParam();
  const Column column = MakeUniformColumn(8000, 71);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 120,
      0.1, 73);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.25);
  auto index = MakeIndex(algo, column, budget);
  ASSERT_TRUE(index->SupportsPersistence());

  for (size_t i = 0; i < workload.size(); i++) {
    const QueryResult got = index->Query(workload[i]);
    EXPECT_EQ(got, exec::ZeroBudgetScan(column, workload[i]));
    if (i % 7 != 0) continue;

    // Round-trip through the in-memory payload path.
    const std::string saved = StatePayload(*index);
    auto reloaded = MakeIndex(algo, column, budget);
    persist::Reader r = persist::Reader::FromPayload(saved);
    ASSERT_TRUE(reloaded->LoadState(&r)) << algo << " at query " << i;
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(StatePayload(*reloaded), saved)
        << algo << ": reloaded state diverges at query " << i;

    // Identical trajectory: the next queries give identical answers
    // and land on identical state.
    const size_t stop = std::min(i + 5, workload.size());
    for (size_t j = i + 1; j < stop; j++) {
      EXPECT_EQ(index->Query(workload[j]), reloaded->Query(workload[j]));
    }
    EXPECT_EQ(StatePayload(*index), StatePayload(*reloaded));

    // Continue the outer loop from the *reloaded* instance: later
    // phases are reached through recovered state, not in spite of it.
    index = std::move(reloaded);
    i = stop - 1;
  }
  EXPECT_TRUE(index->converged())
      << algo << " should converge within the workload";
}

INSTANTIATE_TEST_SUITE_P(PersistAllIndexes, PersistRoundTripTest,
                         ::testing::Values("pq", "pb", "plsd", "pmsd", "fi"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

TEST(PersistRoundTrip, RejectsPayloadForDifferentColumnSize) {
  const Column column = MakeUniformColumn(4000, 79);
  const Column other = MakeUniformColumn(5000, 79);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.25));
  index->Query({column.min_value(), column.max_value()});
  const std::string saved = StatePayload(*index);
  auto wrong = MakeIndex("pq", other, BudgetSpec::FixedDelta(0.25));
  persist::Reader r = persist::Reader::FromPayload(saved);
  EXPECT_FALSE(wrong->LoadState(&r));
}

// --- hostile snapshots -------------------------------------------------
//
// A snapshot is input: a corrupted field must make LoadState return
// false, never reach an allocation sized from the file or a bounds
// check that aborts. These payloads pass every framing check (they are
// mutated after SaveState), so only the loaders' own validation stands
// between them and the index.

/// Field slots (8 bytes each) of a Progressive Radixsort LSD payload:
/// phase, min, max, total_passes, copy_pos, pass, drain_bucket, drain
/// cursor block and offset, merged, the budget's two fields, the source
/// chain count, then the first source chain's block capacity and size.
constexpr size_t kLsdCopyPos = 4;
constexpr size_t kLsdDrainBucket = 6;
constexpr size_t kLsdMerged = 9;
constexpr size_t kLsdChain0Capacity = 13;
constexpr size_t kLsdChain0Size = 14;
constexpr size_t kLsdChain0RunCount = 15;

uint64_t PayloadField(const std::string& payload, size_t slot) {
  uint64_t v = 0;
  std::memcpy(&v, payload.data() + slot * 8, sizeof(v));
  return v;
}

std::string WithPayloadField(std::string payload, size_t slot, uint64_t v) {
  payload.replace(slot * 8, sizeof(v), reinterpret_cast<const char*>(&v),
                  sizeof(v));
  return payload;
}

using Lsd = ProgressiveRadixsortLSD;
using Msd = ProgressiveRadixsortMSD;

/// Queries a fresh radix index at least once, until it reaches
/// `phase`, and returns its SaveState payload.
template <typename Index>
std::string PayloadAt(const Column& column, typename Index::Phase phase) {
  Index index(column, BudgetSpec::FixedDelta(0.05));
  const RangeQuery q{column.min_value(), column.min_value() + 100};
  int queries = 0;
  do {
    index.Query(q);
  } while (index.phase() != phase && ++queries < 1000);
  EXPECT_EQ(index.phase(), phase);
  return StatePayload(index);
}

template <typename Index>
bool Loads(const Column& column, const std::string& payload) {
  Index index(column, BudgetSpec::FixedDelta(0.05));
  persist::Reader r = persist::Reader::FromPayload(payload);
  return index.LoadState(&r);
}

TEST(PersistHostileSnapshotTest, ChainBlockCapacityMustMatchTheIndex) {
  const Column column = MakeUniformColumn(8000, 83);
  const std::string saved = PayloadAt<Lsd>(column, Lsd::Phase::kCreation);
  ASSERT_EQ(PayloadField(saved, kLsdChain0Capacity),
            BucketChain::kDefaultBlockCapacity);
  ASSERT_GT(PayloadField(saved, kLsdChain0Size), 0u);  // load allocates
  ASSERT_TRUE(Loads<Lsd>(column, saved));
  // A huge capacity used to reach the block allocation unchecked; any
  // other capacity would change the block layout saved cursors index.
  for (const uint64_t capacity : {uint64_t{1} << 60, uint64_t{1},
                                  uint64_t{0}, uint64_t{8192}}) {
    EXPECT_FALSE(Loads<Lsd>(
        column, WithPayloadField(saved, kLsdChain0Capacity, capacity)))
        << "capacity " << capacity;
  }
}

TEST(PersistHostileSnapshotTest, ValueRunCountCannotWrapTheBoundsCheck) {
  const Column column = MakeUniformColumn(8000, 83);
  const std::string saved = PayloadAt<Lsd>(column, Lsd::Phase::kCreation);
  ASSERT_EQ(PayloadField(saved, kLsdChain0RunCount),
            PayloadField(saved, kLsdChain0Size));
  // 2^61 values are 2^64 bytes, which wraps to 0 in a byte-size check.
  const std::string wrapped = WithPayloadField(
      WithPayloadField(saved, kLsdChain0Size, uint64_t{1} << 62),
      kLsdChain0RunCount, uint64_t{1} << 61);
  EXPECT_FALSE(Loads<Lsd>(column, wrapped));
}

TEST(PersistHostileSnapshotTest, LsdLoadEnforcesElementConservation) {
  using Phase = Lsd::Phase;
  const Column column = MakeUniformColumn(8000, 89);
  const uint64_t n = column.size();

  // Creation: the source chains hold exactly copy_pos elements.
  const std::string creation = PayloadAt<Lsd>(column, Phase::kCreation);
  ASSERT_TRUE(Loads<Lsd>(column, creation));
  const uint64_t copy_pos = PayloadField(creation, kLsdCopyPos);
  ASSERT_LT(copy_pos, n);
  EXPECT_FALSE(Loads<Lsd>(
      column, WithPayloadField(creation, kLsdCopyPos, copy_pos + 1)));

  // Refinement: skipping undrained buckets would lose their elements.
  const std::string refinement = PayloadAt<Lsd>(column, Phase::kRefinement);
  ASSERT_TRUE(Loads<Lsd>(column, refinement));
  ASSERT_LT(PayloadField(refinement, kLsdDrainBucket), 63u);
  EXPECT_FALSE(
      Loads<Lsd>(column, WithPayloadField(refinement, kLsdDrainBucket, 63)));

  // Merge: a merged count ahead of the chains used to pass the
  // `merged <= n` check and then abort in the merge's bounds check.
  const std::string merge = PayloadAt<Lsd>(column, Phase::kMerge);
  ASSERT_TRUE(Loads<Lsd>(column, merge));
  const uint64_t merged = PayloadField(merge, kLsdMerged);
  ASSERT_LT(merged, n);
  EXPECT_FALSE(
      Loads<Lsd>(column, WithPayloadField(merge, kLsdMerged, merged + 1)));
  EXPECT_FALSE(Loads<Lsd>(column, WithPayloadField(merge, kLsdMerged, n)));
}

/// Field slots of a Progressive Radixsort MSD payload: phase, min, max,
/// root_shift, root_mask, copy_pos, merged, ...
constexpr size_t kMsdCopyPos = 5;
constexpr size_t kMsdMerged = 6;

TEST(PersistHostileSnapshotTest, MsdLoadEnforcesElementConservation) {
  using Phase = Msd::Phase;
  const Column column = MakeUniformColumn(8000, 97);
  const uint64_t n = column.size();

  // Creation: the root buckets hold exactly copy_pos elements.
  const std::string creation = PayloadAt<Msd>(column, Phase::kCreation);
  ASSERT_TRUE(Loads<Msd>(column, creation));
  const uint64_t copy_pos = PayloadField(creation, kMsdCopyPos);
  ASSERT_LT(copy_pos, n);
  EXPECT_FALSE(Loads<Msd>(
      column, WithPayloadField(creation, kMsdCopyPos, copy_pos + 1)));

  // Refinement: a merged count ahead of the pending buckets used to
  // load and then abort in the bucket merge's bounds check.
  const std::string refinement = PayloadAt<Msd>(column, Phase::kRefinement);
  ASSERT_TRUE(Loads<Msd>(column, refinement));
  const uint64_t merged = PayloadField(refinement, kMsdMerged);
  ASSERT_LT(merged, n);
  EXPECT_FALSE(Loads<Msd>(
      column, WithPayloadField(refinement, kMsdMerged, merged + 1)));
}

// --- checkpointer ------------------------------------------------------

TEST(PersistCheckpointTest, SaveLoadAndRetention) {
  TempDir dir;
  const Column column = MakeUniformColumn(4000, 83);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.25));
  persist::Checkpointer ckpt(dir.path, column);

  for (int i = 0; i < 5; i++) {
    index->Query({column.min_value(), column.max_value()});
    persist::SnapshotMeta meta;
    meta.applied_queries = static_cast<uint64_t>(i + 1);
    ASSERT_TRUE(ckpt.Save(*index, meta));
    EXPECT_GT(ckpt.last_snapshot_bytes(), 0u);
  }
  // Retention: only the newest two snapshots survive.
  const std::vector<uint64_t> seqs = ckpt.ListSnapshots();
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0], 4u);
  EXPECT_EQ(seqs[1], 5u);

  auto loaded = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.25));
  persist::SnapshotMeta meta;
  ASSERT_TRUE(ckpt.TryLoad(5, loaded.get(), &meta));
  EXPECT_EQ(meta.applied_queries, 5u);
  EXPECT_EQ(StatePayload(*loaded), StatePayload(*index));
}

TEST(PersistCheckpointTest, RejectsWrongIndexAndWrongColumn) {
  TempDir dir;
  const Column column = MakeUniformColumn(4000, 89);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.25));
  index->Query({column.min_value(), column.max_value()});
  persist::Checkpointer ckpt(dir.path, column);
  ASSERT_TRUE(ckpt.Save(*index, {}));

  // A different technique must refuse the snapshot (name mismatch).
  auto other_algo = MakeIndex("pb", column, BudgetSpec::FixedDelta(0.25));
  persist::SnapshotMeta meta;
  EXPECT_FALSE(ckpt.TryLoad(1, other_algo.get(), &meta));

  // A different column must refuse it too (CRC fingerprint mismatch).
  const Column other = MakeUniformColumn(4000, 97);
  persist::Checkpointer other_ckpt(dir.path, other);
  auto fresh = MakeIndex("pq", other, BudgetSpec::FixedDelta(0.25));
  EXPECT_FALSE(other_ckpt.TryLoad(1, fresh.get(), &meta));
}

// --- WAL ---------------------------------------------------------------

TEST(PersistWalTest, AppendReadRoundTripAndTornTail) {
  TempDir dir;
  const std::string path = dir.path + "/wal";
  const std::vector<ServeRequest> ops = {
      RangeQuery{1, 5}, RangeQuery{-3, 8}, RangeQuery{100, 200}};
  {
    persist::WalWriter w;
    ASSERT_TRUE(w.Open(path));
    ASSERT_TRUE(w.AppendEpoch(0, ops.data(), 2));
    ASSERT_TRUE(w.AppendEpoch(2, ops.data() + 2, 1));
    EXPECT_FALSE(w.broken());
  }
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(path, &epochs, &torn));
  EXPECT_FALSE(torn);
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0].first_ticket, 0u);
  ASSERT_EQ(epochs[0].ops.size(), 2u);
  EXPECT_EQ(epochs[0].ops[1].query.low, -3);
  EXPECT_EQ(epochs[1].ops[0].query.high, 200);

  // Tear the tail record: the valid prefix survives, the torn bytes are
  // physically dropped, and appends continue cleanly afterwards.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x30\x00\x00\x00partial";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  ASSERT_TRUE(persist::ReadWal(path, &epochs, &torn));
  EXPECT_TRUE(torn);
  ASSERT_EQ(epochs.size(), 2u);
  {
    persist::WalWriter w;
    ASSERT_TRUE(w.Open(path));
    ASSERT_TRUE(w.AppendEpoch(3, ops.data(), 3));
  }
  ASSERT_TRUE(persist::ReadWal(path, &epochs, &torn));
  EXPECT_FALSE(torn);
  ASSERT_EQ(epochs.size(), 3u);
  EXPECT_EQ(epochs[2].ops.size(), 3u);
}

TEST(PersistWalTest, UpdateOpsRoundTripAndLegacyRecordsCoexist) {
  TempDir dir;
  const std::string path = dir.path + "/wal";
  // A legacy record — the pre-update 16-byte query-pair entries —
  // written by hand, exactly as an old writer laid it out.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("PIDXWAL1", 1, 8, f);
    std::string body;
    auto u64 = [&body](uint64_t v) {
      body.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    u64(0);                              // first_ticket
    u64(2);                              // count
    u64(static_cast<uint64_t>(7));       // q0.low
    u64(static_cast<uint64_t>(9));       // q0.high
    u64(static_cast<uint64_t>(-4));      // q1.low
    u64(static_cast<uint64_t>(12));      // q1.high
    const uint32_t len = static_cast<uint32_t>(body.size());
    const uint32_t crc = persist::Crc32(body.data(), body.size());
    std::fwrite(&len, 4, 1, f);
    std::fwrite(&crc, 4, 1, f);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
  // Then a current-format mixed epoch appended by the writer.
  const std::vector<ServeRequest> mixed = {
      ServeRequest::Append(42), RangeQuery{0, 100}, ServeRequest::Delete(42)};
  {
    persist::WalWriter w;
    ASSERT_TRUE(w.Open(path));
    ASSERT_TRUE(w.AppendEpoch(2, mixed.data(), mixed.size()));
  }
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(path, &epochs, &torn));
  EXPECT_FALSE(torn);
  ASSERT_EQ(epochs.size(), 2u);
  ASSERT_EQ(epochs[0].ops.size(), 2u);
  EXPECT_TRUE(epochs[0].ops[0].is_query());
  EXPECT_EQ(epochs[0].ops[1].query.low, -4);
  ASSERT_EQ(epochs[1].ops.size(), 3u);
  EXPECT_EQ(epochs[1].ops[0].op, OpKind::kAppend);
  EXPECT_EQ(epochs[1].ops[0].value, 42);
  EXPECT_TRUE(epochs[1].ops[1].is_query());
  EXPECT_EQ(epochs[1].ops[1].query.high, 100);
  EXPECT_EQ(epochs[1].ops[2].op, OpKind::kDelete);
  EXPECT_EQ(epochs[1].ops[2].value, 42);
}

TEST(PersistWalTest, CorruptRecordTruncatesSuffix) {
  TempDir dir;
  const std::string path = dir.path + "/wal";
  const std::vector<ServeRequest> ops = {RangeQuery{1, 5}, RangeQuery{7, 9}};
  {
    persist::WalWriter w;
    ASSERT_TRUE(w.Open(path));
    ASSERT_TRUE(w.AppendEpoch(0, ops.data(), 1));
    ASSERT_TRUE(w.AppendEpoch(1, ops.data() + 1, 1));
  }
  // Flip a byte inside the second record's body: everything from that
  // record on is dropped.
  FlipByte(path, -10);
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(path, &epochs, &torn));
  EXPECT_TRUE(torn);
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].ops[0].query.high, 5);
}

TEST(PersistWalTest, RefusesForeignFile) {
  TempDir dir;
  const std::string path = dir.path + "/wal";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTAWALFILE!", f);
    std::fclose(f);
  }
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  EXPECT_FALSE(persist::ReadWal(path, &epochs, &torn));
}

// --- end-to-end server recovery ----------------------------------------

serve::ServerConfig DurableConfig(const std::string& dir) {
  serve::ServerConfig cfg;
  cfg.batch_size = 4;
  cfg.checkpoint_every = 2;
  cfg.enable_read_epochs = false;
  cfg.persist_dir = dir;
  return cfg;
}

// The three strict PersistServerTest cases assert *fault-free*
// durability outcomes (unbroken WAL, exact checkpoint counts, zero
// replay after clean shutdown), so they skip when the crash-fault lane
// arms a mode through the environment — armed-mode behavior is what
// PersistFaultTest covers, per mode, with exact expectations.

TEST(PersistServerTest, CleanShutdownRecoversBitIdentical) {
  if (fault::ModeFromEnv() != fault::Mode::kNone) {
    GTEST_SKIP() << "strict durability accounting requires no armed fault";
  }
  TempDir dir;
  const Column column = MakeUniformColumn(6000, 101);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 40,
      0.1, 103);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.1);
  auto index = MakeIndex("pq", column, budget);
  uint64_t durable = 0;
  {
    serve::Server server(index.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) {
      EXPECT_EQ(server.Submit(q).result, exec::ZeroBudgetScan(column, q));
    }
    const serve::ServeStats stats = server.stats();
    EXPECT_FALSE(stats.wal_broken);
    EXPECT_GT(stats.checkpoints, 0u);
    durable = stats.durable_queries;
  }
  EXPECT_EQ(durable, workload.size());

  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(
      dir.path, column,
      [&](const MachineConstants& mc) {
    ProgressiveOptions opt;
    opt.machine = &mc;
    return MakeIndex("pq", column, budget, opt);
  }, &rec);
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(rec.log_queries, workload.size());
  // The shutdown checkpoint covers the whole log: zero replay.
  EXPECT_EQ(rec.replayed_queries, 0u);
  EXPECT_EQ(StatePayload(*recovered), StatePayload(*index));

  // A second serving generation continues from the recovered state.
  {
    serve::Server server(recovered.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) {
      EXPECT_EQ(server.Submit(q).result, exec::ZeroBudgetScan(column, q));
    }
    EXPECT_EQ(server.stats().durable_queries, 2 * workload.size());
  }
}

TEST(PersistServerTest, RecoveryFallsBackAcrossCorruptSnapshots) {
  if (fault::ModeFromEnv() != fault::Mode::kNone) {
    GTEST_SKIP() << "exact snapshot/replay counts require no armed fault";
  }
  TempDir dir;
  const Column column = MakeUniformColumn(6000, 107);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 40,
      0.1, 109);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.1);
  auto index = MakeIndex("pq", column, budget);
  {
    serve::Server server(index.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) server.Submit(q);
  }
  auto make_fresh = [&](const MachineConstants& mc) {
    ProgressiveOptions opt;
    opt.machine = &mc;
    return MakeIndex("pq", column, budget, opt);
  };

  // Corrupt the newest snapshot: recovery falls back to the older one
  // plus a longer replay, landing on the same state.
  {
    persist::Checkpointer ckpt(dir.path, column);
    const std::vector<uint64_t> seqs = ckpt.ListSnapshots();
    ASSERT_EQ(seqs.size(), 2u);
    char name[32];
    std::snprintf(name, sizeof(name), "snapshot-%010llu",
                  static_cast<unsigned long long>(seqs[1]));
    FlipByte(dir.path + "/" + name, 100);
  }
  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(dir.path, column, make_fresh, &rec);
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(rec.snapshots_rejected, 1u);
  EXPECT_GT(rec.replayed_queries, 0u);
  EXPECT_EQ(StatePayload(*recovered), StatePayload(*index));

  // Corrupt both snapshots: cold start, full-log replay, same state.
  // (A different offset than above — re-flipping byte 100 of the
  // already-damaged newest snapshot would restore it.)
  {
    persist::Checkpointer ckpt(dir.path, column);
    for (const uint64_t seq : ckpt.ListSnapshots()) {
      char name[32];
      std::snprintf(name, sizeof(name), "snapshot-%010llu",
                    static_cast<unsigned long long>(seq));
      FlipByte(dir.path + "/" + name, 150);
    }
  }
  auto cold = serve::RecoverIndex(dir.path, column, make_fresh, &rec);
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_EQ(rec.snapshots_rejected, 2u);
  EXPECT_EQ(rec.replayed_queries, workload.size());
  EXPECT_EQ(StatePayload(*cold), StatePayload(*index));
}

TEST(PersistServerTest, IndexWithoutPersistenceRecoversByColdReplay) {
  if (fault::ModeFromEnv() != fault::Mode::kNone) {
    GTEST_SKIP() << "exact replay counts require no armed fault";
  }
  TempDir dir;
  const Column column = MakeUniformColumn(4000, 113);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 20,
      0.1, 127);
  // Standard cracking has no SaveState; the WAL alone must carry it.
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.1);
  auto index = MakeIndex("std", column, budget);
  ASSERT_FALSE(index->SupportsPersistence());
  {
    serve::Server server(index.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) server.Submit(q);
    EXPECT_EQ(server.stats().checkpoints, 0u);
    EXPECT_EQ(server.stats().durable_queries, workload.size());
  }
  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(
      dir.path, column, [&](const MachineConstants&) { return MakeIndex("std", column, budget); },
      &rec);
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_EQ(rec.replayed_queries, workload.size());
  // No state bytes to compare; answers must be exact.
  for (const RangeQuery& q : workload) {
    EXPECT_EQ(recovered->Query(q), exec::ZeroBudgetScan(column, q));
  }
}

// --- calibration pinning -----------------------------------------------

/// Distinctive-but-valid constants, clearly not this process's own
/// measurement.
MachineConstants CraftedConstants() {
  MachineConstants mc = GlobalMachineConstants();
  mc.swap_secs *= 2.0;
  mc.sort_unit_scale *= 3.0;
  mc.seq_read_secs *= 1.5;
  return mc;
}

TEST(PersistCalibrationTest, PinRoundTripWinsOverLaterConstants) {
  TempDir dir;
  MachineConstants a = CraftedConstants();
  bool pinned_now = false;
  ASSERT_TRUE(persist::PinOrLoadCalibration(dir.path, &a, &pinned_now));
  EXPECT_TRUE(pinned_now);

  // A later open with different constants gets the pin, not its own.
  MachineConstants b = GlobalMachineConstants();
  ASSERT_NE(persist::CalibrationFingerprint(b),
            persist::CalibrationFingerprint(a));
  ASSERT_TRUE(persist::PinOrLoadCalibration(dir.path, &b, &pinned_now));
  EXPECT_FALSE(pinned_now);
  EXPECT_EQ(persist::CalibrationFingerprint(b),
            persist::CalibrationFingerprint(a));
  EXPECT_EQ(b.swap_secs, a.swap_secs);
  EXPECT_EQ(b.sort_unit_scale, a.sort_unit_scale);
  EXPECT_STREQ(b.kernel_name, a.kernel_name);  // interned onto a known tier
}

TEST(PersistCalibrationTest, CorruptPinIsReplacedNeverLoaded) {
  TempDir dir;
  MachineConstants a = CraftedConstants();
  ASSERT_TRUE(persist::PinOrLoadCalibration(dir.path, &a));
  FlipByte(dir.path + "/calibration", 20);

  MachineConstants b = GlobalMachineConstants();
  bool pinned_now = false;
  ASSERT_TRUE(persist::PinOrLoadCalibration(dir.path, &b, &pinned_now));
  EXPECT_TRUE(pinned_now);  // damaged pin re-pinned, not silently loaded
  EXPECT_EQ(persist::CalibrationFingerprint(b),
            persist::CalibrationFingerprint(GlobalMachineConstants()));
}

// The determinism regression the pin exists for: snapshots taken under
// constants other than the directory's pin must be rejected (replaying
// their suffix under the pin would walk a different trajectory than
// the server that wrote them), and recovery must land on the pin's own
// cold-replay trajectory instead.
TEST(PersistCalibrationTest, MismatchedSnapshotsRejectedColdReplayOnPin) {
  if (fault::ModeFromEnv() != fault::Mode::kNone) {
    GTEST_SKIP() << "exact snapshot/replay counts require no armed fault";
  }
  TempDir dir;
  const Column column = MakeUniformColumn(6000, 113);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 40,
      0.1, 127);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.1);

  // Pin crafted constants before any server touches the directory.
  MachineConstants pinned = CraftedConstants();
  ASSERT_TRUE(persist::PinOrLoadCalibration(dir.path, &pinned));

  // Serve on this process's own measurement: every snapshot gets
  // stamped with a fingerprint that does not match the pin.
  auto served = MakeIndex("pq", column, budget);
  {
    serve::Server server(served.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) server.Submit(q);
    EXPECT_GT(server.stats().checkpoints, 0u);
  }

  uint64_t factory_crc = 0;
  auto make_fresh = [&](const MachineConstants& mc) {
    factory_crc = persist::CalibrationFingerprint(mc);
    ProgressiveOptions opt;
    opt.machine = &mc;
    return MakeIndex("pq", column, budget, opt);
  };
  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(dir.path, column, make_fresh, &rec);
  // Recovery built on the pinned constants, not this process's own...
  EXPECT_EQ(factory_crc, persist::CalibrationFingerprint(pinned));
  EXPECT_FALSE(rec.calibration_pinned_now);
  // ...and rejected every foreign-fingerprint snapshot.
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_GT(rec.snapshots_rejected, 0u);
  EXPECT_EQ(rec.replayed_queries, workload.size());

  ProgressiveOptions opt;
  opt.machine = &pinned;
  auto cold = MakeIndex("pq", column, budget, opt);
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(dir.path + "/wal", &epochs, &torn));
  std::vector<QueryResult> sink;
  for (const persist::WalEpoch& e : epochs) {
    if (e.ops.empty()) continue;
    sink.resize(e.ops.size());
    serve::ExecuteEpoch(cold.get(), e.ops.data(), e.ops.size(), sink.data());
  }
  EXPECT_EQ(StatePayload(*recovered), StatePayload(*cold));
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(recovered->Query(workload[i]),
              exec::ZeroBudgetScan(column, workload[i]));
  }
}

// --- crash faults end to end -------------------------------------------

class PersistFaultTest : public ::testing::TestWithParam<fault::Mode> {};

// Under every crash-fault mode the serving run damages (or withholds)
// its own durable state — yet recovery must still land bit-identical
// to a cold replay of whatever log survived, and never load a corrupt
// file.
TEST_P(PersistFaultTest, RecoveryExactUnderCrashFaults) {
  FaultModeGuard guard(GetParam());
  TempDir dir;
  const Column column = MakeUniformColumn(6000, 131);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 60,
      0.1, 137);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.1);
  auto make_fresh = [&](const MachineConstants& mc) {
    ProgressiveOptions opt;
    opt.machine = &mc;
    return MakeIndex("pq", column, budget, opt);
  };
  auto index = make_fresh(GlobalMachineConstants());
  {
    serve::Server server(index.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) {
      EXPECT_EQ(server.Submit(q).result, exec::ZeroBudgetScan(column, q));
    }
  }

  // Recovery runs fault-free (no server armed): it must reproduce the
  // cold replay of the durable log exactly, whatever the faults tore.
  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(dir.path, column, make_fresh, &rec);
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(dir.path + "/wal", &epochs, &torn));
  auto cold = make_fresh(GlobalMachineConstants());
  std::vector<QueryResult> sink;
  for (const persist::WalEpoch& e : epochs) {
    if (e.ops.empty()) continue;
    sink.resize(e.ops.size());
    serve::ExecuteEpoch(cold.get(), e.ops.data(), e.ops.size(), sink.data());
  }
  EXPECT_EQ(StatePayload(*recovered), StatePayload(*cold))
      << "mode " << fault::ModeName(GetParam());
  for (int i = 0; i < 8; i++) {
    const RangeQuery q = workload[i];
    EXPECT_EQ(recovered->Query(q), exec::ZeroBudgetScan(column, q));
  }
}

// Instantiation name starts with "Persist" so the crash-fault ctest
// lane's --gtest_filter='Persist*' matches the parameterized names.
INSTANTIATE_TEST_SUITE_P(PersistCrashModes, PersistFaultTest,
                         ::testing::Values(fault::Mode::kCrashPreRename,
                                           fault::Mode::kSnapshotTorn,
                                           fault::Mode::kLogTorn,
                                           fault::Mode::kFsyncFail),
                         [](const ::testing::TestParamInfo<fault::Mode>& i) {
                           return std::string(fault::ModeName(i.param));
                         });

// --- durability under updates (docs/updates.md) ------------------------

/// An updatable-index factory matching serve::RecoverIndex's contract:
/// the inner factory owns a copy of the handed-back (pinned) constants,
/// because it re-fires on every completed merge.
std::function<std::unique_ptr<IndexBase>(const MachineConstants&)>
UpdatableFactory(const Column& column, double merge_threshold) {
  return [&column, merge_threshold](const MachineConstants& mc) {
    auto pinned = std::make_shared<MachineConstants>(mc);
    UpdatableIndex::IndexFactory inner = [pinned](const Column& c) {
      ProgressiveOptions opt;
      opt.machine = pinned.get();
      return MakeIndex("pq", c, BudgetSpec::FixedDelta(0.1), opt);
    };
    return std::unique_ptr<IndexBase>(new UpdatableIndex(
        std::vector<value_t>(column.values()), std::move(inner),
        merge_threshold));
  };
}

// Mid-merge Save/Load round trip: freeze an index while its budgeted
// merge is part-way through, load the payload into a fresh instance,
// and require identical bytes (delta, tombstones, merge cursor) AND an
// identical trajectory over further queries — the loaded instance must
// re-derive the unserialized shadow copy deterministically.
TEST(PersistUpdatableTest, MidMergeSaveLoadRoundTripsByteForByte) {
  const Column column = MakeUniformColumn(4000, 151);
  auto make = UpdatableFactory(column, 0.01);
  std::unique_ptr<IndexBase> original = make(GlobalMachineConstants());
  UpdatableIndex* updatable = original->AsUpdatable();
  ASSERT_NE(updatable, nullptr);

  Rng rng(157);
  auto next_query = [&] {
    value_t a = rng.NextInRange(column.min_value(), column.max_value());
    value_t b = rng.NextInRange(column.min_value(), column.max_value());
    if (b < a) std::swap(a, b);
    return RangeQuery{a, b};
  };
  // Cross the threshold (0.01 × 4000 = 40 delta entries), then query
  // until the merge is strictly mid-flight.
  for (int i = 0; i < 48; i++) {
    updatable->Append(rng.NextInRange(column.min_value(), column.max_value()));
  }
  size_t guard = 0;
  while (!updatable->merge_in_progress() && guard++ < 8) {
    (void)updatable->Query(next_query());
  }
  ASSERT_TRUE(updatable->merge_in_progress());
  ASSERT_GT(updatable->merge_cursor(), 0u);
  ASSERT_LT(updatable->merge_cursor(), column.size() + 48);

  const std::string payload = StatePayload(*original);
  std::unique_ptr<IndexBase> loaded = make(GlobalMachineConstants());
  persist::Reader r = persist::Reader::FromPayload(payload);
  ASSERT_TRUE(loaded->LoadState(&r));
  EXPECT_EQ(StatePayload(*loaded), payload);
  EXPECT_EQ(loaded->AsUpdatable()->merge_cursor(), updatable->merge_cursor());

  // Lockstep continuation: the merge finishes, the inner index is
  // rebuilt, and every step stays bit-identical.
  for (int i = 0; i < 64; i++) {
    const RangeQuery q = next_query();
    EXPECT_EQ(original->Query(q), loaded->Query(q));
  }
  EXPECT_GE(updatable->merge_count(), 1u);
  EXPECT_EQ(StatePayload(*original), StatePayload(*loaded));
}

class PersistUpdateFaultTest : public ::testing::TestWithParam<fault::Mode> {};

// End-to-end durable serving of a mixed query/append/delete workload
// under every crash-fault mode: whatever the fault tore or withheld,
// recovery must land bit-identical to a cold ExecuteEpoch replay of
// the surviving log, and post-recovery answers must match the log
// applied to a plain multiset (the base column is stale under updates).
TEST_P(PersistUpdateFaultTest, MixedWorkloadRecoveryExactUnderCrashFaults) {
  FaultModeGuard guard(GetParam());
  TempDir dir;
  const Column column = MakeUniformColumn(4000, 163);
  auto make_fresh = UpdatableFactory(column, 0.01);
  auto index = make_fresh(GlobalMachineConstants());
  Rng rng(167);
  std::vector<value_t> pool;
  {
    serve::Server server(index.get(), column, DurableConfig(dir.path));
    for (size_t i = 0; i < 200; i++) {
      const uint64_t roll = rng.NextBounded(10);
      ServeRequest op;
      size_t at = 0;
      if (roll >= 7) {
        const bool del = roll == 9 && !pool.empty();
        if (del) {
          at = rng.NextBounded(pool.size());
          op = ServeRequest::Delete(pool[at]);
        } else {
          op = ServeRequest::Append(column.max_value() + 1 +
                                    static_cast<value_t>(i));
        }
      } else {
        value_t a = rng.NextInRange(column.min_value(), column.max_value());
        value_t b = rng.NextInRange(column.min_value(), column.max_value());
        if (b < a) std::swap(a, b);
        op = RangeQuery{a, b};
      }
      const serve::Response resp = server.Submit(op);
      if (op.is_update() && !resp.rejected) {
        if (op.op == OpKind::kDelete) {
          pool[at] = pool.back();
          pool.pop_back();
        } else {
          pool.push_back(op.value);
        }
      }
    }
  }

  // Recovery runs fault-free (no server armed).
  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(dir.path, column, make_fresh, &rec);
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(dir.path + "/wal", &epochs, &torn));
  auto cold = make_fresh(GlobalMachineConstants());
  std::vector<QueryResult> sink;
  std::vector<value_t> oracle(column.values());
  for (const persist::WalEpoch& e : epochs) {
    if (e.ops.empty()) continue;
    sink.resize(e.ops.size());
    serve::ExecuteEpoch(cold.get(), e.ops.data(), e.ops.size(), sink.data());
    for (const ServeRequest& op : e.ops) {
      if (op.op == OpKind::kAppend) {
        oracle.push_back(op.value);
      } else if (op.op == OpKind::kDelete) {
        auto it = std::find(oracle.begin(), oracle.end(), op.value);
        ASSERT_NE(it, oracle.end()) << "durable delete of absent value";
        *it = oracle.back();
        oracle.pop_back();
      }
    }
  }
  EXPECT_EQ(StatePayload(*recovered), StatePayload(*cold))
      << "mode " << fault::ModeName(GetParam());
  for (int i = 0; i < 8; i++) {
    value_t a = rng.NextInRange(column.min_value(), column.max_value() + 200);
    value_t b = rng.NextInRange(column.min_value(), column.max_value() + 200);
    if (b < a) std::swap(a, b);
    QueryResult want;
    for (const value_t v : oracle) {
      if (v >= a && v <= b) {
        want.sum += v;
        want.count++;
      }
    }
    EXPECT_EQ(recovered->Query(RangeQuery{a, b}), want);
  }
}

INSTANTIATE_TEST_SUITE_P(PersistUpdateCrashModes, PersistUpdateFaultTest,
                         ::testing::Values(fault::Mode::kCrashPreRename,
                                           fault::Mode::kSnapshotTorn,
                                           fault::Mode::kLogTorn,
                                           fault::Mode::kFsyncFail),
                         [](const ::testing::TestParamInfo<fault::Mode>& i) {
                           return std::string(fault::ModeName(i.param));
                         });

}  // namespace
}  // namespace progidx
