#include "core/progressive_bucketsort.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/predication.h"
#include "common/rng.h"
#include "exec/batch_refine.h"
#include "kernels/kernels.h"
#include "parallel/primitives.h"
#include "persist/io.h"

namespace progidx {

ProgressiveBucketsort::ProgressiveBucketsort(const Column& column,
                                             const BudgetSpec& budget,
                                             const ProgressiveOptions& options,
                                             uint64_t sample_seed)
    : column_(column),
      options_(options),
      model_(options.Machine(), column.size(), options.bucket_count,
             options.block_capacity),
      budget_(budget, model_) {
  const size_t n = column_.size();
  min_ = column_.min_value();
  max_ = column_.max_value();
  buckets_.reserve(options_.bucket_count);
  for (size_t i = 0; i < options_.bucket_count; i++) {
    buckets_.emplace_back(options_.block_capacity);
  }
  final_.resize(n);
  if (n == 0) {
    phase_ = Phase::kDone;
    return;
  }
  // Equi-height bounds from a random sample (the paper's "existing
  // statistics" route; a histogram sampled once at creation).
  const size_t sample_size = std::min<size_t>(n, 16384);
  std::vector<value_t> sample(sample_size);
  Rng rng(sample_seed);
  for (size_t i = 0; i < sample_size; i++) {
    sample[i] = column_[rng.NextBounded(n)];
  }
  std::sort(sample.begin(), sample.end());
  boundaries_.reserve(options_.bucket_count - 1);
  for (size_t b = 1; b < options_.bucket_count; b++) {
    boundaries_.push_back(sample[b * sample_size / options_.bucket_count]);
  }
}

size_t ProgressiveBucketsort::BucketOf(value_t v) const {
  return static_cast<size_t>(
      std::upper_bound(boundaries_.begin(), boundaries_.end(), v) -
      boundaries_.begin());
}

value_t ProgressiveBucketsort::BucketLo(size_t b) const {
  return b == 0 ? min_ : boundaries_[b - 1];
}

value_t ProgressiveBucketsort::BucketHi(size_t b) const {
  return b == boundaries_.size() ? max_ : boundaries_[b] - 1;
}

double ProgressiveBucketsort::OpSecsForPhase(Phase phase) const {
  switch (phase) {
    case Phase::kCreation: {
      const double log_b = std::log2(static_cast<double>(buckets_.size()));
      return log_b * model_.BucketAppendSecs();
    }
    case Phase::kRefinement:
      // §3.3: the refinement cost model is Progressive Quicksort's.
      return model_.SwapSecs();
    case Phase::kConsolidation:
      return model_.ConsolidateSecs(options_.btree_fanout);
    case Phase::kDone:
      return 0;
  }
  return 0;
}

double ProgressiveBucketsort::SelectivityEstimate(const RangeQuery& q) const {
  const double domain = static_cast<double>(max_) -
                        static_cast<double>(min_) + 1.0;
  if (domain <= 0) return 1.0;
  const double width = static_cast<double>(q.high) -
                       static_cast<double>(q.low) + 1.0;
  return std::clamp(width / domain, 0.0, 1.0);
}

double ProgressiveBucketsort::EstimateAnswerSecs(const RangeQuery& q) const {
  const MachineConstants& mc = model_.constants();
  const size_t n = column_.size();
  const double bucket_elem =
      model_.BucketScanSecs() / static_cast<double>(std::max<size_t>(n, 1));
  switch (phase_) {
    case Phase::kCreation: {
      double elems = 0;
      for (size_t b = 0; b < buckets_.size(); b++) {
        if (BucketHi(b) < q.low || BucketLo(b) > q.high) continue;
        elems += static_cast<double>(buckets_[b].size());
      }
      return bucket_elem * elems +
             mc.seq_read_secs * static_cast<double>(n - copy_pos_);
    }
    case Phase::kRefinement: {
      double elems = 0;
      for (size_t b = merge_bucket_; b < buckets_.size(); b++) {
        if (BucketHi(b) < q.low || BucketLo(b) > q.high) continue;
        elems += static_cast<double>(buckets_[b].size());
      }
      if (sorter_active_ && BucketHi(merge_bucket_) >= q.low &&
          BucketLo(merge_bucket_) <= q.high) {
        scratch_ranges_.clear();
        active_sorter_.CollectRanges(q, &scratch_ranges_);
        for (const ScanRange& r : scratch_ranges_) {
          if (!r.sorted) elems += static_cast<double>(r.end - r.start);
        }
      }
      est_chain_elems_ = elems;
      const double matched = SelectivityEstimate(q) * static_cast<double>(n);
      return model_.BinarySearchSecs() + bucket_elem * elems +
             mc.seq_read_secs * matched;
    }
    case Phase::kConsolidation:
    case Phase::kDone: {
      const double matched = SelectivityEstimate(q) * static_cast<double>(n);
      return model_.BinarySearchSecs() + mc.seq_read_secs * matched;
    }
  }
  return 0;
}

void ProgressiveBucketsort::EnterConsolidation() {
  btree_ = BPlusTree(final_.data(), final_.size(), options_.btree_fanout);
  builder_ = std::make_unique<ProgressiveBTreeBuilder>(&btree_);
  phase_ = Phase::kConsolidation;
}

void ProgressiveBucketsort::BeginActiveBucket() {
  // Skip empty buckets outright.
  while (merge_bucket_ < buckets_.size() &&
         buckets_[merge_bucket_].empty()) {
    merge_bucket_++;
  }
  if (merge_bucket_ == buckets_.size()) {
    PROGIDX_CHECK(sorted_end_ == final_.size());
    EnterConsolidation();
    return;
  }
  filling_ = true;
  fill_pos_ = sorted_end_;
  fill_cursor_ = BucketChain::Cursor{};
  sorter_active_ = false;
}

void ProgressiveBucketsort::DoWorkSecs(double secs) {
  const size_t n = column_.size();
  while (secs > 0 && phase_ != Phase::kDone) {
    switch (phase_) {
      case Phase::kCreation: {
        const double log_b =
            std::log2(static_cast<double>(buckets_.size()));
        const double unit = ClampWorkUnit(
            log_b * model_.BucketAppendSecs() / static_cast<double>(n));
        size_t elems = UnitsForSecs(secs, unit);
        elems = std::min(elems, n - copy_pos_);
        // Equi-height bounds need a binary search per element (no digit
        // kernel applies). The parallel batched scatter resolves ids in
        // concurrent chunks (the bounds are read-only), then appends
        // them serially through the WC-staged scatter; small slices
        // stay serial end to end.
        parallel::ScatterToChainsBatched(
            [this](const value_t* batch, size_t len, uint32_t* ids) {
              for (size_t i = 0; i < len; i++) {
                ids[i] = static_cast<uint32_t>(BucketOf(batch[i]));
              }
            },
            column_.data() + copy_pos_, elems, buckets_.data(),
            buckets_.size());
        copy_pos_ += elems;
        secs -= static_cast<double>(elems) * unit;
        if (copy_pos_ == n) {
          phase_ = Phase::kRefinement;
          BeginActiveBucket();
        }
        break;
      }
      case Phase::kRefinement: {
        const double unit =
            ClampWorkUnit(model_.SwapSecs() / static_cast<double>(n));
        const size_t elems = UnitsForSecs(secs, unit);
        size_t used = 0;
        std::vector<parallel::SrcRun> runs;
        while (used < elems && phase_ == Phase::kRefinement) {
          BucketChain& chain = buckets_[merge_bucket_];
          if (filling_) {
            // Straight block copies into the bucket's final segment:
            // gather the chain's block runs up to the budget, then lay
            // them out in one call — big fill slices memcpy across the
            // pool into disjoint slices, small ones stay serial.
            runs.clear();
            BucketChain::Cursor probe = fill_cursor_;
            size_t batched = 0;
            while (batched < elems - used && !chain.AtEnd(probe)) {
              const value_t* run = nullptr;
              size_t len = chain.ContiguousRun(probe, &run);
              len = std::min(len, elems - used - batched);
              runs.push_back({run, len});
              chain.Advance(&probe, len);
              batched += len;
            }
            if (batched > 0) {
              parallel::CopyRunsTo(runs.data(), runs.size(),
                                   final_.data() + fill_pos_);
              fill_pos_ += batched;
              fill_cursor_ = probe;
              used += batched;
            }
            if (chain.AtEnd(fill_cursor_)) {
              filling_ = false;
              // The segment now holds the bucket's elements; sort it
              // progressively (one active Progressive Quicksort at a
              // time, §3.3).
              active_sorter_.Init(final_.data() + sorted_end_,
                                  fill_pos_ - sorted_end_,
                                  BucketLo(merge_bucket_),
                                  BucketHi(merge_bucket_),
                                  model_.constants().l1_cache_elements);
              active_sorter_.set_sort_unit_scale(
                  model_.constants().sort_unit_scale);
              sorter_active_ = true;
            }
          } else {
            PROGIDX_CHECK(sorter_active_);
            const size_t done =
                active_sorter_.DoWork(elems - used, last_query_hint_);
            used += std::max(done, size_t{1});
            if (active_sorter_.done()) {
              sorter_active_ = false;
              chain.Clear();
              sorted_end_ = fill_pos_;
              merge_bucket_++;
              BeginActiveBucket();
            }
          }
        }
        secs -= static_cast<double>(std::max(used, size_t{1})) * unit;
        break;
      }
      case Phase::kConsolidation: {
        const size_t total_keys =
            std::max(btree_.TotalInternalKeys(), size_t{1});
        const double unit =
            ClampWorkUnit(model_.ConsolidateSecs(options_.btree_fanout) /
                          static_cast<double>(total_keys));
        const size_t keys = UnitsForSecs(secs, unit);
        const size_t used = builder_->DoWork(keys);
        secs -= static_cast<double>(std::max(used, size_t{1})) * unit;
        if (builder_->done()) phase_ = Phase::kDone;
        break;
      }
      case Phase::kDone:
        return;
    }
  }
}

QueryResult ProgressiveBucketsort::Answer(const RangeQuery& q) const {
  QueryResult result;
  const size_t n = column_.size();
  auto add = [&result](const QueryResult& part) {
    result.sum += part.sum;
    result.count += part.count;
  };
  // Chain scans go block-by-block through the dispatched vector kernel.
  auto scan_chain = [&](const BucketChain& chain) { add(chain.RangeSum(q)); };
  switch (phase_) {
    case Phase::kCreation: {
      for (size_t b = 0; b < buckets_.size(); b++) {
        if (BucketHi(b) < q.low || BucketLo(b) > q.high) continue;
        scan_chain(buckets_[b]);
      }
      add(PredicatedRangeSum(column_.data() + copy_pos_, n - copy_pos_, q));
      return result;
    }
    case Phase::kRefinement: {
      // Fully merged, sorted prefix.
      add(SortedRangeSum(final_.data(), sorted_end_, q));
      // Active bucket: either mid-fill or mid-sort.
      if (merge_bucket_ < buckets_.size() &&
          BucketHi(merge_bucket_) >= q.low &&
          BucketLo(merge_bucket_) <= q.high) {
        if (filling_) {
          add(PredicatedRangeSum(final_.data() + sorted_end_,
                                 fill_pos_ - sorted_end_, q));
          add(buckets_[merge_bucket_].RangeSumFrom(fill_cursor_, q));
        } else if (sorter_active_) {
          scratch_ranges_.clear();
          active_sorter_.CollectRanges(q, &scratch_ranges_);
          const value_t* base = final_.data() + sorted_end_;
          for (const ScanRange& r : scratch_ranges_) {
            add(r.sorted ? SortedRangeSum(base + r.start, r.end - r.start, q)
                         : PredicatedRangeSum(base + r.start,
                                              r.end - r.start, q));
          }
        }
      }
      // Pending buckets after the active one.
      for (size_t b = merge_bucket_ + 1; b < buckets_.size(); b++) {
        if (BucketHi(b) < q.low || BucketLo(b) > q.high) continue;
        scan_chain(buckets_[b]);
      }
      return result;
    }
    case Phase::kConsolidation:
    case Phase::kDone:
      return btree_.RangeSum(q);
  }
  return result;
}

void ProgressiveBucketsort::PrepareQuery(const RangeQuery& q) {
  last_query_hint_ = q;
  const Phase phase_at_start = phase_;
  const double op_secs =
      ClampOpSecs(OpSecsForPhase(phase_at_start), column_.size());
  const double answer_est = EstimateAnswerSecs(q);
  double delta = 0;
  if (phase_at_start != Phase::kDone) {
    delta = budget_.DeltaForQuery(op_secs, answer_est);
  }
  const double n = static_cast<double>(column_.size());
  switch (phase_at_start) {
    case Phase::kCreation: {
      const double rho = static_cast<double>(copy_pos_) / n;
      const double alpha =
          answer_est / std::max(model_.BucketScanSecs(), 1e-30);
      predicted_ = model_.BucketsortCreate(rho, std::min(alpha, 1.0), delta);
      // Bucketing runs across the pool; re-price the indexing term with
      // the measured parallel-efficiency curve.
      const double log_b = std::log2(static_cast<double>(buckets_.size()));
      const double bucket_term = delta * log_b * model_.BucketAppendSecs();
      const size_t slice = static_cast<size_t>(delta * n);
      const double bucket_threaded =
          model_.ThreadedSecs(bucket_term, parallel::PlannedLanes(slice));
      predicted_ += bucket_threaded - bucket_term;
      // Batch decomposition: the base-column remainder scan shares
      // across a batch; bucket chain lookups stay per query.
      pred_index_secs_ = bucket_threaded;
      pred_shared_secs_ =
          std::max(1.0 - rho - delta, 0.0) * model_.ScanSecs();
      pred_private_secs_ =
          std::max(predicted_ - pred_index_secs_ - pred_shared_secs_, 0.0);
      pred_shared_elem_secs_ = model_.constants().seq_read_secs;
      break;
    }
    case Phase::kRefinement: {
      const double alpha = answer_est / std::max(model_.ScanSecs(), 1e-30);
      // Atomic-leaf floor (§3.3 reuses the quicksort refinement
      // formula): the active bucket's sorter pays whole-leaf sorts that
      // cannot be split across queries — the dominant term of
      // bucketsort's steady state, which the unfloored prediction
      // undershot once the crack kernel was vectorized.
      const double leaf_secs =
          sorter_active_
              ? static_cast<double>(active_sorter_.NextLeafSortUnits(q)) *
                    model_.SwapSecs() / n
              : 0.0;
      predicted_ = model_.QuicksortRefineWithLeafFloor(
          active_sorter_.height(), std::min(alpha, 1.0), delta, leaf_secs);
      // Candidate chains (and the active bucket's unsorted parts) scan
      // once per batch at the chain rate; the binary search and the
      // sorted-prefix matched scan stay per query.
      const double chain_elem = model_.BucketScanSecs() / n;
      const double chain_secs = est_chain_elems_ * chain_elem;
      pred_index_secs_ = std::max(delta * model_.SwapSecs(), leaf_secs);
      pred_shared_secs_ = chain_secs;
      pred_private_secs_ =
          std::max(predicted_ - pred_index_secs_ - pred_shared_secs_, 0.0);
      pred_shared_elem_secs_ = chain_elem;
      break;
    }
    case Phase::kConsolidation: {
      const double alpha = SelectivityEstimate(q);
      predicted_ = model_.Consolidate(options_.btree_fanout, alpha, delta);
      // Matched leaf runs scan once per batch (exec::BatchBTreeRangeSum).
      pred_index_secs_ =
          delta * model_.ConsolidateSecs(options_.btree_fanout);
      pred_shared_secs_ = alpha * model_.ScanSecs();
      pred_private_secs_ = std::max(
          predicted_ - pred_index_secs_ - pred_shared_secs_, 0.0);
      pred_shared_elem_secs_ = model_.constants().seq_read_secs;
      break;
    }
    case Phase::kDone: {
      const double alpha = SelectivityEstimate(q);
      predicted_ = model_.BinarySearchSecs() + alpha * model_.ScanSecs();
      pred_index_secs_ = 0;
      pred_shared_secs_ = alpha * model_.ScanSecs();
      pred_private_secs_ = std::max(predicted_ - pred_shared_secs_, 0.0);
      pred_shared_elem_secs_ = model_.constants().seq_read_secs;
      break;
    }
  }
  if (delta > 0) DoWorkSecs(delta * op_secs);
}

void ProgressiveBucketsort::SaveState(persist::Writer* w) const {
  w->WriteU64(static_cast<uint64_t>(phase_));
  w->WriteI64(min_);
  w->WriteI64(max_);
  w->WriteValueVector(boundaries_);
  w->WriteU64(copy_pos_);
  // final_ precedes the active sorter: LoadState rebinds the sorter to
  // final_'s reloaded storage.
  w->WriteValueVector(final_);
  w->WriteU64(buckets_.size());
  for (const BucketChain& chain : buckets_) chain.SaveState(w);
  w->WriteU64(merge_bucket_);
  w->WriteU64(sorted_end_);
  w->WriteU64(fill_pos_);
  w->WriteBool(filling_);
  w->WriteU64(fill_cursor_.block);
  w->WriteU64(fill_cursor_.offset);
  w->WriteBool(sorter_active_);
  if (sorter_active_) active_sorter_.SaveState(w);
  budget_.SaveState(w);
  if (phase_ == Phase::kConsolidation || phase_ == Phase::kDone) {
    btree_.SaveState(w);
    builder_->SaveState(w);
  }
}

bool ProgressiveBucketsort::LoadState(persist::Reader* r) {
  const uint64_t phase = r->ReadU64();
  if (!r->ok() || phase > static_cast<uint64_t>(Phase::kDone)) return false;
  min_ = r->ReadI64();
  max_ = r->ReadI64();
  // The snapshot's sampled bounds replace the ctor's: bucket membership
  // of every chain element depends on them.
  if (!r->ReadValueVector(&boundaries_)) return false;
  copy_pos_ = r->ReadU64();
  if (!r->ReadValueVector(&final_)) return false;
  const size_t n = column_.size();
  if (final_.size() != n || copy_pos_ > n ||
      boundaries_.size() >= options_.bucket_count) {
    return false;
  }
  const size_t bucket_count = r->ReadU64();
  if (!r->ok() || bucket_count != buckets_.size()) return false;
  for (BucketChain& chain : buckets_) {
    if (!chain.LoadState(r)) return false;
  }
  merge_bucket_ = r->ReadU64();
  sorted_end_ = r->ReadU64();
  fill_pos_ = r->ReadU64();
  filling_ = r->ReadBool();
  fill_cursor_.block = r->ReadU64();
  fill_cursor_.offset = r->ReadU64();
  sorter_active_ = r->ReadBool();
  if (!r->ok() || merge_bucket_ > buckets_.size() || sorted_end_ > n ||
      fill_pos_ > n || sorted_end_ > fill_pos_) {
    return false;
  }
  if (filling_ && (merge_bucket_ >= buckets_.size() ||
                   !buckets_[merge_bucket_].CursorValid(fill_cursor_))) {
    return false;
  }
  phase_ = static_cast<Phase>(phase);
  if (sorter_active_) {
    if (!active_sorter_.LoadState(r, final_.data() + sorted_end_)) {
      return false;
    }
  }
  if (!budget_.LoadState(r)) return false;
  if (phase_ == Phase::kConsolidation || phase_ == Phase::kDone) {
    if (!btree_.LoadState(r, final_.data()) || btree_.leaf_count() != n) {
      return false;
    }
    builder_ = std::make_unique<ProgressiveBTreeBuilder>(&btree_);
    if (!builder_->LoadState(r)) return false;
  }
  return r->ok();
}

namespace {
const char* PbPhaseName(ProgressiveBucketsort::Phase p) {
  switch (p) {
    case ProgressiveBucketsort::Phase::kCreation: return "creation";
    case ProgressiveBucketsort::Phase::kRefinement: return "refinement";
    case ProgressiveBucketsort::Phase::kConsolidation: return "consolidation";
    case ProgressiveBucketsort::Phase::kDone: return "done";
  }
  return "unknown";
}
}  // namespace

double ProgressiveBucketsort::ConvergenceFraction() const {
  const double n = static_cast<double>(column_.size());
  if (n == 0) return 1.0;
  switch (phase_) {
    case Phase::kCreation:
      return 0.5 * static_cast<double>(copy_pos_) / n;
    case Phase::kRefinement:
      return 0.5 + 0.4 * static_cast<double>(fill_pos_) / n;
    case Phase::kConsolidation:
      return 0.9;
    case Phase::kDone:
      return 1.0;
  }
  return 0.0;
}

QueryResult ProgressiveBucketsort::Query(const RangeQuery& q) {
  if (column_.empty()) return {};
  const Phase phase_at_start = phase_;
  obs::QueryTimer qt;
  QueryResult r;
  {
    obs::TraceScope span("refine", telemetry_.category());
    PrepareQuery(q);
  }
  {
    obs::TraceScope span("shared_scan", telemetry_.category());
    r = Answer(q);
  }
  telemetry_.RecordResidual(PbPhaseName(phase_at_start), predicted_,
                            static_cast<double>(qt.ElapsedNs()) * 1e-9);
  return r;
}

void ProgressiveBucketsort::QueryBatch(const RangeQuery* qs, size_t count,
                                       QueryResult* out) {
  if (count == 0) return;
  if (column_.empty()) {
    std::fill(out, out + count, QueryResult{});
    return;
  }
  const Phase phase_at_start = phase_;
  obs::QueryTimer qt;
  {
    obs::TraceScope span("refine", telemetry_.category());
    PrepareQuery(qs[0]);  // one per-batch indexing budget
  }
  {
    obs::TraceScope span("shared_scan", telemetry_.category());
    AnswerBatch(qs, count, out);
  }
  if (count > 1) {
    predicted_ = model_.BatchPerQuerySecs(
        pred_index_secs_, pred_shared_secs_, pred_private_secs_, count,
        pred_shared_elem_secs_);
  }
  telemetry_.RecordResidual(
      PbPhaseName(phase_at_start), predicted_,
      static_cast<double>(qt.ElapsedNs()) * 1e-9 / static_cast<double>(count));
}

void ProgressiveBucketsort::AnswerBatch(const RangeQuery* qs, size_t count,
                                        QueryResult* out) const {
  std::fill(out, out + count, QueryResult{});
  const size_t n = column_.size();
  switch (phase_) {
    case Phase::kCreation: {
      // Equi-height buckets answer per query (value-range pruning); the
      // uncopied tail of the base column is scanned once for the whole
      // batch.
      for (size_t i = 0; i < count; i++) {
        for (size_t b = 0; b < buckets_.size(); b++) {
          if (BucketHi(b) < qs[i].low || BucketLo(b) > qs[i].high) continue;
          const QueryResult part = buckets_[b].RangeSum(qs[i]);
          out[i].sum += part.sum;
          out[i].count += part.count;
        }
      }
      pset_.Reset(qs, count);
      pset_.Scan(column_.data() + copy_pos_, n - copy_pos_);
      pset_.AccumulateInto(out);
      return;
    }
    case Phase::kRefinement: {
      // Sorted merged prefix: per-query sorted lookups.
      for (size_t i = 0; i < count; i++) {
        const QueryResult part =
            SortedRangeSum(final_.data(), sorted_end_, qs[i]);
        out[i].sum += part.sum;
        out[i].count += part.count;
      }
      // Everything still unrefined scans once for the whole batch: the
      // active bucket's mid-fill region + undrained chain (or its
      // sorter's merged unsorted ranges), plus every pending chain any
      // batch member's value range reaches. A chain outside a query's
      // range holds no values it can match (bucket values are bounded
      // by [BucketLo, BucketHi]), and a pivot-tree range a query did
      // not collect holds none either, so the union scan adds exactly
      // zero for those queries — totals stay bit-identical to the
      // per-query pruned walks.
      pset_.Reset(qs, count);
      scratch_runs_.clear();
      if (merge_bucket_ < buckets_.size()) {
        bool active_candidate = false;
        for (size_t i = 0; i < count && !active_candidate; i++) {
          active_candidate = BucketHi(merge_bucket_) >= qs[i].low &&
                             BucketLo(merge_bucket_) <= qs[i].high;
        }
        if (active_candidate) {
          if (filling_) {
            scratch_runs_.push_back(
                {final_.data() + sorted_end_, fill_pos_ - sorted_end_});
            exec::CollectChainRuns(buckets_[merge_bucket_], fill_cursor_,
                                   &scratch_runs_);
          } else if (sorter_active_) {
            const value_t* base = final_.data() + sorted_end_;
            scratch_pos_ranges_.clear();
            for (size_t i = 0; i < count; i++) {
              if (BucketHi(merge_bucket_) < qs[i].low ||
                  BucketLo(merge_bucket_) > qs[i].high) {
                continue;
              }
              scratch_ranges_.clear();
              active_sorter_.CollectRanges(qs[i], &scratch_ranges_);
              for (const ScanRange& r : scratch_ranges_) {
                if (r.sorted) {
                  const QueryResult part =
                      SortedRangeSum(base + r.start, r.end - r.start, qs[i]);
                  out[i].sum += part.sum;
                  out[i].count += part.count;
                } else {
                  scratch_pos_ranges_.push_back({r.start, r.end});
                }
              }
            }
            exec::MergePosRanges(&scratch_pos_ranges_);
            for (const exec::PosRange& r : scratch_pos_ranges_) {
              scratch_runs_.push_back({base + r.begin, r.end - r.begin});
            }
          }
        }
      }
      for (size_t b = merge_bucket_ + 1; b < buckets_.size(); b++) {
        bool candidate = false;
        for (size_t i = 0; i < count && !candidate; i++) {
          candidate = BucketHi(b) >= qs[i].low && BucketLo(b) <= qs[i].high;
        }
        if (candidate) exec::CollectChainRuns(buckets_[b], &scratch_runs_);
      }
      pset_.ScanRuns(scratch_runs_.data(), scratch_runs_.size());
      pset_.AccumulateInto(out);
      return;
    }
    case Phase::kConsolidation:
    case Phase::kDone: {
      exec::BatchBTreeRangeSum(btree_, qs, count, out, &pset_,
                               &scratch_pos_ranges_);
      return;
    }
  }
}

}  // namespace progidx
