#include "core/progressive_radixsort_lsd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/predication.h"
#include "exec/batch_refine.h"
#include "kernels/kernels.h"
#include "parallel/primitives.h"
#include "persist/io.h"

namespace progidx {
namespace {

int BitsForWidth(uint64_t width) {
  return width == 0 ? 0 : 64 - std::countl_zero(width);
}

}  // namespace

ProgressiveRadixsortLSD::ProgressiveRadixsortLSD(
    const Column& column, const BudgetSpec& budget,
    const ProgressiveOptions& options)
    : column_(column),
      options_(options),
      model_(options.Machine(), column.size(), options.bucket_count,
             options.block_capacity),
      budget_(budget, model_) {
  const size_t n = column_.size();
  min_ = column_.min_value();
  max_ = column_.max_value();
  const int bits = BitsForWidth(static_cast<uint64_t>(max_ - min_));
  // ⌈log2(domain)/log2(64)⌉ passes (§3.4), and at least one.
  total_passes_ = static_cast<size_t>((bits + 5) / 6);
  if (total_passes_ == 0) total_passes_ = 1;
  source_.reserve(64);
  dest_.reserve(64);
  for (size_t i = 0; i < 64; i++) {
    source_.emplace_back(options_.block_capacity);
    dest_.emplace_back(options_.block_capacity);
  }
  final_.resize(n);
  if (n == 0) phase_ = Phase::kDone;
}

bool ProgressiveRadixsortLSD::CandidateDigits(const RangeQuery& q,
                                              size_t pass, size_t* first,
                                              size_t* last) const {
  const value_t lo = std::max(q.low, min_);
  const value_t hi = std::min(q.high, max_);
  if (lo > hi) {  // empty intersection: report bucket 0 only
    *first = 0;
    *last = 0;
    return true;
  }
  const uint64_t shifted_lo = static_cast<uint64_t>(lo - min_) >> (6 * pass);
  const uint64_t shifted_hi = static_cast<uint64_t>(hi - min_) >> (6 * pass);
  if (shifted_hi - shifted_lo >= 63) return false;  // all buckets
  *first = static_cast<size_t>(shifted_lo & 63u);
  *last = static_cast<size_t>(shifted_hi & 63u);
  return true;
}

double ProgressiveRadixsortLSD::OpSecsForPhase(Phase phase) const {
  switch (phase) {
    case Phase::kCreation:
    case Phase::kRefinement:
    case Phase::kMerge:
      return model_.BucketAppendSecs();
    case Phase::kConsolidation:
      return model_.ConsolidateSecs(options_.btree_fanout);
    case Phase::kDone:
      return 0;
  }
  return 0;
}

double ProgressiveRadixsortLSD::SelectivityEstimate(
    const RangeQuery& q) const {
  const double domain = static_cast<double>(max_) -
                        static_cast<double>(min_) + 1.0;
  if (domain <= 0) return 1.0;
  const double width = static_cast<double>(q.high) -
                       static_cast<double>(q.low) + 1.0;
  return std::clamp(width / domain, 0.0, 1.0);
}

QueryResult ProgressiveRadixsortLSD::RangeSumRemainingSource(
    size_t bucket, const RangeQuery& q) const {
  if (bucket < drain_bucket_) return {};  // already fully drained
  if (bucket == drain_bucket_) {
    return source_[bucket].RangeSumFrom(drain_cursor_, q);
  }
  return source_[bucket].RangeSum(q);
}

double ProgressiveRadixsortLSD::EstimateAnswerSecs(
    const RangeQuery& q) const {
  const MachineConstants& mc = model_.constants();
  const size_t n = column_.size();
  const double bucket_elem =
      model_.BucketScanSecs() / static_cast<double>(std::max<size_t>(n, 1));
  switch (phase_) {
    case Phase::kCreation: {
      size_t first = 0;
      size_t last = 0;
      double indexed_elems = 0;
      if (!CandidateDigits(q, 0, &first, &last)) {
        // All buckets are candidates (α == ρ): fall back to scanning
        // the copied prefix of the original column.
        return mc.seq_read_secs * static_cast<double>(n);
      }
      for (size_t b = first;; b = (b + 1) & 63u) {
        indexed_elems += static_cast<double>(source_[b].size());
        if (b == last) break;
      }
      return bucket_elem * indexed_elems +
             mc.seq_read_secs * static_cast<double>(n - copy_pos_);
    }
    case Phase::kRefinement: {
      size_t of = 0;
      size_t ol = 0;
      size_t nf = 0;
      size_t nl = 0;
      const bool old_pruned = CandidateDigits(q, pass_ - 1, &of, &ol);
      const bool new_pruned = CandidateDigits(q, pass_, &nf, &nl);
      if (!old_pruned && !new_pruned) {
        est_chain_elems_ = static_cast<double>(n);  // every chain scans
        return mc.seq_read_secs * static_cast<double>(n);  // fallback
      }
      double elems = 0;
      for (size_t b = 0; b < 64; b++) {
        const bool old_candidate =
            !old_pruned || (of <= ol ? (b >= of && b <= ol)
                                     : (b >= of || b <= ol));
        if (old_candidate && b >= drain_bucket_) {
          elems += static_cast<double>(source_[b].size());
        }
        const bool new_candidate =
            !new_pruned || (nf <= nl ? (b >= nf && b <= nl)
                                     : (b >= nf || b <= nl));
        if (new_candidate) elems += static_cast<double>(dest_[b].size());
      }
      est_chain_elems_ = elems;
      return bucket_elem * elems;
    }
    case Phase::kMerge: {
      size_t first = 0;
      size_t last = 0;
      double elems = 0;
      const bool pruned = CandidateDigits(q, total_passes_ - 1, &first,
                                          &last);
      for (size_t b = drain_bucket_; b < 64; b++) {
        const bool candidate =
            !pruned || (first <= last ? (b >= first && b <= last)
                                      : (b >= first || b <= last));
        if (candidate) elems += static_cast<double>(source_[b].size());
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

void ProgressiveRadixsortLSD::EnterConsolidation() {
  btree_ = BPlusTree(final_.data(), final_.size(), options_.btree_fanout);
  builder_ = std::make_unique<ProgressiveBTreeBuilder>(&btree_);
  phase_ = Phase::kConsolidation;
}

void ProgressiveRadixsortLSD::DoWorkSecs(double secs) {
  const size_t n = column_.size();
  const double unit =
      ClampWorkUnit(model_.BucketAppendSecs() / static_cast<double>(n));
  while (secs > 0 && phase_ != Phase::kDone) {
    switch (phase_) {
      case Phase::kCreation: {
        size_t elems = UnitsForSecs(secs, unit);
        elems = std::min(elems, n - copy_pos_);
        // Pass-0 bucketing: the serial WC-staged chain scatter.
        ScatterToChains(column_.data() + copy_pos_, elems, min_, 0, 63u,
                        source_.data());
        copy_pos_ += elems;
        secs -= static_cast<double>(elems) * unit;
        if (copy_pos_ == n) {
          pass_ = 1;
          drain_bucket_ = 0;
          drain_cursor_ = BucketChain::Cursor{};
          phase_ = pass_ < total_passes_ ? Phase::kRefinement : Phase::kMerge;
        }
        break;
      }
      case Phase::kRefinement: {
        const size_t elems = UnitsForSecs(secs, unit);
        size_t moved = 0;
        const int pass_shift = static_cast<int>(6 * pass_);
        while (moved < elems && drain_bucket_ < 64) {
          BucketChain& bucket = source_[drain_bucket_];
          moved += DrainToChains(bucket, &drain_cursor_, elems - moved, min_,
                                 pass_shift, 63u, dest_.data());
          if (bucket.AtEnd(drain_cursor_)) {
            bucket.Clear();  // free drained blocks eagerly
            drain_bucket_++;
            drain_cursor_ = BucketChain::Cursor{};
          }
        }
        secs -= static_cast<double>(std::max(moved, size_t{1})) * unit;
        if (drain_bucket_ == 64) {
          // Pass complete: the output becomes the next pass's input.
          std::swap(source_, dest_);
          pass_++;
          drain_bucket_ = 0;
          drain_cursor_ = BucketChain::Cursor{};
          if (pass_ >= total_passes_) phase_ = Phase::kMerge;
        }
        break;
      }
      case Phase::kMerge: {
        const size_t elems = UnitsForSecs(secs, unit);
        size_t moved = 0;
        std::vector<parallel::SrcRun> runs;
        while (moved < elems && drain_bucket_ < 64) {
          BucketChain& bucket = source_[drain_bucket_];
          // The final pass leaves each bucket internally ordered;
          // merging is a straight block copy. Gather this bucket's
          // block runs up to the remaining budget and lay them out in
          // one call — big drain slices memcpy across the pool into
          // precomputed disjoint slices, small ones stay serial.
          runs.clear();
          BucketChain::Cursor probe = drain_cursor_;
          size_t batched = 0;
          while (batched < elems - moved && !bucket.AtEnd(probe)) {
            const value_t* run = nullptr;
            size_t len = bucket.ContiguousRun(probe, &run);
            len = std::min(len, elems - moved - batched);
            runs.push_back({run, len});
            bucket.Advance(&probe, len);
            batched += len;
          }
          if (batched > 0) {
            PROGIDX_CHECK(merged_ + batched <= n);
            parallel::CopyRunsTo(runs.data(), runs.size(),
                                 final_.data() + merged_);
            merged_ += batched;
            drain_cursor_ = probe;
            moved += batched;
          }
          if (bucket.AtEnd(drain_cursor_)) {
            bucket.Clear();
            drain_bucket_++;
            drain_cursor_ = BucketChain::Cursor{};
          }
        }
        secs -= static_cast<double>(std::max(moved, size_t{1})) * unit;
        if (drain_bucket_ == 64) {
          PROGIDX_CHECK(merged_ == n);
          EnterConsolidation();
        }
        break;
      }
      case Phase::kConsolidation: {
        const size_t total_keys =
            std::max(btree_.TotalInternalKeys(), size_t{1});
        const double kunit =
            ClampWorkUnit(model_.ConsolidateSecs(options_.btree_fanout) /
                          static_cast<double>(total_keys));
        const size_t keys = UnitsForSecs(secs, kunit);
        const size_t used = builder_->DoWork(keys);
        secs -= static_cast<double>(std::max(used, size_t{1})) * kunit;
        if (builder_->done()) phase_ = Phase::kDone;
        break;
      }
      case Phase::kDone:
        return;
    }
  }
}

QueryResult ProgressiveRadixsortLSD::Answer(const RangeQuery& q) const {
  QueryResult result;
  const size_t n = column_.size();
  // Chain scans go block-by-block through the dispatched vector kernel.
  auto add = [&result](const QueryResult& part) {
    result.sum += part.sum;
    result.count += part.count;
  };
  switch (phase_) {
    case Phase::kCreation: {
      size_t first = 0;
      size_t last = 0;
      if (CandidateDigits(q, 0, &first, &last)) {
        for (size_t b = first;; b = (b + 1) & 63u) {
          add(source_[b].RangeSum(q));
          if (b == last) break;
        }
      } else {
        // α == ρ fallback: the copied prefix of the base column is
        // cheaper to scan than all 64 bucket chains.
        add(PredicatedRangeSum(column_.data(), copy_pos_, q));
      }
      add(PredicatedRangeSum(column_.data() + copy_pos_, n - copy_pos_, q));
      return result;
    }
    case Phase::kRefinement: {
      size_t of = 0;
      size_t ol = 0;
      size_t nf = 0;
      size_t nl = 0;
      const bool old_pruned = CandidateDigits(q, pass_ - 1, &of, &ol);
      const bool new_pruned = CandidateDigits(q, pass_, &nf, &nl);
      for (size_t b = 0; b < 64; b++) {
        const bool old_candidate =
            !old_pruned || (of <= ol ? (b >= of && b <= ol)
                                     : (b >= of || b <= ol));
        if (old_candidate) add(RangeSumRemainingSource(b, q));
        const bool new_candidate =
            !new_pruned || (nf <= nl ? (b >= nf && b <= nl)
                                     : (b >= nf || b <= nl));
        if (new_candidate) add(dest_[b].RangeSum(q));
      }
      return result;
    }
    case Phase::kMerge: {
      add(SortedRangeSum(final_.data(), merged_, q));
      size_t first = 0;
      size_t last = 0;
      const bool pruned =
          CandidateDigits(q, total_passes_ - 1, &first, &last);
      for (size_t b = drain_bucket_; b < 64; b++) {
        const bool candidate =
            !pruned || (first <= last ? (b >= first && b <= last)
                                      : (b >= first || b <= last));
        if (!candidate) continue;
        add(RangeSumRemainingSource(b, q));
      }
      return result;
    }
    case Phase::kConsolidation:
    case Phase::kDone:
      return btree_.RangeSum(q);
  }
  return result;
}

void ProgressiveRadixsortLSD::PrepareQuery(const RangeQuery& q) {
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
      predicted_ = model_.RadixCreate(rho, std::min(alpha, 1.0), delta);
      // Batch decomposition: the base-column remainder scan shares
      // across a batch; the candidate chain lookups stay per query.
      pred_index_secs_ = delta * model_.BucketAppendSecs();
      pred_shared_secs_ =
          std::max(1.0 - rho - delta, 0.0) * model_.ScanSecs();
      pred_private_secs_ =
          std::max(predicted_ - pred_index_secs_ - pred_shared_secs_, 0.0);
      pred_shared_elem_secs_ = model_.constants().seq_read_secs;
      break;
    }
    case Phase::kRefinement: {
      const double alpha =
          answer_est / std::max(model_.BucketScanSecs(), 1e-30);
      predicted_ = model_.RadixRefine(std::min(alpha, 1.0), delta);
      // The union of candidate chains scans once per batch at the
      // chain rate (exec::PredicateSet::ScanRuns).
      const double chain_elem = model_.BucketScanSecs() / n;
      const double chain_secs = est_chain_elems_ * chain_elem;
      pred_index_secs_ = delta * model_.BucketAppendSecs();
      pred_shared_secs_ = chain_secs;
      pred_private_secs_ =
          std::max(predicted_ - pred_index_secs_ - pred_shared_secs_, 0.0);
      pred_shared_elem_secs_ = chain_elem;
      break;
    }
    case Phase::kMerge: {
      // The merge copies whole block runs — parallel across runs; the
      // remaining candidate chains scan once per batch, the sorted
      // prefix per query.
      const double alpha =
          answer_est / std::max(model_.BucketScanSecs(), 1e-30);
      predicted_ = model_.RadixRefine(std::min(alpha, 1.0), delta);
      const double chain_elem = model_.BucketScanSecs() / n;
      const double chain_secs = est_chain_elems_ * chain_elem;
      pred_index_secs_ = delta * model_.BucketAppendSecs();
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

namespace {
const char* LsdPhaseName(ProgressiveRadixsortLSD::Phase p) {
  switch (p) {
    case ProgressiveRadixsortLSD::Phase::kCreation: return "creation";
    case ProgressiveRadixsortLSD::Phase::kRefinement: return "refinement";
    case ProgressiveRadixsortLSD::Phase::kMerge: return "merge";
    case ProgressiveRadixsortLSD::Phase::kConsolidation:
      return "consolidation";
    case ProgressiveRadixsortLSD::Phase::kDone: return "done";
  }
  return "unknown";
}
}  // namespace

double ProgressiveRadixsortLSD::ConvergenceFraction() const {
  const double n = static_cast<double>(column_.size());
  if (n == 0) return 1.0;
  switch (phase_) {
    case Phase::kCreation:
      return 0.4 * static_cast<double>(copy_pos_) / n;
    case Phase::kRefinement: {
      // Progress through the LSD passes (pass_ counts 1..total_passes).
      const double passes = static_cast<double>(total_passes_);
      return 0.4 + 0.3 * (static_cast<double>(pass_) - 1.0) /
                       (passes > 1 ? passes : 1.0);
    }
    case Phase::kMerge:
      return 0.7 + 0.2 * static_cast<double>(merged_) / n;
    case Phase::kConsolidation:
      return 0.9;
    case Phase::kDone:
      return 1.0;
  }
  return 0.0;
}

QueryResult ProgressiveRadixsortLSD::Query(const RangeQuery& q) {
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
  telemetry_.RecordResidual(LsdPhaseName(phase_at_start), predicted_,
                            static_cast<double>(qt.ElapsedNs()) * 1e-9);
  return r;
}

void ProgressiveRadixsortLSD::QueryBatch(const RangeQuery* qs, size_t count,
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
      LsdPhaseName(phase_at_start), predicted_,
      static_cast<double>(qt.ElapsedNs()) * 1e-9 / static_cast<double>(count));
}

namespace {

/// Union of one query's candidate buckets into a 64-bit mask (bit b =
/// bucket b must be scanned). `pruned` false means all 64.
uint64_t CandidateMask(bool pruned, size_t first, size_t last) {
  if (!pruned) return ~uint64_t{0};
  uint64_t mask = 0;
  for (size_t b = first;; b = (b + 1) & 63u) {
    mask |= uint64_t{1} << b;
    if (b == last) break;
  }
  return mask;
}

}  // namespace

void ProgressiveRadixsortLSD::AnswerBatch(const RangeQuery* qs, size_t count,
                                          QueryResult* out) const {
  std::fill(out, out + count, QueryResult{});
  if (phase_ == Phase::kRefinement) {
    // Both generations of chains scan once for the whole batch, over
    // the union of every member's candidate buckets. A chain outside a
    // query's candidate range cannot hold values in its [low, high]
    // (the digit-clustering invariant CandidateDigits prunes by), so
    // the union scan adds exactly zero for that query and totals stay
    // bit-identical to the per-query pruned walks.
    uint64_t old_mask = 0;
    uint64_t new_mask = 0;
    for (size_t i = 0; i < count; i++) {
      size_t f = 0;
      size_t l = 0;
      const bool old_pruned = CandidateDigits(qs[i], pass_ - 1, &f, &l);
      old_mask |= CandidateMask(old_pruned, f, l);
      const bool new_pruned = CandidateDigits(qs[i], pass_, &f, &l);
      new_mask |= CandidateMask(new_pruned, f, l);
    }
    pset_.Reset(qs, count);
    scratch_runs_.clear();
    for (size_t b = 0; b < 64; b++) {
      if ((old_mask >> b & 1) != 0 && b >= drain_bucket_) {
        if (b == drain_bucket_) {
          exec::CollectChainRuns(source_[b], drain_cursor_, &scratch_runs_);
        } else {
          exec::CollectChainRuns(source_[b], &scratch_runs_);
        }
      }
      if ((new_mask >> b & 1) != 0) {
        exec::CollectChainRuns(dest_[b], &scratch_runs_);
      }
    }
    pset_.ScanRuns(scratch_runs_.data(), scratch_runs_.size());
    pset_.AccumulateInto(out);
    return;
  }
  if (phase_ == Phase::kMerge) {
    // Sorted merged prefix per query; the remaining source chains scan
    // once over the union of candidates.
    for (size_t i = 0; i < count; i++) {
      const QueryResult part = SortedRangeSum(final_.data(), merged_, qs[i]);
      out[i].sum += part.sum;
      out[i].count += part.count;
    }
    uint64_t mask = 0;
    for (size_t i = 0; i < count; i++) {
      size_t f = 0;
      size_t l = 0;
      const bool pruned = CandidateDigits(qs[i], total_passes_ - 1, &f, &l);
      mask |= CandidateMask(pruned, f, l);
    }
    pset_.Reset(qs, count);
    scratch_runs_.clear();
    for (size_t b = drain_bucket_; b < 64; b++) {
      if ((mask >> b & 1) == 0) continue;
      if (b == drain_bucket_) {
        exec::CollectChainRuns(source_[b], drain_cursor_, &scratch_runs_);
      } else {
        exec::CollectChainRuns(source_[b], &scratch_runs_);
      }
    }
    pset_.ScanRuns(scratch_runs_.data(), scratch_runs_.size());
    pset_.AccumulateInto(out);
    return;
  }
  if (phase_ == Phase::kConsolidation || phase_ == Phase::kDone) {
    exec::BatchBTreeRangeSum(btree_, qs, count, out, &pset_,
                             &scratch_pos_ranges_);
    return;
  }
  // Creation: candidate pass-0 buckets answer per query; queries whose
  // digit range covers all 64 buckets (the α == ρ fallback) share one
  // scan of the copied prefix; and all queries share one scan of the
  // uncopied tail — the dominant pre-convergence cost, paid once per
  // batch instead of once per query.
  const size_t n = column_.size();
  std::vector<RangeQuery>& fallback_qs = scratch_fallback_qs_;
  std::vector<size_t>& fallback_idx = scratch_fallback_idx_;
  fallback_qs.clear();
  fallback_idx.clear();
  for (size_t i = 0; i < count; i++) {
    size_t first = 0;
    size_t last = 0;
    if (CandidateDigits(qs[i], 0, &first, &last)) {
      for (size_t b = first;; b = (b + 1) & 63u) {
        const QueryResult part = source_[b].RangeSum(qs[i]);
        out[i].sum += part.sum;
        out[i].count += part.count;
        if (b == last) break;
      }
    } else {
      fallback_qs.push_back(qs[i]);
      fallback_idx.push_back(i);
    }
  }
  if (!fallback_qs.empty()) {
    pset_.Reset(fallback_qs.data(), fallback_qs.size());
    pset_.Scan(column_.data(), copy_pos_);
    std::vector<QueryResult>& partial = scratch_partial_;
    partial.assign(fallback_qs.size(), QueryResult{});
    pset_.AccumulateInto(partial.data());
    for (size_t j = 0; j < fallback_idx.size(); j++) {
      out[fallback_idx[j]].sum += partial[j].sum;
      out[fallback_idx[j]].count += partial[j].count;
    }
  }
  pset_.Reset(qs, count);
  pset_.Scan(column_.data() + copy_pos_, n - copy_pos_);
  pset_.AccumulateInto(out);
}

void ProgressiveRadixsortLSD::SaveState(persist::Writer* w) const {
  w->WriteU64(static_cast<uint64_t>(phase_));
  w->WriteI64(min_);
  w->WriteI64(max_);
  w->WriteU64(total_passes_);
  w->WriteU64(copy_pos_);
  w->WriteU64(pass_);
  w->WriteU64(drain_bucket_);
  w->WriteU64(drain_cursor_.block);
  w->WriteU64(drain_cursor_.offset);
  w->WriteU64(merged_);
  budget_.SaveState(w);
  // Only the live machinery of the current phase: both chain
  // generations exist until the merge finishes, after which everything
  // lives in final_ and the tree under construction.
  if (phase_ == Phase::kCreation || phase_ == Phase::kRefinement ||
      phase_ == Phase::kMerge) {
    w->WriteU64(source_.size());
    for (const BucketChain& chain : source_) chain.SaveState(w);
    w->WriteU64(dest_.size());
    for (const BucketChain& chain : dest_) chain.SaveState(w);
  }
  if (phase_ == Phase::kMerge) {
    w->WriteValueVector(final_);
  }
  if (phase_ == Phase::kConsolidation || phase_ == Phase::kDone) {
    w->WriteValueVector(final_);
    btree_.SaveState(w);
    builder_->SaveState(w);
  }
}

bool ProgressiveRadixsortLSD::LoadState(persist::Reader* r) {
  const uint64_t phase = r->ReadU64();
  if (!r->ok() || phase > static_cast<uint64_t>(Phase::kDone)) return false;
  min_ = r->ReadI64();
  max_ = r->ReadI64();
  total_passes_ = r->ReadU64();
  copy_pos_ = r->ReadU64();
  pass_ = r->ReadU64();
  drain_bucket_ = r->ReadU64();
  drain_cursor_.block = r->ReadU64();
  drain_cursor_.offset = r->ReadU64();
  merged_ = r->ReadU64();
  if (!budget_.LoadState(r)) return false;
  const size_t n = column_.size();
  if (min_ > max_ || total_passes_ == 0 || total_passes_ > 11 ||
      copy_pos_ > n || pass_ > total_passes_ || drain_bucket_ > 64 ||
      merged_ > n) {
    return false;
  }
  phase_ = static_cast<Phase>(phase);
  if (phase_ == Phase::kCreation || phase_ == Phase::kRefinement ||
      phase_ == Phase::kMerge) {
    if (r->ReadU64() != source_.size()) return false;
    for (BucketChain& chain : source_) {
      if (!chain.LoadState(r)) return false;
    }
    if (r->ReadU64() != dest_.size()) return false;
    for (BucketChain& chain : dest_) {
      if (!chain.LoadState(r)) return false;
    }
    // The drain cursor must point into the bucket being drained (or be
    // the fresh cursor when no drain is in progress).
    if (drain_bucket_ < source_.size() &&
        !source_[drain_bucket_].CursorValid(drain_cursor_)) {
      return false;
    }
    // Element conservation: every column value sits in exactly one
    // place. Drained source buckets are empty; the merge's bounds check
    // would abort on a snapshot whose counts disagree.
    size_t undrained = 0;
    for (size_t b = 0; b < source_.size(); b++) {
      if (b < drain_bucket_) {
        if (!source_[b].empty()) return false;
      } else {
        undrained += b == drain_bucket_ ? source_[b].Remaining(drain_cursor_)
                                        : source_[b].size();
      }
    }
    size_t dest_total = 0;
    for (const BucketChain& chain : dest_) dest_total += chain.size();
    const bool conserved =
        phase_ == Phase::kCreation
            ? dest_total == 0 && undrained == copy_pos_
        : phase_ == Phase::kRefinement
            ? undrained + dest_total == n
            : dest_total == 0 && merged_ + undrained == n;
    if (!conserved) return false;
  }
  if (phase_ == Phase::kMerge) {
    if (!r->ReadValueVector(&final_) || final_.size() != n) return false;
  }
  if (phase_ == Phase::kConsolidation || phase_ == Phase::kDone) {
    if (!r->ReadValueVector(&final_) || final_.size() != n) return false;
    if (!btree_.LoadState(r, final_.data()) || btree_.leaf_count() != n) {
      return false;
    }
    builder_ = std::make_unique<ProgressiveBTreeBuilder>(&btree_);
    if (!builder_->LoadState(r)) return false;
  }
  return r->ok();
}

}  // namespace progidx
