#include "core/progressive_radixsort_msd.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/predication.h"
#include "exec/batch_refine.h"
#include "kernels/kernels.h"
#include "persist/io.h"

namespace progidx {
namespace {

/// Number of bits needed to represent values in [0, width].
int BitsForWidth(uint64_t width) {
  return width == 0 ? 0 : 64 - std::countl_zero(width);
}

}  // namespace

ProgressiveRadixsortMSD::ProgressiveRadixsortMSD(
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
  // b = 64 root buckets keyed by the top 6 bits of the value domain.
  const int radix_bits =
      BitsForWidth(static_cast<uint64_t>(options_.bucket_count) - 1);
  root_shift_ = bits > radix_bits ? bits - radix_bits : 0;
  root_mask_ = (1u << radix_bits) - 1;
  root_buckets_.reserve(options_.bucket_count);
  for (size_t i = 0; i < options_.bucket_count; i++) {
    root_buckets_.emplace_back(options_.block_capacity);
  }
  final_.resize(n);
  if (n == 0) phase_ = Phase::kDone;
}

double ProgressiveRadixsortMSD::OpSecsForPhase(Phase phase) const {
  switch (phase) {
    case Phase::kCreation:
    case Phase::kRefinement:
      return model_.BucketAppendSecs();
    case Phase::kConsolidation:
      return model_.ConsolidateSecs(options_.btree_fanout);
    case Phase::kDone:
      return 0;
  }
  return 0;
}

double ProgressiveRadixsortMSD::SelectivityEstimate(
    const RangeQuery& q) const {
  const double domain = static_cast<double>(max_) -
                        static_cast<double>(min_) + 1.0;
  if (domain <= 0) return 1.0;
  const double width = static_cast<double>(q.high) -
                       static_cast<double>(q.low) + 1.0;
  return std::clamp(width / domain, 0.0, 1.0);
}

double ProgressiveRadixsortMSD::EstimateAnswerSecs(
    const RangeQuery& q) const {
  const MachineConstants& mc = model_.constants();
  const size_t n = column_.size();
  // Per-element cost of scanning a linked-block bucket.
  const double bucket_elem =
      model_.BucketScanSecs() / static_cast<double>(std::max<size_t>(n, 1));
  switch (phase_) {
    case Phase::kCreation: {
      double elems = 0;
      if (q.high >= min_ && q.low <= max_) {
        const size_t b_lo = RootBucketOf(std::max(q.low, min_));
        const size_t b_hi = RootBucketOf(std::min(q.high, max_));
        for (size_t b = b_lo; b <= b_hi; b++) {
          elems += static_cast<double>(root_buckets_[b].size());
        }
      }
      return bucket_elem * elems +
             mc.seq_read_secs * static_cast<double>(n - copy_pos_);
    }
    case Phase::kRefinement: {
      double elems = 0;
      for (const PendingBucket& p : pending_) {
        if (p.hi_value < q.low || p.lo_value > q.high) continue;
        elems += static_cast<double>(p.chain.size());
        for (const BucketChain& c : p.children) {
          elems += static_cast<double>(c.size());
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

void ProgressiveRadixsortMSD::EnterConsolidation() {
  btree_ = BPlusTree(final_.data(), final_.size(), options_.btree_fanout);
  builder_ = std::make_unique<ProgressiveBTreeBuilder>(&btree_);
  phase_ = Phase::kConsolidation;
}

size_t ProgressiveRadixsortMSD::RefineFront(size_t budget) {
  PendingBucket& front = pending_.front();
  const size_t l1 = model_.constants().l1_cache_elements;
  if (!front.splitting &&
      (front.shift == 0 || front.chain.size() <= l1)) {
    // Sort the bucket and merge it into the final array. Atomic unit of
    // work (bounded by L1 size), as in §3.2: buckets that fit in cache
    // are "immediately insert[ed] ... in sorted order into the final
    // sorted array".
    const size_t size = front.chain.size();
    PROGIDX_CHECK(merged_ + size <= final_.size());
    front.chain.CopyTo(final_.data() + merged_);
    std::sort(final_.begin() + static_cast<int64_t>(merged_),
              final_.begin() + static_cast<int64_t>(merged_ + size));
    merged_ += size;
    pending_.pop_front();
    // Copy is linear but the sort costs O(size·log2(size)); charge the
    // log factor so budget adherence survives the merge stage.
    size_t log2_size = 1;
    while ((size >> log2_size) > 1) log2_size++;
    return std::max(size * log2_size, size_t{1});
  }
  // Split by the next 6 bits into child buckets; resumable mid-drain.
  const int child_shift = front.shift >= 6 ? front.shift - 6 : 0;
  const size_t child_count =
      front.shift >= 6 ? 64 : (size_t{1} << front.shift);
  if (!front.splitting) {
    front.splitting = true;
    front.children.reserve(child_count);
    for (size_t i = 0; i < child_count; i++) {
      front.children.emplace_back(options_.block_capacity);
    }
    front.cursor = BucketChain::Cursor{};
  }
  // Child index = (v − lo_value) >> child_shift, always < 64.
  const size_t moved =
      DrainToChains(front.chain, &front.cursor, budget, front.lo_value,
                    child_shift, 63u, front.children.data());
  if (front.chain.AtEnd(front.cursor)) {
    // Split complete: replace the front bucket by its non-empty
    // children, preserving value order.
    std::vector<PendingBucket> children;
    children.reserve(child_count);
    for (size_t i = 0; i < child_count; i++) {
      if (front.children[i].empty()) continue;
      PendingBucket child;
      child.lo_value =
          front.lo_value + static_cast<value_t>(i) *
                               (static_cast<value_t>(1) << child_shift);
      child.hi_value =
          child.lo_value + (static_cast<value_t>(1) << child_shift) - 1;
      child.shift = child_shift;
      child.chain = std::move(front.children[i]);
      children.push_back(std::move(child));
    }
    pending_.pop_front();
    for (size_t i = children.size(); i-- > 0;) {
      pending_.push_front(std::move(children[i]));
    }
  }
  return std::max(moved, size_t{1});
}

void ProgressiveRadixsortMSD::DoWorkSecs(double secs) {
  const size_t n = column_.size();
  while (secs > 0 && phase_ != Phase::kDone) {
    switch (phase_) {
      case Phase::kCreation: {
        const double unit =
            ClampWorkUnit(model_.BucketAppendSecs() / static_cast<double>(n));
        size_t elems = UnitsForSecs(secs, unit);
        elems = std::min(elems, n - copy_pos_);
        // Root bucketing through the serial WC-staged chain scatter.
        // root_mask_ is the identity on every id (the domain bounds the
        // shifted value below 2^radix_bits), but its width tells the
        // scatter how many chains exist, which enables WC staging.
        ScatterToChains(column_.data() + copy_pos_, elems, min_, root_shift_,
                        root_mask_, root_buckets_.data());
        copy_pos_ += elems;
        secs -= static_cast<double>(elems) * unit;
        if (copy_pos_ == n) {
          // Creation done: seed the refinement worklist with the root
          // buckets in value order.
          for (size_t i = 0; i < root_buckets_.size(); i++) {
            if (root_buckets_[i].empty()) continue;
            PendingBucket p;
            p.lo_value = min_ + static_cast<value_t>(i) *
                                    (static_cast<value_t>(1) << root_shift_);
            p.hi_value = p.lo_value +
                         (static_cast<value_t>(1) << root_shift_) - 1;
            p.shift = root_shift_;
            p.chain = std::move(root_buckets_[i]);
            pending_.push_back(std::move(p));
          }
          root_buckets_.clear();
          phase_ = Phase::kRefinement;
          if (pending_.empty()) EnterConsolidation();
        }
        break;
      }
      case Phase::kRefinement: {
        const double unit =
            ClampWorkUnit(model_.BucketAppendSecs() / static_cast<double>(n));
        const size_t elems = UnitsForSecs(secs, unit);
        size_t used = 0;
        while (used < elems && !pending_.empty()) {
          used += RefineFront(elems - used);
        }
        secs -= static_cast<double>(std::max(used, size_t{1})) * unit;
        if (pending_.empty()) {
          PROGIDX_CHECK(merged_ == n);
          EnterConsolidation();
        }
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

QueryResult ProgressiveRadixsortMSD::Answer(const RangeQuery& q) const {
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
      if (q.high >= min_ && q.low <= max_) {
        const size_t b_lo = RootBucketOf(std::max(q.low, min_));
        const size_t b_hi = RootBucketOf(std::min(q.high, max_));
        for (size_t b = b_lo; b <= b_hi; b++) scan_chain(root_buckets_[b]);
      }
      add(PredicatedRangeSum(column_.data() + copy_pos_, n - copy_pos_, q));
      return result;
    }
    case Phase::kRefinement: {
      // Sorted, merged prefix of the final array...
      add(SortedRangeSum(final_.data(), merged_, q));
      // ...plus every pending bucket whose value range intersects.
      for (const PendingBucket& p : pending_) {
        if (p.hi_value < q.low || p.lo_value > q.high) continue;
        // Remaining source elements (not yet moved by a split)...
        if (p.splitting) {
          add(p.chain.RangeSumFrom(p.cursor, q));
          // ...and the children already populated by the split.
          const int child_shift = p.shift >= 6 ? p.shift - 6 : 0;
          for (size_t i = 0; i < p.children.size(); i++) {
            const value_t c_lo =
                p.lo_value + static_cast<value_t>(i) *
                                 (static_cast<value_t>(1) << child_shift);
            const value_t c_hi =
                c_lo + (static_cast<value_t>(1) << child_shift) - 1;
            if (c_hi < q.low || c_lo > q.high) continue;
            scan_chain(p.children[i]);
          }
        } else {
          scan_chain(p.chain);
        }
      }
      return result;
    }
    case Phase::kConsolidation:
    case Phase::kDone:
      return btree_.RangeSum(q);
  }
  return result;
}

void ProgressiveRadixsortMSD::PrepareQuery(const RangeQuery& q) {
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
      // across a batch; root-bucket chain lookups stay per query.
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
      // Candidate pending chains scan once per batch at the chain rate
      // (exec::PredicateSet::ScanRuns); the binary search and the
      // sorted-prefix matched scan stay per query.
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
const char* MsdPhaseName(ProgressiveRadixsortMSD::Phase p) {
  switch (p) {
    case ProgressiveRadixsortMSD::Phase::kCreation: return "creation";
    case ProgressiveRadixsortMSD::Phase::kRefinement: return "refinement";
    case ProgressiveRadixsortMSD::Phase::kConsolidation:
      return "consolidation";
    case ProgressiveRadixsortMSD::Phase::kDone: return "done";
  }
  return "unknown";
}
}  // namespace

double ProgressiveRadixsortMSD::ConvergenceFraction() const {
  const double n = static_cast<double>(column_.size());
  if (n == 0) return 1.0;
  switch (phase_) {
    case Phase::kCreation:
      return 0.5 * static_cast<double>(copy_pos_) / n;
    case Phase::kRefinement:
      return 0.5 + 0.4 * static_cast<double>(merged_) / n;
    case Phase::kConsolidation:
      return 0.9;
    case Phase::kDone:
      return 1.0;
  }
  return 0.0;
}

QueryResult ProgressiveRadixsortMSD::Query(const RangeQuery& q) {
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
  telemetry_.RecordResidual(MsdPhaseName(phase_at_start), predicted_,
                            static_cast<double>(qt.ElapsedNs()) * 1e-9);
  return r;
}

void ProgressiveRadixsortMSD::QueryBatch(const RangeQuery* qs, size_t count,
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
      MsdPhaseName(phase_at_start), predicted_,
      static_cast<double>(qt.ElapsedNs()) * 1e-9 / static_cast<double>(count));
}

void ProgressiveRadixsortMSD::AnswerBatch(const RangeQuery* qs, size_t count,
                                          QueryResult* out) const {
  std::fill(out, out + count, QueryResult{});
  if (phase_ == Phase::kRefinement) {
    // Sorted merged prefix per query; every pending bucket (and split
    // child) whose value range any batch member reaches scans once for
    // the whole batch. Pending buckets are value-bounded
    // ([lo_value, hi_value]), so the union scan adds exactly zero for
    // queries the per-query path would have pruned — totals stay
    // bit-identical to the per-query walks.
    for (size_t i = 0; i < count; i++) {
      const QueryResult part = SortedRangeSum(final_.data(), merged_, qs[i]);
      out[i].sum += part.sum;
      out[i].count += part.count;
    }
    auto any_intersect = [&](value_t lo, value_t hi) {
      for (size_t i = 0; i < count; i++) {
        if (hi >= qs[i].low && lo <= qs[i].high) return true;
      }
      return false;
    };
    pset_.Reset(qs, count);
    scratch_runs_.clear();
    for (const PendingBucket& p : pending_) {
      if (!any_intersect(p.lo_value, p.hi_value)) continue;
      if (p.splitting) {
        exec::CollectChainRuns(p.chain, p.cursor, &scratch_runs_);
        const int child_shift = p.shift >= 6 ? p.shift - 6 : 0;
        for (size_t i = 0; i < p.children.size(); i++) {
          const value_t c_lo =
              p.lo_value + static_cast<value_t>(i) *
                               (static_cast<value_t>(1) << child_shift);
          const value_t c_hi =
              c_lo + (static_cast<value_t>(1) << child_shift) - 1;
          if (!any_intersect(c_lo, c_hi)) continue;
          exec::CollectChainRuns(p.children[i], &scratch_runs_);
        }
      } else {
        exec::CollectChainRuns(p.chain, &scratch_runs_);
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
  // Creation: candidate root buckets answer per query; the uncopied
  // tail of the base column — the dominant pre-convergence cost — is
  // scanned once for the whole batch.
  const size_t n = column_.size();
  for (size_t i = 0; i < count; i++) {
    if (qs[i].high < min_ || qs[i].low > max_) continue;
    const size_t b_lo = RootBucketOf(std::max(qs[i].low, min_));
    const size_t b_hi = RootBucketOf(std::min(qs[i].high, max_));
    for (size_t b = b_lo; b <= b_hi; b++) {
      const QueryResult part = root_buckets_[b].RangeSum(qs[i]);
      out[i].sum += part.sum;
      out[i].count += part.count;
    }
  }
  pset_.Reset(qs, count);
  pset_.Scan(column_.data() + copy_pos_, n - copy_pos_);
  pset_.AccumulateInto(out);
}

void ProgressiveRadixsortMSD::SaveState(persist::Writer* w) const {
  w->WriteU64(static_cast<uint64_t>(phase_));
  w->WriteI64(min_);
  w->WriteI64(max_);
  w->WriteI64(root_shift_);
  w->WriteU64(root_mask_);
  w->WriteU64(copy_pos_);
  w->WriteU64(merged_);
  budget_.SaveState(w);
  // Only the live machinery of the current phase: the root buckets are
  // moved into the pending worklist when creation ends, and everything
  // lives in final_ once refinement completes.
  if (phase_ == Phase::kCreation) {
    w->WriteU64(root_buckets_.size());
    for (const BucketChain& chain : root_buckets_) chain.SaveState(w);
  }
  if (phase_ == Phase::kRefinement) {
    w->WriteValueVector(final_);
    w->WriteU64(pending_.size());
    for (const PendingBucket& p : pending_) {
      w->WriteI64(p.lo_value);
      w->WriteI64(p.hi_value);
      w->WriteI64(p.shift);
      p.chain.SaveState(w);
      w->WriteBool(p.splitting);
      w->WriteU64(p.cursor.block);
      w->WriteU64(p.cursor.offset);
      w->WriteU64(p.children.size());
      for (const BucketChain& child : p.children) child.SaveState(w);
    }
  }
  if (phase_ == Phase::kConsolidation || phase_ == Phase::kDone) {
    w->WriteValueVector(final_);
    btree_.SaveState(w);
    builder_->SaveState(w);
  }
}

bool ProgressiveRadixsortMSD::LoadState(persist::Reader* r) {
  const uint64_t phase = r->ReadU64();
  if (!r->ok() || phase > static_cast<uint64_t>(Phase::kDone)) return false;
  min_ = r->ReadI64();
  max_ = r->ReadI64();
  const int64_t root_shift = r->ReadI64();
  root_mask_ = r->ReadU32();
  copy_pos_ = r->ReadU64();
  merged_ = r->ReadU64();
  if (!budget_.LoadState(r)) return false;
  const size_t n = column_.size();
  if (min_ > max_ || root_shift < 0 || root_shift > 63 || copy_pos_ > n ||
      merged_ > n) {
    return false;
  }
  root_shift_ = static_cast<int>(root_shift);
  phase_ = static_cast<Phase>(phase);
  if (phase_ == Phase::kCreation) {
    if (r->ReadU64() != root_buckets_.size()) return false;
    size_t bucketed = 0;
    for (BucketChain& chain : root_buckets_) {
      if (!chain.LoadState(r)) return false;
      bucketed += chain.size();
    }
    if (bucketed != copy_pos_) return false;
  } else {
    // Creation's end moves every root bucket into pending_ and clears
    // the vector; match that so recovered saves stay byte-identical.
    root_buckets_.clear();
  }
  if (phase_ == Phase::kRefinement) {
    if (!r->ReadValueVector(&final_) || final_.size() != n) return false;
    const uint64_t pending_count = r->ReadU64();
    if (!r->ok() || pending_count > n) return false;
    pending_.clear();
    // Element conservation: merged values plus every pending bucket's
    // undrained elements and split children account for the column.
    size_t held = merged_;
    for (uint64_t i = 0; i < pending_count; i++) {
      PendingBucket p;
      p.chain = BucketChain(options_.block_capacity);
      p.lo_value = r->ReadI64();
      p.hi_value = r->ReadI64();
      const int64_t shift = r->ReadI64();
      if (!p.chain.LoadState(r)) return false;
      p.splitting = r->ReadBool();
      p.cursor.block = r->ReadU64();
      p.cursor.offset = r->ReadU64();
      const uint64_t child_count = r->ReadU64();
      if (!r->ok() || p.lo_value > p.hi_value || shift < 0 || shift > 63 ||
          child_count > 64) {
        return false;
      }
      p.shift = static_cast<int>(shift);
      // The split cursor must point into the chain being drained; an
      // idle bucket carries the fresh cursor and no children.
      // A split drains into exactly the children RefineFront creates.
      if (p.splitting) {
        const uint64_t split_children =
            shift >= 6 ? 64 : uint64_t{1} << shift;
        if (!p.chain.CursorValid(p.cursor) || child_count != split_children) {
          return false;
        }
      } else if (child_count != 0 || p.cursor.block != 0 ||
                 p.cursor.offset != 0) {
        return false;
      }
      held += p.chain.Remaining(p.cursor);
      for (uint64_t c = 0; c < child_count; c++) {
        BucketChain child(options_.block_capacity);
        if (!child.LoadState(r)) return false;
        held += child.size();
        p.children.push_back(std::move(child));
      }
      pending_.push_back(std::move(p));
    }
    if (held != n) return false;
  }
  if (phase_ == Phase::kConsolidation || phase_ == Phase::kDone) {
    pending_.clear();
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
