#include "common/deadline.h"

namespace mcsm {

const char* BudgetTripName(BudgetTrip trip) {
  switch (trip) {
    case BudgetTrip::kNone:
      return "none";
    case BudgetTrip::kWallClock:
      return "wall-clock";
    case BudgetTrip::kPostings:
      return "postings";
    case BudgetTrip::kPairs:
      return "pairs";
    case BudgetTrip::kFormulas:
      return "formulas";
    case BudgetTrip::kCancelled:
      return "cancelled";
    case BudgetTrip::kRows:
      return "rows";
  }
  return "unknown";
}

RunBudget::RunBudget(const BudgetLimits& limits) : limits_(limits) {
  if (limits_.wall_ms > 0) {
    has_deadline_ = true;
    deadline_ = Clock::now() + std::chrono::milliseconds(limits_.wall_ms);
  }
}

RunBudget::RunBudget(RunBudget* parent)
    : parent_(parent),
      limits_(parent->limits_),
      postings_scanned_(parent->postings_scanned()),
      pairs_aligned_(parent->pairs_aligned()),
      candidate_formulas_(parent->candidate_formulas()),
      rows_translated_(parent->rows_translated()) {}

RunBudget RunBudget::ForMillis(int64_t wall_ms) {
  BudgetLimits limits;
  limits.wall_ms = wall_ms;
  return RunBudget(limits);
}

void RunBudget::TripOnce(BudgetTrip axis) {
  BudgetTrip expected = BudgetTrip::kNone;
  // ordering: relaxed — the trip is a pure control flag: no data is
  // published through it (each worker's partial results reach the merge via
  // ThreadPool::ParallelFor's acq_rel barrier), and relaxed CAS keeps
  // Cancel() async-signal-safe. Audited 2026-08: no acquire/release upgrade
  // needed; the CAS alone guarantees exactly one winning axis.
  trip_.compare_exchange_strong(expected, axis, std::memory_order_relaxed);
}

bool RunBudget::CheckDeadline() {
  // ordering: relaxed — sticky-flag read; a stale kNone only delays the stop
  // by one charge, it cannot un-trip the budget.
  if (trip_.load(std::memory_order_relaxed) != BudgetTrip::kNone) return false;
  if (parent_ != nullptr && parent_->Exhausted()) return false;
  if (has_deadline_ && Clock::now() >= deadline_) {
    TripOnce(BudgetTrip::kWallClock);
    return false;
  }
  return true;
}

bool RunBudget::ChargePostings(uint64_t n) {
  // ordering: relaxed — only the accumulated total matters; no thread reads
  // other data through this counter (same for the two charges below).
  const uint64_t total =
      postings_scanned_.fetch_add(n, std::memory_order_relaxed) + n;
  if (!CheckDeadline()) return false;
  if (limits_.max_postings_scanned != 0 &&
      total > limits_.max_postings_scanned) {
    TripOnce(BudgetTrip::kPostings);
    return false;
  }
  return true;
}

bool RunBudget::ChargePairs(uint64_t n) {
  // ordering: relaxed — accumulation only, see ChargePostings.
  const uint64_t total =
      pairs_aligned_.fetch_add(n, std::memory_order_relaxed) + n;
  if (!CheckDeadline()) return false;
  if (limits_.max_pairs_aligned != 0 && total > limits_.max_pairs_aligned) {
    TripOnce(BudgetTrip::kPairs);
    return false;
  }
  return true;
}

bool RunBudget::ChargeFormulas(uint64_t n) {
  // ordering: relaxed — accumulation only, see ChargePostings.
  const uint64_t total =
      candidate_formulas_.fetch_add(n, std::memory_order_relaxed) + n;
  if (!CheckDeadline()) return false;
  if (limits_.max_candidate_formulas != 0 &&
      total > limits_.max_candidate_formulas) {
    TripOnce(BudgetTrip::kFormulas);
    return false;
  }
  return true;
}

bool RunBudget::ChargeRows(uint64_t n) {
  // ordering: relaxed — accumulation only, see ChargePostings.
  const uint64_t total =
      rows_translated_.fetch_add(n, std::memory_order_relaxed) + n;
  if (!CheckDeadline()) return false;
  if (limits_.max_rows_translated != 0 && total > limits_.max_rows_translated) {
    TripOnce(BudgetTrip::kRows);
    return false;
  }
  return true;
}

bool RunBudget::Exhausted() { return !CheckDeadline(); }

BudgetPhase::Usage BudgetPhase::Usage::Of(const RunBudget& budget) {
  return {budget.postings_scanned(), budget.pairs_aligned(),
          budget.candidate_formulas()};
}

BudgetPhase::Usage BudgetPhase::Usage::Since(const RunBudget& budget,
                                             const Usage& start) {
  const Usage now = Of(budget);
  return {now.postings - start.postings, now.pairs - start.pairs,
          now.formulas - start.formulas};
}

BudgetPhase::BudgetPhase(RunBudget* parent, size_t slots)
    : parent_(parent),
      start_(Usage::Of(*parent)),
      used_(slots),
      done_(slots, false),
      total_(start_),
      drop_from_(slots) {}

bool BudgetPhase::Skip(size_t slot) {
  // ordering: relaxed — a stale value only runs a slot the commit drops.
  return slot >= drop_from_.load(std::memory_order_relaxed) ||
         parent_->Exhausted();
}

void BudgetPhase::Finish(size_t slot, const Usage& used) {
  MutexLock lock(mu_);
  used_[slot] = used;
  done_[slot] = true;
  const BudgetLimits& caps = parent_->limits();
  while (trip_ == BudgetTrip::kNone && admitted_ < done_.size() &&
         done_[admitted_]) {
    const Usage& next = used_[admitted_++];
    total_.postings += next.postings;
    total_.pairs += next.pairs;
    total_.formulas += next.formulas;
    // Axes in a fixed order, so a slot crossing two caps reports the same
    // one on every run.
    if (caps.max_postings_scanned != 0 &&
        total_.postings > caps.max_postings_scanned) {
      trip_ = BudgetTrip::kPostings;
    } else if (caps.max_pairs_aligned != 0 &&
               total_.pairs > caps.max_pairs_aligned) {
      trip_ = BudgetTrip::kPairs;
    } else if (caps.max_candidate_formulas != 0 &&
               total_.formulas > caps.max_candidate_formulas) {
      trip_ = BudgetTrip::kFormulas;
    }
  }
  if (trip_ != BudgetTrip::kNone) {
    // ordering: relaxed — advisory for Skip(); Commit() reads admitted_.
    drop_from_.store(admitted_, std::memory_order_relaxed);
  }
}

size_t BudgetPhase::Commit() {
  MutexLock lock(mu_);
  // ordering: relaxed — accumulation only, see ChargePostings. The slots'
  // meters are done: ParallelFor's barrier ordered their writes before us.
  parent_->postings_scanned_.fetch_add(total_.postings - start_.postings,
                                       std::memory_order_relaxed);
  // ordering: relaxed — as above.
  parent_->pairs_aligned_.fetch_add(total_.pairs - start_.pairs,
                                    std::memory_order_relaxed);
  // ordering: relaxed — as above.
  parent_->candidate_formulas_.fetch_add(total_.formulas - start_.formulas,
                                         std::memory_order_relaxed);
  if (trip_ != BudgetTrip::kNone) parent_->TripOnce(trip_);
  return admitted_;
}

}  // namespace mcsm
