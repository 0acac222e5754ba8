#ifndef MCSM_COMMON_DEADLINE_H_
#define MCSM_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/annotations.h"

namespace mcsm {

/// Which budget axis tripped first (kNone = still within budget).
enum class BudgetTrip : uint8_t {
  kNone = 0,
  kWallClock,   ///< wall-clock deadline elapsed
  kPostings,    ///< posting-entry scan cap reached (index retrieval)
  kPairs,       ///< pair-alignment cap reached (recipes built)
  kFormulas,    ///< candidate-formula cap reached
  kCancelled,   ///< RunBudget::Cancel() called (job cancellation, Ctrl-C)
  kRows,        ///< translated-row cap reached (bulk translation, vm/)
};

/// Human-readable axis name ("wall-clock", "postings", ...).
const char* BudgetTripName(BudgetTrip trip);

/// \brief Cost caps for one search run. Default-constructed limits are
/// unlimited (every field 0 = off), so existing call sites pay nothing.
///
/// The wall-clock deadline bounds the latency a caller observes; the
/// work-unit caps bound cost deterministically (useful in tests and when a
/// run must be reproducible regardless of machine speed). The first axis to
/// trip wins and is reported via RunBudget::trip().
struct BudgetLimits {
  /// Wall-clock deadline in milliseconds from RunBudget construction
  /// (0 = unlimited). The deadline covers index construction too: it starts
  /// when the search object is created, not at the first retrieval.
  int64_t wall_ms = 0;
  /// Cap on posting entries scanned across all index retrievals
  /// (0 = unlimited).
  uint64_t max_postings_scanned = 0;
  /// Cap on (key, target instance) pairs aligned into recipes (0 = unlimited).
  uint64_t max_pairs_aligned = 0;
  /// Cap on candidate formulas generated (0 = unlimited).
  uint64_t max_candidate_formulas = 0;
  /// Cap on rows translated by the bulk-translation VM (0 = unlimited).
  /// Unused by discovery; the translate path in src/vm charges it before any
  /// row runs.
  uint64_t max_rows_translated = 0;

  bool unlimited() const {
    return wall_ms == 0 && max_postings_scanned == 0 &&
           max_pairs_aligned == 0 && max_candidate_formulas == 0 &&
           max_rows_translated == 0;
  }
};

/// \brief Deadline + work-unit meter for one anytime-search run.
///
/// A RunBudget is created by the component that owns the run (the
/// translation search) and threaded as a nullable pointer through the layers
/// that do metered work — index retrieval, sampling, recipe voting. Each
/// layer charges the units it consumed and stops early once the budget is
/// exhausted, returning whatever it produced so far; the search layer then
/// tags the overall result `truncated` instead of erroring out.
///
/// Exhaustion is sticky: once any axis trips, Exhausted() stays true and
/// trip() keeps reporting the first axis that tripped. Charging is
/// thread-safe: the search's worker pool charges one shared budget from
/// every thread. Counters accumulate with relaxed atomics (only the total
/// matters), and the trip is recorded once via compare-and-swap, so even
/// when two axes exhaust in the same instant on different threads exactly
/// one of them is reported and every later Exhausted()/trip() agrees.
class RunBudget {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited budget.
  RunBudget() = default;

  /// Starts the wall clock now (when a deadline is configured).
  explicit RunBudget(const BudgetLimits& limits);

  /// One budget meters one run; it is shared by pointer, never copied.
  RunBudget(const RunBudget&) = delete;
  RunBudget& operator=(const RunBudget&) = delete;

  /// Convenience for tests/tools: wall-clock deadline only.
  static RunBudget ForMillis(int64_t wall_ms);

  /// Charges `n` posting entries; returns true while within budget.
  bool ChargePostings(uint64_t n);
  /// Charges `n` aligned pairs; returns true while within budget.
  bool ChargePairs(uint64_t n = 1);
  /// Charges `n` candidate formulas; returns true while within budget.
  bool ChargeFormulas(uint64_t n = 1);
  /// Charges `n` translated rows; returns true while within budget.
  bool ChargeRows(uint64_t n);

  /// True once any axis has tripped. Checks the wall clock (cheap: one
  /// steady_clock read when a deadline is set), so it is safe in loop heads.
  bool Exhausted();

  /// Trips the budget with BudgetTrip::kCancelled: the owning run stops at
  /// its next cooperative check and returns its best partial result tagged
  /// truncated. Safe to call from any thread — and from a signal handler: it
  /// is one atomic compare-and-swap, nothing else. Sticky like every other
  /// trip; cancelling an already-tripped budget keeps the first axis.
  void Cancel() { TripOnce(BudgetTrip::kCancelled); }

  /// The first axis that tripped, without re-reading the clock.
  // ordering: relaxed — sticky flag read; see TripOnce() in deadline.cc.
  BudgetTrip trip() const { return trip_.load(std::memory_order_relaxed); }

  uint64_t postings_scanned() const {
    // ordering: relaxed — monotonic counter read (reporting only).
    return postings_scanned_.load(std::memory_order_relaxed);
  }
  uint64_t pairs_aligned() const {
    // ordering: relaxed — monotonic counter read (reporting only).
    return pairs_aligned_.load(std::memory_order_relaxed);
  }
  uint64_t candidate_formulas() const {
    // ordering: relaxed — monotonic counter read (reporting only).
    return candidate_formulas_.load(std::memory_order_relaxed);
  }
  uint64_t rows_translated() const {
    // ordering: relaxed — monotonic counter read (reporting only).
    return rows_translated_.load(std::memory_order_relaxed);
  }
  const BudgetLimits& limits() const { return limits_; }

 private:
  friend class BudgetPhase;

  /// A slot meter (see BudgetPhase): starts from `parent`'s counters and
  /// caps and meters its own charges, but takes the deadline, cancellation
  /// and any trip from `parent`.
  explicit RunBudget(RunBudget* parent);

  bool CheckDeadline();
  /// Records `axis` as the trip cause iff nothing tripped yet (CAS), so the
  /// first axis wins under concurrent charging and stays sticky.
  void TripOnce(BudgetTrip axis);

  RunBudget* parent_ = nullptr;  ///< set on slot meters only
  BudgetLimits limits_;
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::atomic<BudgetTrip> trip_{BudgetTrip::kNone};
  std::atomic<uint64_t> postings_scanned_{0};
  std::atomic<uint64_t> pairs_aligned_{0};
  std::atomic<uint64_t> candidate_formulas_{0};
  std::atomic<uint64_t> rows_translated_{0};
};

/// \brief Deterministic work caps for one ParallelFor phase.
///
/// Slots that charged the run's budget directly would trip a cap in
/// scheduling order, so which slots got their work in before the trip would
/// vary from run to run. Under a BudgetPhase each slot charges a private
/// meter that starts from the parent's counters and caps — a slot stops
/// where it would stop if it ran first — and the slots are charged to the
/// parent in index order: a slot is admitted while the slots before it
/// stayed within every cap, and the first slot to cross one is the last
/// admitted and trips the parent on that axis. The admitted prefix and the
/// parent's counters are the same at every thread count and under any
/// scheduling. A deadline or Cancel() stays nondeterministic by nature: the
/// meters see the parent's trip and stop where they are.
class BudgetPhase {
 public:
  /// `parent` is the run's budget, `slots` the ParallelFor's size.
  BudgetPhase(RunBudget* parent, size_t slots);

  BudgetPhase(const BudgetPhase&) = delete;
  BudgetPhase& operator=(const BudgetPhase&) = delete;

  /// Runs fn(meter) for `slot` from the ParallelFor body, `meter` being the
  /// slot's private RunBudget. Skips the slot when Commit() would drop it
  /// anyway — earlier slots already crossed a cap — or the parent tripped.
  template <typename Fn>
  void Run(size_t slot, Fn&& fn) {
    Usage used;
    if (!Skip(slot)) {
      RunBudget meter(parent_);
      fn(&meter);
      used = Usage::Since(meter, start_);
    }
    Finish(slot, used);
  }

  /// Charges the slots to the parent in index order and returns how many
  /// leading slots are admitted. Call once, after the ParallelFor.
  size_t Commit();

 private:
  struct Usage {
    uint64_t postings = 0;
    uint64_t pairs = 0;
    uint64_t formulas = 0;

    static Usage Of(const RunBudget& budget);
    /// What `budget` charged beyond `start`.
    static Usage Since(const RunBudget& budget, const Usage& start);
  };

  bool Skip(size_t slot);
  /// Records a finished slot and folds every finished slot at the front of
  /// the order into the running total, stopping at the first cap crossed.
  void Finish(size_t slot, const Usage& used);

  RunBudget* parent_;
  Usage start_;  ///< the parent's counters when the phase began
  Mutex mu_;
  std::vector<Usage> used_ MCSM_GUARDED_BY(mu_);
  std::vector<bool> done_ MCSM_GUARDED_BY(mu_);
  /// Slots [0, admitted_) are folded into total_.
  size_t admitted_ MCSM_GUARDED_BY(mu_) = 0;
  Usage total_ MCSM_GUARDED_BY(mu_);
  BudgetTrip trip_ MCSM_GUARDED_BY(mu_) = BudgetTrip::kNone;
  /// admitted_ once a cap is crossed (every later slot is dropped), the
  /// slot count until then. Read without the lock by Skip().
  std::atomic<size_t> drop_from_;
};

/// \brief Steady-clock stopwatch for diagnostic timings (per-phase seconds
/// in SearchStats, span elapsed_ms).
///
/// This is the sanctioned funnel for wall-clock reads in the deterministic
/// layers: tools/lint.py rule CD001 bans direct clock access in src/core,
/// src/text and src/relational so that wall time can never leak into result
/// or trace *identity* — timings measured here are diagnostic outputs only
/// (TraceEvent::elapsed_ms is excluded from Id(), SearchStats seconds are
/// not part of any fingerprint). Deadline enforcement goes through
/// RunBudget, not this class.
class WallTimer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts timing at construction.
  WallTimer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction (or the last Restart()).
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void Restart() { start_ = Clock::now(); }

 private:
  Clock::time_point start_;
};

}  // namespace mcsm

#endif  // MCSM_COMMON_DEADLINE_H_
