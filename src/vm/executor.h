#ifndef MCSM_VM_EXECUTOR_H_
#define MCSM_VM_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "relational/table.h"
#include "vm/program.h"

namespace mcsm::vm {

/// \brief Output sink for one executed batch: covered source rows, their
/// translated values packed back-to-back in one byte arena, and the offsets
/// that delimit them. Execution performs no per-row allocation: Translate
/// reserves `rows` and `offsets` from the batch's row count, the arena grows
/// amortized, and register scratch is fixed.
struct TranslationChunk {
  std::vector<uint32_t> rows;     ///< covered source row ids, ascending
  std::vector<uint32_t> offsets;  ///< rows.size()+1 offsets into bytes
  std::string bytes;              ///< translated values, concatenated

  size_t size() const { return rows.size(); }
  std::string_view value(size_t i) const {
    return std::string_view(bytes).substr(offsets[i],
                                          offsets[i + 1] - offsets[i]);
  }
};

/// \brief Register interpreter for one validated Program.
///
/// Per-row semantics are exactly TranslationFormula::Apply: a row either
/// produces the full concatenation of its emit operations or nothing at all
/// (any guard/emit that does not fit the loaded value rolls the row's bytes
/// back and moves on). The executor is memory-safe on *any* validated
/// program — emits bounds-check against the live register, so a hostile wire
/// program without guards degrades to covering fewer rows, never to an OOB
/// read.
class Executor {
 public:
  /// `program` must be validated and must outlive the executor.
  explicit Executor(const Program& program);

  /// Executes rows [begin, end) of `source` (which must have at least
  /// program.min_columns() columns — checked by Translate, MCSM_CHECKed
  /// here), appending covered rows to `out`. The rows are already charged
  /// (Translate admits a prefix before dispatching it), so `budget`
  /// (nullable) is only checked, once per quantum: the range stops at a row
  /// boundary once the deadline elapses or the run is cancelled. After a
  /// rows trip, which is sticky, neither can be recorded any more, and the
  /// admitted rows run to the end — work the cap bounds. Returns the number
  /// of rows processed, always a prefix of [begin, end).
  size_t ExecuteRange(const relational::Table& source, size_t begin,
                      size_t end, RunBudget* budget, TranslationChunk* out);

  /// Rows charged to the budget per ChargeRows call; also the cadence of
  /// wall-clock/cancellation checks, so a trip mid-batch loses at most this
  /// many rows of granularity.
  static constexpr size_t kChargeQuantum = 64;

 private:
  const Program* program_;
  std::vector<std::string_view> regs_;  ///< fixed scratch, reused per row
};

/// Options for bulk table translation.
struct TranslateOptions {
  /// Rows per batch: the parallel work unit and the output-merge granularity.
  size_t batch_rows = 4096;
  /// Worker threads (ThreadPool semantics: 1 = fully inline, 0 = hardware).
  /// A call with more than one batch builds its own pool of this size. At 2
  /// threads on a 4-vCPU host that costs about 0.1 ms, some 2% of a 200k-row
  /// translation, so callers do not pass a pool in.
  size_t num_threads = 1;
  /// Optional shared budget. Translation charges the row cap before any row
  /// runs and stops early once any axis trips, returning the processed
  /// prefix tagged truncated.
  RunBudget* budget = nullptr;
};

/// \brief Result of translating a table: the covered-row outputs for the
/// processed prefix [0, rows_processed) of the source.
///
/// Output is byte-identical at every thread count for the same processed
/// prefix: batches are merged in batch order and each row's bytes depend
/// only on that row. A row cap cuts the same prefix at every thread count
/// and batch size — whole kChargeQuantum steps from row 0 that fit under
/// it. Only a deadline or a cancellation, which depend on timing, can make
/// *where* the prefix ends vary across runs; the prefix's content cannot.
struct TranslateResult {
  std::vector<uint32_t> rows;     ///< covered source row ids, ascending
  std::vector<uint32_t> offsets;  ///< rows.size()+1 offsets into bytes
  std::string bytes;              ///< translated values, concatenated
  size_t rows_processed = 0;      ///< prefix of the source actually executed
  bool truncated = false;         ///< budget tripped before the last row
  BudgetTrip budget_trip = BudgetTrip::kNone;

  size_t output_rows() const { return rows.size(); }
  std::string_view value(size_t i) const {
    return std::string_view(bytes).substr(offsets[i],
                                          offsets[i + 1] - offsets[i]);
  }
};

/// Translates every row of `source` with `program`. Fails fast
/// (InvalidArgument) when the program needs more columns than `source` has
/// or is structurally invalid.
Result<TranslateResult> Translate(const Program& program,
                                  const relational::Table& source,
                                  const TranslateOptions& options = {});

}  // namespace mcsm::vm

#endif  // MCSM_VM_EXECUTOR_H_
