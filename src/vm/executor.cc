#include "vm/executor.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace mcsm::vm {

Executor::Executor(const Program& program)
    : program_(&program), regs_(program.num_registers()) {}

size_t Executor::ExecuteRange(const relational::Table& source, size_t begin,
                              size_t end, RunBudget* budget,
                              TranslationChunk* out) {
  MCSM_CHECK(source.num_columns() >= program_->min_columns());
  MCSM_CHECK(begin <= end && end <= source.num_rows());
  const std::vector<Instruction>& code = program_->code();
  const std::string_view literals = program_->literals();
  if (out->offsets.empty()) out->offsets.push_back(0);

  // One cursor per source column: the range walks rows in order, so each
  // kLoadCol pays one segment pin per segment instead of one per row. A
  // loaded view stays valid until the same column's next load — one row
  // later, after this row's guards and emits have consumed it.
  std::vector<relational::TextCursor> cells;
  cells.reserve(source.num_columns());
  for (size_t c = 0; c < source.num_columns(); ++c) {
    cells.emplace_back(source.Column(c));
  }

  size_t row = begin;
  while (row < end) {
    const size_t quantum = std::min(kChargeQuantum, end - row);
    // Check before executing: when the run stops, none of the quantum's rows
    // ran, so the processed count stays an exact row boundary. A rows trip
    // refused the rows after the admitted prefix, not these.
    if (budget != nullptr && budget->trip() != BudgetTrip::kRows &&
        budget->Exhausted()) {
      break;
    }
    for (const size_t stop = row + quantum; row < stop; ++row) {
      const size_t row_start = out->bytes.size();
      bool covered = true;
      for (const Instruction& instr : code) {
        if (instr.op == OpCode::kLoadCol) {
          regs_[instr.a] = cells[instr.b].Get(row);
        } else if (instr.op == OpCode::kGuardLen) {
          if (regs_[instr.a].size() < instr.b) {
            covered = false;
            break;
          }
        } else if (instr.op == OpCode::kEmitSub) {
          const std::string_view v = regs_[instr.a];
          // u64 sum: a hostile program may put b+c past u32 wraparound.
          if (v.size() < uint64_t{instr.b} + instr.c) {
            covered = false;
            break;
          }
          out->bytes.append(v.data() + instr.b, instr.c);
        } else if (instr.op == OpCode::kEmitTail) {
          const std::string_view v = regs_[instr.a];
          if (v.size() < uint64_t{instr.b} + 1) {
            covered = false;
            break;
          }
          out->bytes.append(v.data() + instr.b, v.size() - instr.b);
        } else if (instr.op == OpCode::kEmitLit) {
          out->bytes.append(literals.data() + instr.a, instr.b);
        } else {  // kRet — always the last instruction, so just fall out.
          break;
        }
      }
      if (covered) {
        // The u32 offset/row-id layout caps one chunk at 4G output bytes —
        // far beyond any batch; trip loudly instead of wrapping silently.
        MCSM_CHECK(out->bytes.size() <= UINT32_MAX);
        out->rows.push_back(static_cast<uint32_t>(row));
        out->offsets.push_back(static_cast<uint32_t>(out->bytes.size()));
      } else {
        out->bytes.resize(row_start);  // roll the failed row's bytes back
      }
    }
  }
  return row - begin;
}

namespace {

// Charges rows [0, rows) to `budget` (nullable) in kChargeQuantum steps from
// row 0; returns the length of the prefix paid for before a charge tripped.
size_t AdmitRows(RunBudget* budget, size_t rows) {
  if (budget == nullptr) return rows;
  size_t admitted = 0;
  while (admitted < rows) {
    const size_t quantum = std::min(Executor::kChargeQuantum, rows - admitted);
    if (!budget->ChargeRows(quantum)) break;
    admitted += quantum;
  }
  return admitted;
}

}  // namespace

Result<TranslateResult> Translate(const Program& program,
                                  const relational::Table& source,
                                  const TranslateOptions& options) {
  MCSM_RETURN_IF_ERROR(program.Validate());
  if (source.num_columns() < program.min_columns()) {
    return Status::InvalidArgument(
        StrFormat("program needs %u source columns, table has %zu",
                  program.min_columns(), source.num_columns()));
  }
  const size_t batch_rows = std::max<size_t>(1, options.batch_rows);
  const size_t total_rows = source.num_rows();
  if (total_rows > UINT32_MAX) {
    return Status::InvalidArgument("table exceeds u32 row-id range");
  }
  RunBudget* budget = options.budget;
  // The rows axis is settled before any row runs, by one rule for every
  // thread count and batch size: charge the table in kChargeQuantum steps
  // from row 0 and dispatch only the prefix paid for. Batches that charged
  // as they ran could spend, out of order, the cap an earlier batch needed.
  const size_t admitted = AdmitRows(budget, total_rows);
  const size_t num_batches = (admitted + batch_rows - 1) / batch_rows;

  TranslateResult result;
  if (num_batches <= 1 || options.num_threads == 1) {
    // Inline path: one chunk is the result.
    Executor executor(program);
    TranslationChunk chunk;
    result.rows_processed =
        executor.ExecuteRange(source, 0, admitted, budget, &chunk);
    result.rows = std::move(chunk.rows);
    result.offsets = std::move(chunk.offsets);
    result.bytes = std::move(chunk.bytes);
  } else {
    // Parallel path: per-batch chunks written into private slots, merged in
    // batch order afterwards, so scheduling can never reorder output. A
    // deadline or cancellation stops each running batch at its next quantum;
    // a batch that starts after the trip processes zero rows.
    std::vector<TranslationChunk> chunks(num_batches);
    std::vector<size_t> processed(num_batches, 0);
    ThreadPool pool(options.num_threads);
    pool.ParallelFor(num_batches, [&](size_t batch) {
      Executor executor(program);
      const size_t begin = batch * batch_rows;
      const size_t end = std::min(begin + batch_rows, admitted);
      processed[batch] =
          executor.ExecuteRange(source, begin, end, budget, &chunks[batch]);
    });
    // Keep the contiguous processed prefix: batches after the first
    // incomplete one may have run (dynamic scheduling), but splicing them in
    // would leave a hole in the middle of the output.
    size_t keep = num_batches;
    for (size_t batch = 0; batch < num_batches; ++batch) {
      const size_t begin = batch * batch_rows;
      const size_t end = std::min(begin + batch_rows, admitted);
      result.rows_processed = begin + processed[batch];
      if (processed[batch] < end - begin) {
        keep = batch + 1;
        break;
      }
    }
    result.offsets.push_back(0);
    for (size_t batch = 0; batch < keep && batch < num_batches; ++batch) {
      const TranslationChunk& chunk = chunks[batch];
      MCSM_CHECK(result.bytes.size() + chunk.bytes.size() <= UINT32_MAX);
      const auto base = static_cast<uint32_t>(result.bytes.size());
      result.bytes += chunk.bytes;
      for (size_t i = 0; i < chunk.size(); ++i) {
        result.rows.push_back(chunk.rows[i]);
        result.offsets.push_back(base + chunk.offsets[i + 1]);
      }
    }
  }
  result.truncated = result.rows_processed < total_rows;
  result.budget_trip =
      budget != nullptr ? budget->trip() : BudgetTrip::kNone;
  return result;
}

}  // namespace mcsm::vm
