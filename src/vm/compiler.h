#ifndef MCSM_VM_COMPILER_H_
#define MCSM_VM_COMPILER_H_

#include "common/result.h"
#include "core/formula.h"
#include "relational/table.h"
#include "vm/program.h"

namespace mcsm::vm {

/// \brief Compiles a discovered TranslationFormula into a validated Program.
///
/// Rejects everything SqlEmitter::ToSql rejects for a schema with distinct
/// column names — incomplete or empty formulas (InvalidArgument) and spans
/// referencing columns beyond `schema` (OutOfRange) — and more, all as
/// InvalidArgument: spans starting at 0 or ending before they start,
/// positions beyond u32, and formulas over more than kMaxRegisters columns.
/// ToSql still writes SQL for those; parsed back (SqlEmitter::FromSql), that
/// SQL either fails to parse or fails here the same way, so running emitted
/// SQL fails loudly instead of diverging from the formula.
///
/// Lowering: each referenced source column gets one register, loaded once
/// per row in first-reference order and followed by a single hoisted
/// kGuardLen carrying the max length any span of that column requires (a
/// fixed span `[start-end]` needs `end` characters, a `[start-n]` tail needs
/// `start`). Then the regions lower in order — kEmitSub / kEmitTail /
/// kEmitLit (empty literals compile to nothing, matching the SQL path's
/// `'' ||` no-op) — and a final kRet commits the row. The hoisted guards
/// fail uncovered rows before any byte is emitted; the emit ops re-check
/// their own bounds, so the guard placement is a fast path, not a semantic
/// dependency.
Result<Program> CompileFormula(const core::TranslationFormula& formula,
                               const relational::Schema& schema);

}  // namespace mcsm::vm

#endif  // MCSM_VM_COMPILER_H_
