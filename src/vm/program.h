#ifndef MCSM_VM_PROGRAM_H_
#define MCSM_VM_PROGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace mcsm::vm {

/// \brief Bytecode operations of the translation VM.
///
/// The register model is deliberately tiny: registers hold read-only views of
/// the current row's source cells, loaded once per row no matter how many
/// spans reference the column. Emit operations append bytes to the row's
/// output; any emit whose span does not fit the register's value fails the
/// row (exactly the rows TranslationFormula::Apply returns nullopt for and
/// the emitted SQL's WHERE clause filters out — that three-way agreement is
/// the subsystem's acceptance contract, see DESIGN.md §12).
enum class OpCode : uint8_t {
  /// regs[a] = view of source cell (row, column b). NULL and non-text cells
  /// load as the empty view, so every later length guard fails the row —
  /// matching the SQL path's `col is not null` predicate.
  kLoadCol = 1,
  /// Fail the row unless regs[a].size() >= b. The compiler hoists one guard
  /// per register (the max requirement over every span that reads it) so
  /// uncovered rows bail before emitting a single byte. Semantically
  /// redundant — emits re-check their own bounds — but it keeps the
  /// uncovered-row path allocation- and copy-free.
  kGuardLen = 2,
  /// Append bytes [b, b+c) of regs[a]; fail the row when the value is
  /// shorter than b+c (a fixed span `[start-end]` needs the full width).
  kEmitSub = 3,
  /// Append bytes [b, end) of regs[a]; fail the row when the value has no
  /// character at position b (a `[start-n]` span needs at least one char).
  kEmitTail = 4,
  /// Append literal-pool bytes [a, a+b) — a separator literal.
  kEmitLit = 5,
  /// Commit the row's output. Every program ends with exactly one kRet.
  kRet = 6,
};

/// Human-readable mnemonic ("load", "guard", ...).
const char* OpCodeName(OpCode op);

/// One fixed-width instruction: an opcode plus up to three u32 operands
/// (meaning per opcode documented above). Fixed width keeps decode branchless
/// and the wire form trivially seekable.
struct Instruction {
  OpCode op = OpCode::kRet;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;

  bool operator==(const Instruction&) const = default;
};

/// \brief A validated translation program: instructions plus the literal
/// pool they reference.
///
/// Programs are built by vm::CompileFormula or decoded from the versioned
/// wire form; both paths end in Validate(), so an Executor can trust every
/// operand (register indices in range, literal spans inside the pool,
/// exactly one trailing kRet) and run without per-instruction bounds checks
/// beyond the row-data guards that are part of the semantics.
///
/// Wire form v1 (all integers little-endian):
///   "MCVM" | u32 version | u32 num_registers | u32 min_columns
///   | u32 instruction_count | u32 literal_bytes
///   | instruction_count x (u8 op, u32 a, u32 b, u32 c)
///   | literal pool bytes | u32 FNV-1a checksum of everything preceding
/// Decode rejects bad magic, version skew, truncation, trailing garbage and
/// checksum mismatch with a Status (never aborts), then runs Validate().
class Program {
 public:
  Program() = default;

  const std::vector<Instruction>& code() const { return code_; }
  std::string_view literals() const { return literals_; }
  /// Registers the program uses (executor scratch is sized by this).
  uint32_t num_registers() const { return num_registers_; }
  /// Minimum source-table column count; every kLoadCol column is below it.
  uint32_t min_columns() const { return min_columns_; }

  /// Construction interface (compiler, tests, fuzzer). Finish with
  /// Validate() before handing the program to an Executor.
  void Append(Instruction instr) { code_.push_back(instr); }
  /// Interns `text` into the literal pool and appends a kEmitLit.
  void AppendLiteral(std::string_view text);
  void set_num_registers(uint32_t n) { num_registers_ = n; }
  void set_min_columns(uint32_t n) { min_columns_ = n; }

  /// Structural validity: see class comment. Returns the first violation.
  Status Validate() const;

  /// Encodes the versioned wire form (see class comment).
  std::string Serialize() const;

  /// Decodes and validates a wire-form program.
  static Result<Program> Deserialize(std::string_view wire);

  /// Human-readable listing, one instruction per line, literals quoted and
  /// escaped. Stable across platforms (golden-tested).
  std::string Disassemble() const;

  bool operator==(const Program&) const = default;

  /// Hard caps, generous for real formulas (a formula references a handful
  /// of columns). Validate() enforces kMaxRegisters on every program: the
  /// executor's scratch is sized by it. Deserialize() also enforces the
  /// others, so a hostile wire program cannot make the decoder size absurd
  /// buffers. A program compiled against a real schema is bounded by that
  /// schema and its formula instead, so it may read a column past
  /// kMaxColumns or carry a literal longer than kMaxLiteralBytes, as
  /// TranslationFormula::Apply can; such a program runs, but its wire form
  /// does not decode.
  static constexpr uint32_t kMaxRegisters = 64;
  static constexpr uint32_t kMaxColumns = 4096;
  static constexpr uint32_t kMaxInstructions = 1 << 16;
  static constexpr uint32_t kMaxLiteralBytes = 1 << 20;
  static constexpr uint32_t kWireVersion = 1;

 private:
  std::vector<Instruction> code_;
  std::string literals_;
  uint32_t num_registers_ = 0;
  uint32_t min_columns_ = 0;
};

/// Lowercase-hex encoding of arbitrary bytes (wire programs travel through
/// JSON job requests/snapshots as hex).
std::string BytesToHex(std::string_view bytes);

/// Inverse of BytesToHex; rejects odd length and non-hex digits.
Result<std::string> HexToBytes(std::string_view hex);

}  // namespace mcsm::vm

#endif  // MCSM_VM_PROGRAM_H_
