#include "vm/program.h"

#include <cstddef>

#include "common/check.h"
#include "common/string_util.h"

namespace mcsm::vm {
namespace {

constexpr char kMagic[4] = {'M', 'C', 'V', 'M'};
constexpr size_t kHeaderBytes = 4 + 5 * 4;   // magic + five u32 fields
constexpr size_t kInstructionBytes = 1 + 3 * 4;
constexpr size_t kChecksumBytes = 4;

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t GetU32(std::string_view wire, size_t pos) {
  MCSM_DCHECK(pos + 4 <= wire.size());
  const auto b = [&](size_t i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(wire[pos + i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

uint32_t Fnv1a(std::string_view bytes) {
  uint32_t h = 2166136261u;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

void AppendEscaped(std::string* out, std::string_view text) {
  out->push_back('"');
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20 &&
               static_cast<unsigned char>(c) < 0x7f) {
      out->push_back(c);
    } else {
      *out += StrFormat("\\x%02x", static_cast<unsigned char>(c));
    }
  }
  out->push_back('"');
}

}  // namespace

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kLoadCol:
      return "load";
    case OpCode::kGuardLen:
      return "guard";
    case OpCode::kEmitSub:
      return "emit";
    case OpCode::kEmitTail:
      return "tail";
    case OpCode::kEmitLit:
      return "lit";
    case OpCode::kRet:
      return "ret";
  }
  return "bad";
}

void Program::AppendLiteral(std::string_view text) {
  Instruction instr;
  instr.op = OpCode::kEmitLit;
  instr.a = static_cast<uint32_t>(literals_.size());
  instr.b = static_cast<uint32_t>(text.size());
  literals_ += text;
  code_.push_back(instr);
}

Status Program::Validate() const {
  if (code_.empty()) return Status::InvalidArgument("vm: empty program");
  if (num_registers_ > kMaxRegisters) {
    return Status::InvalidArgument("vm: register count exceeds limit");
  }
  uint64_t loaded = 0;  // bitmask over registers (kMaxRegisters <= 64)
  for (size_t i = 0; i < code_.size(); ++i) {
    const Instruction& instr = code_[i];
    const bool last = i + 1 == code_.size();
    const auto fail = [&](const char* what) {
      return Status::InvalidArgument(
          StrFormat("vm: instruction %zu (%s): %s", i, OpCodeName(instr.op),
                    what));
    };
    if (instr.op != OpCode::kRet && last) {
      return fail("program must end with ret");
    }
    switch (instr.op) {
      case OpCode::kLoadCol:
        if (instr.a >= num_registers_) return fail("register out of range");
        if (instr.b >= min_columns_) return fail("column out of range");
        if (instr.c != 0) return fail("unused operand must be zero");
        loaded |= uint64_t{1} << instr.a;
        break;
      case OpCode::kGuardLen:
        if (instr.a >= num_registers_) return fail("register out of range");
        if ((loaded & (uint64_t{1} << instr.a)) == 0) {
          return fail("register read before load");
        }
        if (instr.b == 0) return fail("guard of zero is a no-op");
        if (instr.c != 0) return fail("unused operand must be zero");
        break;
      case OpCode::kEmitSub:
        if (instr.a >= num_registers_) return fail("register out of range");
        if ((loaded & (uint64_t{1} << instr.a)) == 0) {
          return fail("register read before load");
        }
        if (instr.c == 0) return fail("empty span");
        if (uint64_t{instr.b} + instr.c > UINT32_MAX) {
          return fail("span end overflows");
        }
        break;
      case OpCode::kEmitTail:
        if (instr.a >= num_registers_) return fail("register out of range");
        if ((loaded & (uint64_t{1} << instr.a)) == 0) {
          return fail("register read before load");
        }
        if (instr.c != 0) return fail("unused operand must be zero");
        break;
      case OpCode::kEmitLit:
        if (instr.b == 0) return fail("empty literal");
        if (uint64_t{instr.a} + instr.b > literals_.size()) {
          return fail("literal span outside pool");
        }
        if (instr.c != 0) return fail("unused operand must be zero");
        break;
      case OpCode::kRet:
        if (!last) return fail("ret before end of program");
        if (instr.a != 0 || instr.b != 0 || instr.c != 0) {
          return fail("unused operand must be zero");
        }
        break;
      default:
        return fail("unknown opcode");
    }
  }
  return Status::OK();
}

std::string Program::Serialize() const {
  std::string out;
  out.reserve(kHeaderBytes + code_.size() * kInstructionBytes +
              literals_.size() + kChecksumBytes);
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kWireVersion);
  PutU32(&out, num_registers_);
  PutU32(&out, min_columns_);
  PutU32(&out, static_cast<uint32_t>(code_.size()));
  PutU32(&out, static_cast<uint32_t>(literals_.size()));
  for (const Instruction& instr : code_) {
    out.push_back(static_cast<char>(instr.op));
    PutU32(&out, instr.a);
    PutU32(&out, instr.b);
    PutU32(&out, instr.c);
  }
  out += literals_;
  PutU32(&out, Fnv1a(out));
  return out;
}

Result<Program> Program::Deserialize(std::string_view wire) {
  if (wire.size() < kHeaderBytes + kChecksumBytes) {
    return Status::ParseError("vm wire: truncated header");
  }
  if (wire.substr(0, 4) != std::string_view(kMagic, sizeof(kMagic))) {
    return Status::ParseError("vm wire: bad magic");
  }
  const uint32_t version = GetU32(wire, 4);
  if (version != kWireVersion) {
    return Status::ParseError(StrFormat(
        "vm wire: version %u not supported (expected %u)", version,
        kWireVersion));
  }
  Program program;
  program.num_registers_ = GetU32(wire, 8);
  program.min_columns_ = GetU32(wire, 12);
  const uint32_t instruction_count = GetU32(wire, 16);
  const uint32_t literal_bytes = GetU32(wire, 20);
  // Reject absurd counts before sizing anything by them.
  if (instruction_count > kMaxInstructions) {
    return Status::ParseError("vm wire: instruction count exceeds limit");
  }
  if (literal_bytes > kMaxLiteralBytes) {
    return Status::ParseError("vm wire: literal pool exceeds limit");
  }
  const uint64_t expected = kHeaderBytes +
                            uint64_t{instruction_count} * kInstructionBytes +
                            literal_bytes + kChecksumBytes;
  if (wire.size() != expected) {
    return Status::ParseError(
        wire.size() < expected ? "vm wire: truncated body"
                               : "vm wire: trailing garbage");
  }
  const size_t body_end = wire.size() - kChecksumBytes;
  if (GetU32(wire, body_end) != Fnv1a(wire.substr(0, body_end))) {
    return Status::ParseError("vm wire: checksum mismatch");
  }
  size_t pos = kHeaderBytes;
  program.code_.reserve(instruction_count);
  for (uint32_t i = 0; i < instruction_count; ++i) {
    Instruction instr;
    const auto raw = static_cast<unsigned char>(wire[pos]);
    if (raw < static_cast<uint8_t>(OpCode::kLoadCol) ||
        raw > static_cast<uint8_t>(OpCode::kRet)) {
      return Status::ParseError(
          StrFormat("vm wire: instruction %u: unknown opcode %u", i, raw));
    }
    instr.op = static_cast<OpCode>(raw);
    instr.a = GetU32(wire, pos + 1);
    instr.b = GetU32(wire, pos + 5);
    instr.c = GetU32(wire, pos + 9);
    program.code_.push_back(instr);
    pos += kInstructionBytes;
  }
  program.literals_.assign(wire.substr(pos, literal_bytes));
  if (program.min_columns_ > kMaxColumns) {
    return Status::InvalidArgument("vm: column requirement exceeds limit");
  }
  MCSM_RETURN_IF_ERROR(program.Validate());
  return program;
}

std::string Program::Disassemble() const {
  std::string out = StrFormat(
      "; vm program v%u: %zu instructions, %u registers, needs >= %u source "
      "columns, %zu literal bytes\n",
      kWireVersion, code_.size(), num_registers_, min_columns_,
      literals_.size());
  for (size_t i = 0; i < code_.size(); ++i) {
    const Instruction& instr = code_[i];
    std::string line = StrFormat("%4zu: %-5s ", i, OpCodeName(instr.op));
    switch (instr.op) {
      case OpCode::kLoadCol:
        line += StrFormat("r%u, col %u", instr.a, instr.b);
        break;
      case OpCode::kGuardLen:
        line += StrFormat("r%u, len >= %u", instr.a, instr.b);
        break;
      case OpCode::kEmitSub:
        line += StrFormat("r%u[%u..%u)", instr.a, instr.b, instr.b + instr.c);
        break;
      case OpCode::kEmitTail:
        line += StrFormat("r%u[%u..]", instr.a, instr.b);
        break;
      case OpCode::kEmitLit:
        AppendEscaped(&line, SafeSubstr(literals_, instr.a, instr.b));
        break;
      case OpCode::kRet:
        break;
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    out += line;
    out.push_back('\n');
  }
  return out;
}

std::string BytesToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

Result<std::string> HexToBytes(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::ParseError("hex: odd number of digits");
  }
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return Status::ParseError("hex: invalid digit");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace mcsm::vm
