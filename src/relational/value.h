#ifndef MCSM_RELATIONAL_VALUE_H_
#define MCSM_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace mcsm::relational {

/// Column data types supported by the engine.
enum class ColumnType {
  kText,
  kInteger,
  kReal,
};

/// \brief A dynamically-typed SQL value: NULL, INTEGER, REAL or TEXT.
///
/// Values are small and freely copyable; TEXT payloads use std::string.
class Value {
 public:
  struct Null {
    bool operator==(const Null&) const = default;
  };

  Value() : repr_(Null{}) {}
  Value(int64_t v) : repr_(v) {}          // NOLINT(google-explicit-constructor)
  Value(double v) : repr_(v) {}           // NOLINT
  Value(std::string v) : repr_(std::move(v)) {}  // NOLINT
  Value(const char* v) : repr_(std::string(v)) {}  // NOLINT
  Value(std::string_view v) : repr_(std::string(v)) {}  // NOLINT

  static Value MakeNull() { return Value(); }

  bool is_null() const { return std::holds_alternative<Null>(repr_); }
  bool is_integer() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_real() const { return std::holds_alternative<double>(repr_); }
  bool is_text() const { return std::holds_alternative<std::string>(repr_); }
  bool is_numeric() const { return is_integer() || is_real(); }

  int64_t integer() const { return std::get<int64_t>(repr_); }
  double real() const { return std::get<double>(repr_); }
  const std::string& text() const { return std::get<std::string>(repr_); }

  /// Renders the value for display; NULL renders as "NULL".
  std::string ToDisplayString() const;

  bool operator==(const Value& other) const { return repr_ == other.repr_; }

 private:
  std::variant<Null, int64_t, double, std::string> repr_;
};

}  // namespace mcsm::relational

#endif  // MCSM_RELATIONAL_VALUE_H_
