#include "relational/value.h"

#include <cmath>

#include "common/string_util.h"

namespace mcsm::relational {

std::string Value::ToDisplayString() const {
  if (is_null()) return "NULL";
  if (is_integer()) return std::to_string(integer());
  if (is_real()) {
    double v = real();
    if (std::floor(v) == v && std::abs(v) < 1e15) {
      return StrFormat("%.1f", v);
    }
    return StrFormat("%g", v);
  }
  return text();
}

}  // namespace mcsm::relational
