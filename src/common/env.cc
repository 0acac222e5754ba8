#include "common/env.h"

#include <cstdlib>

namespace mcsm {

double GetEnvDouble(const char* name, double def) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only; nothing calls setenv.
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v) return def;
  return parsed;
}

int64_t GetEnvInt(const char* name, int64_t def) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only; nothing calls setenv.
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return def;
  return static_cast<int64_t>(parsed);
}

std::string GetEnvString(const char* name, const std::string& def) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only; nothing calls setenv.
  const char* v = std::getenv(name);
  if (v == nullptr) return def;
  return std::string(v);
}

}  // namespace mcsm
