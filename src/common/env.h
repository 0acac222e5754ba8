#ifndef MCSM_COMMON_ENV_H_
#define MCSM_COMMON_ENV_H_

#include <cstdint>
#include <string>

namespace mcsm {

/// Reads an environment variable as a double, falling back to `def` when the
/// variable is unset or unparsable. Used by benchmarks for scale knobs
/// (MCSM_SCALE).
double GetEnvDouble(const char* name, double def);

/// Reads an environment variable as an int64, falling back to `def`.
int64_t GetEnvInt(const char* name, int64_t def);

/// Reads an environment variable as a string, falling back to `def`.
std::string GetEnvString(const char* name, const std::string& def);

}  // namespace mcsm

#endif  // MCSM_COMMON_ENV_H_
