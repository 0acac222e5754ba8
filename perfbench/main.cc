// The benchmark binary. Usage:
//   perfbench --workload <fullname|citeseer|serve> --seed <n> --seconds <s>
//             --trace <0|1> [--spans-out <file>]
// Prints a report, then as its last line the result JSON. Normally started
// through run.py, which builds it first.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--spans-out") {
      config.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return Usage("--workload, --seed and --seconds are required");
  }
  perfbench::RunResult result;
  if (!perfbench::RunWorkload(config, &result)) return 1;
  std::printf("%s\n", perfbench::ResultLine(result.failed == 0, result.attempted,
                                            result.failed, result.metrics)
                          .c_str());
  return 0;
}
