// The benchmark's workloads (fullname, citeseer, serve): how each builds its
// inputs from the seed, what it times, and how it checks the results.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  /// Measured rounds start until this long has passed; each workload also
  /// has a minimum round count (NOTES.md "Rounds"), so a run measures up to
  /// one round longer, or longer on a slow host.
  double seconds = 25;
  /// false: the end-to-end run. true: the traced run, which times calls into
  /// each layer and reports the per-layer metrics instead.
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
};

/// Runs one workload. Returns false, with a message on stderr, when the
/// workload cannot run at all (unknown name, server that does not start).
bool RunWorkload(const RunConfig& config, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
