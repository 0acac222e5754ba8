// Measurement harness of the mcsm benchmark: sample statistics, the span
// recorder the traced run times layer calls with, and the metric set printed
// as the benchmark's result line. It uses only mcsm's header-only lock
// annotations, so harness_test.cc exercises it without the libraries.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"

namespace perfbench {

/// Milliseconds elapsed on the steady clock since `start`.
double MsSince(std::chrono::steady_clock::time_point start);

/// Median of `samples` (mean of the two middle values for an even count).
/// Requires a non-empty vector.
double Median(std::vector<double> samples);

/// Samples that must lie strictly above a reported p90.
constexpr size_t kMinSamplesBeyondP90 = 10;

/// Nearest-rank p90 of `samples`, or nullopt when fewer than
/// kMinSamplesBeyondP90 samples lie strictly above it: a percentile with
/// fewer samples beyond it is a statement about a handful of outliers.
std::optional<double> P90(std::vector<double> samples);

/// One timed call into a layer. `parent` is the index of the enclosing span
/// in the recorder (-1 for a root); `run` groups the spans of one discovery
/// or one service job.
struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
  int run = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// \brief In-memory span recorder. Spans are written out only when the run
/// ends (WriteJsonl), so recording costs two clock reads and a vector
/// append. Thread-safe: the service phase records from its client threads.
class Tracer {
 public:
  Tracer();

  /// Opens a span and returns its index.
  int Begin(const std::string& name, int parent, int run);
  void End(int index);

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name, int parent, int run)
        : tracer_(tracer), index_(tracer->Begin(name, parent, run)) {}
    ~Scope() { tracer_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const { return index_; }

   private:
    Tracer* tracer_;
    int index_;
  };

  std::vector<Span> spans() const;
  /// Writes one JSON object per span; false when `path` cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable mcsm::Mutex mu_;
  std::vector<Span> spans_ MCSM_GUARDED_BY(mu_);
};

/// Empty when every span is closed, lies inside its parent's interval, has a
/// parent recorded before it, and shares its parent's run id; otherwise a
/// description of the first violation.
std::string CheckNesting(const std::vector<Span>& spans);

/// Self time of each span: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Sum of SelfTimes by span name.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

/// \brief The named metrics of one run, rendered as the benchmark's result
/// line. Keys keep insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds `numerator / base` as `name` and, beside it, the base itself as
  /// `base_name`: a ratio is never printed without what it is a share of.
  /// A zero base yields a ratio of 0.
  void AddRatio(const std::string& name, double numerator,
                const std::string& base_name, double base,
                const std::string& base_unit);

  std::optional<double> Get(const std::string& name) const;
  size_t size() const { return entries_.size(); }

  /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The result line: `{"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {...}}`.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

/// JSON string literal for `text` (quotes, backslashes and control
/// characters escaped).
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
