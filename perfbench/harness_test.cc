// Self-test of the benchmark harness: statistics, span self time and nesting,
// and the result line. Run through `python3 perfbench/run.py --self-test` or
// `ctest` in the benchmark's build directory; exits non-zero on a failure.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int g_failures = 0;
int g_checks = 0;

void Check(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "harness_test.cc:%d: check failed: %s\n", line, what);
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span MakeSpan(const char* name, double start, double end,
                         int parent, int run = 0) {
  perfbench::Span s;
  s.name = name;
  s.start_ms = start;
  s.end_ms = end;
  s.parent = parent;
  s.run = run;
  return s;
}

void TestMedian() {
  using perfbench::Median;
  CHECK(Near(Median({5}), 5));
  CHECK(Near(Median({3, 1, 2}), 2));
  CHECK(Near(Median({4, 1, 3, 2}), 2.5));
  CHECK(Near(Median({7, 7, 1, 100, 7}), 7));
}

void TestP90() {
  using perfbench::P90;
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  // Nearest rank 90 of 1..100 is 90, with 91..100 (ten samples) beyond it.
  CHECK(P90(hundred).has_value());
  CHECK(Near(P90(hundred).value_or(-1), 90));

  // 99 samples put only nine beyond the p90: it must not print.
  std::vector<double> ninety_nine(hundred.begin(), hundred.end() - 1);
  CHECK(!P90(ninety_nine).has_value());
  CHECK(!P90({}).has_value());
  CHECK(!P90({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}).has_value());

  // Ties at the top do not count as beyond: 100 samples whose largest 15
  // are equal leave none strictly above the p90.
  std::vector<double> tied(hundred);
  for (size_t i = 85; i < tied.size(); ++i) tied[i] = 500;
  CHECK(!P90(tied).has_value());

  // Order of the input does not matter.
  std::vector<double> reversed(hundred.rbegin(), hundred.rend());
  CHECK(Near(P90(reversed).value_or(-1), 90));
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,100] with children [10,30] and [20,50] (overlapping: cover
  // 10..50 once) and [60,70]; grandchild [12,18] under the first child.
  std::vector<Span> spans = {
      MakeSpan("root", 0, 100, -1),   MakeSpan("a", 10, 30, 0),
      MakeSpan("b", 20, 50, 0),       MakeSpan("c", 60, 70, 0),
      MakeSpan("a.child", 12, 18, 1),
  };
  std::vector<double> self = perfbench::SelfTimes(spans);
  CHECK(Near(self[0], 100 - 40 - 10));
  CHECK(Near(self[1], 20 - 6));
  CHECK(Near(self[2], 30));
  CHECK(Near(self[3], 10));
  CHECK(Near(self[4], 6));

  // Self times of a tree whose siblings do not overlap add up to the root's
  // duration.
  std::vector<Span> sequential = {
      MakeSpan("root", 0, 100, -1), MakeSpan("a", 10, 30, 0),
      MakeSpan("b", 40, 50, 0), MakeSpan("a.child", 12, 18, 1)};
  double total = 0;
  for (double s : perfbench::SelfTimes(sequential)) total += s;
  CHECK(Near(total, 100));

  auto by_name = perfbench::SelfTimeByName(spans);
  CHECK(Near(by_name["root"], 50));
  CHECK(Near(by_name["a.child"], 6));
}

void TestNesting() {
  using perfbench::Span;
  std::vector<Span> good = {MakeSpan("root", 0, 10, -1, 3),
                            MakeSpan("child", 2, 8, 0, 3)};
  CHECK(perfbench::CheckNesting(good).empty());

  std::vector<Span> escapes = {MakeSpan("root", 0, 10, -1),
                               MakeSpan("child", 2, 12, 0)};
  CHECK(!perfbench::CheckNesting(escapes).empty());

  std::vector<Span> other_run = {MakeSpan("root", 0, 10, -1, 1),
                                 MakeSpan("child", 2, 8, 0, 2)};
  CHECK(!perfbench::CheckNesting(other_run).empty());

  std::vector<Span> forward_parent = {MakeSpan("child", 2, 8, 1),
                                      MakeSpan("root", 0, 10, -1)};
  CHECK(!perfbench::CheckNesting(forward_parent).empty());

  std::vector<Span> open = {MakeSpan("root", 5, -1, -1)};
  CHECK(!perfbench::CheckNesting(open).empty());

  // The recorder itself produces nested, closed spans.
  perfbench::Tracer tracer;
  {
    perfbench::Tracer::Scope root(&tracer, "root", -1, 7);
    perfbench::Tracer::Scope child(&tracer, "child", root.index(), 7);
  }
  std::vector<Span> recorded = tracer.spans();
  CHECK(recorded.size() == 2);
  CHECK(perfbench::CheckNesting(recorded).empty());
}

void TestMetricsAndRatio() {
  perfbench::MetricSet metrics;
  metrics.Add("latency_ms", 1.25, "ms");
  metrics.AddRatio("cache_hit_ratio", 3, "cache_lookups", 4, "count");
    CHECK(Near(metrics.Get("cache_hit_ratio").value_or(-1), 0.75));
  CHECK(Near(metrics.Get("cache_lookups").value_or(-1), 4));

  // A zero base prints a zero ratio, still beside its base.
  metrics.AddRatio("empty_ratio", 0, "empty_base", 0, "count");
  CHECK(Near(metrics.Get("empty_ratio").value_or(-1), 0));
  CHECK(metrics.Get("empty_base").has_value());

  // Re-adding a name replaces the value instead of duplicating the key.
  metrics.Add("latency_ms", 2.5, "ms");
  CHECK(metrics.size() == 5);

  const std::string line = perfbench::ResultLine(true, 12, 0, metrics);
  CHECK(line.rfind("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
                   "\"metrics\": {\"latency_ms\": {\"value\": 2.5, "
                   "\"unit\": \"ms\"}, \"cache_hit_ratio\": {\"value\": 0.75",
                   0) == 0);
  CHECK(line.find("\"cache_lookups\": {\"value\": 4, \"unit\": \"count\"}") !=
        std::string::npos);

  // Every digit of a measured value survives.
  perfbench::MetricSet digits;
  digits.Add("x", 1.2034567890123, "s");
  CHECK(digits.ToJson().find("1.2034567890123") != std::string::npos);

  CHECK(perfbench::JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"");
}

}  // namespace

int main() {
  TestMedian();
  TestP90();
  TestSelfTime();
  TestNesting();
  TestMetricsAndRatio();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d of %d checks failed\n",
                 g_failures, g_checks);
    return 1;
  }
  std::printf("perfbench_selftest: %d checks passed\n", g_checks);
  return 0;
}
