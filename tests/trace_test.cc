#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "core/search.h"
#include "datagen/datasets.h"
#include "temp_path.h"

namespace mcsm {
namespace {

// The determinism contract under test: event IDENTITY (TraceEvent::Id) never
// depends on wall-clock or thread scheduling, so traces of the same search
// at different thread counts are permutations of one event multiset — and
// tracing itself never changes the discovered formula.

core::SearchOptions FastOptions(size_t threads, TraceSink* trace) {
  core::SearchOptions o;
  o.sample_fraction = 0.10;
  o.num_threads = threads;
  o.env.trace = trace;
  return o;
}

std::vector<std::string> SortedIds(const std::vector<TraceEvent>& events) {
  std::vector<std::string> ids;
  ids.reserve(events.size());
  for (const TraceEvent& event : events) ids.push_back(event.Id());
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(TraceEventTest, IdExcludesElapsed) {
  TraceEvent a;
  a.kind = TraceEventKind::kSpanEnd;
  a.phase = "step1";
  a.name = "select_start_column";
  a.elapsed_ms = 1.5;
  TraceEvent b = a;
  b.elapsed_ms = 900.0;
  EXPECT_EQ(a.Id(), b.Id());
  b.name = "other";
  EXPECT_NE(a.Id(), b.Id());
}

TEST(TraceEventTest, JsonOmitsUnsetFields) {
  TraceEvent event;
  event.phase = "step2";
  event.name = "recipe";
  std::string json;
  AppendTraceEventJson(event, &json);
  EXPECT_EQ(json,
            R"({"kind":"decision","phase":"step2","name":"recipe","value":0})");
  event.column = 3;
  event.sample = 7;
  event.value = 0.5;
  event.detail = "a \"b\"";
  event.metrics.emplace_back("support", 2.0);
  event.elapsed_ms = 1.25;
  json.clear();
  AppendTraceEventJson(event, &json);
  EXPECT_EQ(json,
            R"({"kind":"decision","phase":"step2","name":"recipe","column":3,)"
            R"("sample":7,"value":0.5,"detail":"a \"b\"",)"
            R"("metrics":{"support":2},"elapsed_ms":1.25})");
}

TEST(TraceSinkTest, InMemoryShardsMergeAndCount) {
  InMemoryTraceSink sink;
  TraceSpan span(&sink, "run", "search");
  for (int i = 0; i < 100; ++i) {
    TraceEvent event;
    event.phase = "step2";
    event.name = "recipe";
    event.iteration = i;
    sink.Emit(std::move(event));
  }
  // Span end fires at scope exit.
  {
    TraceSpan inner(&sink, "step1", "select_start_column");
  }
  EXPECT_EQ(sink.event_count(), 103u);  // 100 + run begin + step1 begin/end
  EXPECT_EQ(sink.span_count(), 2u);     // two begins so far
  auto events = sink.CanonicalEvents();
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.Id() < b.Id();
                             }));
}

TEST(TraceSinkTest, TeeFansOut) {
  InMemoryTraceSink first;
  InMemoryTraceSink second;
  TeeTraceSink tee(&first, &second);
  TraceEvent event;
  event.phase = "p";
  event.name = "n";
  tee.Emit(event);
  EXPECT_EQ(first.event_count(), 1u);
  EXPECT_EQ(second.event_count(), 1u);
}

TEST(TraceSinkTest, JsonlSinkWritesOneJsonPerLine) {
  const std::string path = UniqueTempPath("trace_test", ".jsonl");
  {
    auto sink = JsonlTraceSink::Open(path);
    ASSERT_TRUE(sink.ok()) << sink.status();
    TraceEvent event;
    event.phase = "step1";
    event.name = "key_score";
    event.value = 1.5;
    (*sink)->Emit(event);
    event.name = "start_column";
    (*sink)->Emit(event);
  }
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"kind\":\"decision\""), std::string::npos);
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(TraceSinkTest, OpenRejectsUnwritablePath) {
  auto sink = JsonlTraceSink::Open("/nonexistent-dir/x/y/trace.jsonl");
  EXPECT_FALSE(sink.ok());
}

// The tentpole guarantee: per-thread-count traces are permutations of ONE
// event set, and the discovered formula is byte-identical with and without
// a sink attached.
TEST(TraceDeterminismTest, ThreadCountsProducePermutationsOfOneEventSet) {
  datagen::UserIdOptions o;
  o.rows = 1500;
  auto data = datagen::MakeUserIdDataset(o);

  std::vector<std::vector<std::string>> per_thread_ids;
  std::vector<std::string> per_thread_formulas;
  for (size_t threads : {1u, 2u, 8u}) {
    InMemoryTraceSink sink;
    auto d = core::DiscoverTranslation(data.source, data.target, 0,
                                       FastOptions(threads, &sink));
    ASSERT_TRUE(d.ok()) << d.status();
    per_thread_formulas.push_back(d->formula().ToString(data.source.schema()));
    per_thread_ids.push_back(SortedIds(sink.Events()));
    EXPECT_GT(sink.event_count(), 100u) << threads;
  }
  EXPECT_EQ(per_thread_formulas[0], per_thread_formulas[1]);
  EXPECT_EQ(per_thread_formulas[0], per_thread_formulas[2]);
  EXPECT_EQ(per_thread_ids[0], per_thread_ids[1]);
  EXPECT_EQ(per_thread_ids[0], per_thread_ids[2]);
}

TEST(TraceDeterminismTest, TracingDoesNotChangeResults) {
  datagen::UserIdOptions o;
  o.rows = 1500;
  auto data = datagen::MakeUserIdDataset(o);

  auto plain = core::DiscoverTranslation(data.source, data.target, 0,
                                         FastOptions(2, nullptr));
  ASSERT_TRUE(plain.ok()) << plain.status();

  InMemoryTraceSink sink;
  auto traced = core::DiscoverTranslation(data.source, data.target, 0,
                                          FastOptions(2, &sink));
  ASSERT_TRUE(traced.ok()) << traced.status();

  NullTraceSink null_sink;
  auto nulled = core::DiscoverTranslation(data.source, data.target, 0,
                                          FastOptions(2, &null_sink));
  ASSERT_TRUE(nulled.ok()) << nulled.status();

  const std::string expected = plain->formula().ToString(data.source.schema());
  EXPECT_EQ(traced->formula().ToString(data.source.schema()), expected);
  EXPECT_EQ(nulled->formula().ToString(data.source.schema()), expected);
  EXPECT_EQ(traced->coverage.matched_rows(), plain->coverage.matched_rows());
  EXPECT_EQ(nulled->coverage.matched_rows(), plain->coverage.matched_rows());
  EXPECT_GT(sink.event_count(), 0u);
}

TEST(TraceDeterminismTest, EnvValidateRejectsConflictingBudgets) {
  core::SearchOptions options;
  BudgetLimits limits;
  limits.wall_ms = 100;
  RunBudget budget(limits);
  options.env.shared_budget = &budget;
  options.env.budget.wall_ms = 50;  // conflicts with the shared budget
  EXPECT_FALSE(options.Validate().ok());
  options.env.budget = BudgetLimits{};
  EXPECT_TRUE(options.Validate().ok());
}

TEST(TraceDeterminismTest, OptionsValidateRejectsBadKnobs) {
  core::SearchOptions options;
  options.sample_fraction = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options.sample_fraction = 2.0;
  EXPECT_FALSE(options.Validate().ok());
  options.sample_fraction = 0.1;
  EXPECT_TRUE(options.Validate().ok());
  options.q = 0;
  EXPECT_FALSE(options.Validate().ok());
}

}  // namespace
}  // namespace mcsm
