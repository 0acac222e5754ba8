// Unit and integration coverage for the discovery service subsystem: JSON
// parse/serialize, the HTTP request parser, the table registry, the
// byte-budgeted index cache, the async job manager (deadlines, cancellation,
// backpressure, determinism), the route layer, and one socket-level
// end-to-end pass through HttpServer.

#include <sys/socket.h>
#include <netinet/in.h>
#include <unistd.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/matcher.h"
#include "datagen/datasets.h"
#include "relational/csv.h"
#include "service/http.h"
#include "service/job_manager.h"
#include "service/json.h"
#include "service/metrics.h"
#include "service/registry.h"
#include "service/service.h"

namespace mcsm::service {
namespace {

// ---------------------------------------------------------------- JSON ----

TEST(JsonTest, DumpsScalarsAndContainers) {
  Json obj = Json::Object();
  obj.Set("name", Json::Str("henry"));
  obj.Set("count", Json::Number(3));
  obj.Set("ratio", Json::Number(0.5));
  obj.Set("ok", Json::Bool(true));
  obj.Set("nothing", Json());
  Json arr = Json::Array();
  arr.Append(Json::Number(1));
  arr.Append(Json::Number(2));
  obj.Set("items", std::move(arr));
  EXPECT_EQ(obj.Dump(),
            R"({"name":"henry","count":3,"ratio":0.5,"ok":true,)"
            R"("nothing":null,"items":[1,2]})");
}

TEST(JsonTest, EscapesStrings) {
  Json s = Json::Str("a\"b\\c\nd\te\x01");
  EXPECT_EQ(s.Dump(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonTest, IntegralNumbersDumpWithoutDecimalPoint) {
  EXPECT_EQ(Json::Number(42).Dump(), "42");
  EXPECT_EQ(Json::Number(-7).Dump(), "-7");
  EXPECT_EQ(Json::Number(2.5).Dump(), "2.5");
}

TEST(JsonTest, ParsesRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,-3],"b":{"c":"x","d":true},"e":null,"f":false})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Dump(), text);
  const Json* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ(a->at(1).AsNumber(0), 2.5);
  const Json* b = parsed->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->Find("c"), nullptr);
  EXPECT_EQ(b->Find("c")->AsString(""), "x");
}

TEST(JsonTest, ParsesStringEscapes) {
  auto parsed = Json::Parse(R"("a\"b\\c\ndAé")");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->AsString(""), "a\"b\\c\ndA\xC3\xA9");
}

TEST(JsonTest, ParsesSurrogatePair) {
  auto parsed = Json::Parse(R"("😀")");  // U+1F600
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->AsString(""), "\xF0\x9F\x98\x80");
  EXPECT_FALSE(Json::Parse(R"("\ud83d")").ok());       // unpaired high
  EXPECT_FALSE(Json::Parse(R"("\ude00")").ok());       // unpaired low
  EXPECT_FALSE(Json::Parse(R"("\ud83dxx")").ok());     // no low after high
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "[1 2]", "tru", "01", "1.",
        "1e", "\"unterminated", "{}x", "nul", "\"\x01\"", "--1", "+1"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << bad;
  }
}

TEST(JsonTest, WhitespaceTolerated) {
  auto parsed = Json::Parse("  {\r\n \"a\" :\t[ 1 , 2 ] }  ");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Dump(), R"({"a":[1,2]})");
}

TEST(JsonTest, DepthCapStopsDeepNesting) {
  std::string deep(Json::kMaxDepth + 8, '[');
  deep += std::string(Json::kMaxDepth + 8, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
  std::string ok_depth(8, '[');
  ok_depth += std::string(8, ']');
  EXPECT_TRUE(Json::Parse(ok_depth).ok());
}

TEST(JsonTest, SetReplacesExistingKey) {
  Json obj = Json::Object();
  obj.Set("k", Json::Number(1));
  obj.Set("k", Json::Number(2));
  EXPECT_EQ(obj.Dump(), R"({"k":2})");
}

// ---------------------------------------------------------------- HTTP ----

HttpLimits TestLimits() { return HttpLimits{}; }

TEST(HttpParserTest, ParsesRequestWithBody) {
  const std::string raw =
      "POST /jobs?x=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 4\r\n"
      "\r\n"
      "abcd";
  size_t head_end = FindHeadEnd(raw);
  ASSERT_GT(head_end, 0u);
  auto parsed = ParseHttpRequest(raw, head_end, TestLimits());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->path, "/jobs");
  EXPECT_EQ(parsed->query, "x=1");
  EXPECT_EQ(parsed->Header("content-type"), "application/json");
  EXPECT_EQ(parsed->Header("host"), "localhost");
  EXPECT_EQ(parsed->body, "abcd");
}

TEST(HttpParserTest, HeaderNamesAreCaseFolded) {
  const std::string raw =
      "GET / HTTP/1.1\r\nX-ThInG:  padded value \r\n\r\n";
  auto parsed = ParseHttpRequest(raw, FindHeadEnd(raw), TestLimits());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Header("x-thing"), "padded value");
}

TEST(HttpParserTest, RejectsMalformedInput) {
  auto reject = [](const std::string& raw) {
    size_t head_end = FindHeadEnd(raw);
    if (head_end == 0) return true;  // never completes: also a rejection
    return !ParseHttpRequest(raw, head_end, TestLimits()).ok();
  };
  EXPECT_TRUE(reject("GET\r\n\r\n"));                      // no target
  EXPECT_TRUE(reject("get / HTTP/1.1\r\n\r\n"));           // lowercase method
  EXPECT_TRUE(reject("GET / HTTP/2.0\r\n\r\n"));           // bad version
  EXPECT_TRUE(reject("GET relative HTTP/1.1\r\n\r\n"));    // non-absolute
  EXPECT_TRUE(reject("GET / HTTP/1.1\r\nBad Header: x\r\n\r\n"));
  EXPECT_TRUE(reject("GET / HTTP/1.1\r\n: empty\r\n\r\n"));
  EXPECT_TRUE(
      reject("GET / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n"));
  EXPECT_TRUE(
      reject("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
}

TEST(HttpParserTest, EnforcesLimits) {
  HttpLimits limits;
  limits.max_headers = 2;
  const std::string raw =
      "GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
  EXPECT_FALSE(ParseHttpRequest(raw, FindHeadEnd(raw), limits).ok());

  HttpLimits body_limits;
  body_limits.max_body_bytes = 2;
  const std::string big =
      "POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
  EXPECT_FALSE(ParseHttpRequest(big, FindHeadEnd(big), body_limits).ok());
}

TEST(HttpParserTest, SerializeResponseIsWellFormed) {
  HttpResponse response;
  response.status = 429;
  response.body = "{}";
  std::string wire = SerializeResponse(response);
  EXPECT_NE(wire.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 2), "{}");
}

// ------------------------------------------------------------- metrics ----

TEST(MetricsTest, HistogramBucketsAreCumulative) {
  LatencyHistogram histogram;
  histogram.Record(1);
  histogram.Record(3);
  histogram.Record(40);
  histogram.Record(999999);  // overflow bucket
  EXPECT_EQ(histogram.count(), 4u);
  std::string out;
  histogram.Render("lat", &out);
  EXPECT_NE(out.find("lat_ms_le_1 1\n"), std::string::npos);
  EXPECT_NE(out.find("lat_ms_le_5 2\n"), std::string::npos);
  EXPECT_NE(out.find("lat_ms_le_50 3\n"), std::string::npos);
  EXPECT_NE(out.find("lat_ms_le_5000 3\n"), std::string::npos);
  EXPECT_NE(out.find("lat_ms_le_inf 4\n"), std::string::npos);
  EXPECT_NE(out.find("lat_ms_count 4\n"), std::string::npos);
}

// ------------------------------------------------------------ registry ----

TEST(RegistryTest, FingerprintIsStableAndSensitive) {
  EXPECT_EQ(FingerprintBytes("abc"), FingerprintBytes("abc"));
  EXPECT_NE(FingerprintBytes("abc"), FingerprintBytes("abd"));
  EXPECT_NE(FingerprintBytes(""), FingerprintBytes("a"));
}

TEST(RegistryTest, RegisterFindAndDedup) {
  TableRegistry registry;
  auto first = registry.RegisterCsv("t", "a,b\n1,2\n");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->rows, 1u);
  EXPECT_EQ(first->columns, 2u);

  // Identical content: same underlying table object (no reparse).
  auto again = registry.RegisterCsv("t", "a,b\n1,2\n");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->table.get(), first->table.get());

  // New content under the same name replaces the binding...
  auto replaced = registry.RegisterCsv("t", "a,b\n1,2\n3,4\n");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced->rows, 2u);
  EXPECT_NE(replaced->table.get(), first->table.get());
  // ...while the old shared_ptr keeps the old table alive.
  EXPECT_EQ(first->table->num_rows(), 1u);

  EXPECT_EQ(registry.Find("t").table.get(), replaced->table.get());
  EXPECT_EQ(registry.Find("missing").table, nullptr);
  EXPECT_FALSE(registry.RegisterCsv("", "a\n1\n").ok());
  EXPECT_FALSE(registry.RegisterCsv("bad", "").ok());
}

TEST(IndexCacheTest, HitsMissesAndSharing) {
  TableRegistry registry;
  auto entry = registry.RegisterCsv("t", "a,b\nhenry,warner\nanna,smith\n");
  ASSERT_TRUE(entry.ok());

  IndexCache cache(64 * 1024 * 1024);
  relational::ColumnIndex::Options options;
  options.q = 2;
  auto first = cache.GetOrBuild(entry->table, entry->fingerprint, 0, options);
  ASSERT_NE(first, nullptr);
  auto second = cache.GetOrBuild(entry->table, entry->fingerprint, 0, options);
  EXPECT_EQ(first.get(), second.get());

  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);

  // Different column / q / postings are distinct entries.
  cache.GetOrBuild(entry->table, entry->fingerprint, 1, options);
  relational::ColumnIndex::Options with_postings = options;
  with_postings.build_postings = true;
  cache.GetOrBuild(entry->table, entry->fingerprint, 0, with_postings);
  EXPECT_EQ(cache.stats().entries, 3u);

  EXPECT_EQ(cache.GetOrBuild(nullptr, 0, 0, options), nullptr);
  EXPECT_EQ(cache.GetOrBuild(entry->table, entry->fingerprint, 99, options),
            nullptr);
}

TEST(IndexCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  TableRegistry registry;
  auto entry = registry.RegisterCsv(
      "t", "a,b,c\nhenry,warner,smith\nanna,jones,brown\n");
  ASSERT_TRUE(entry.ok());

  relational::ColumnIndex::Options options;
  options.q = 2;
  // Budget below two entries: inserting a second evicts the first unless it
  // was just touched.
  relational::ColumnIndex probe(*entry->table, 0, options);
  IndexCache cache(probe.ApproxMemoryBytes() + probe.ApproxMemoryBytes() / 2);

  auto a = cache.GetOrBuild(entry->table, entry->fingerprint, 0, options);
  auto b = cache.GetOrBuild(entry->table, entry->fingerprint, 1, options);
  IndexCacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.entries, 2u);

  // The evicted index is still usable by holders of the shared_ptr.
  ASSERT_NE(a, nullptr);
  EXPECT_GT(a->distinct_count(), 0u);

  // An oversized single entry still caches (everything else evicts).
  IndexCache tiny(1);
  auto c = tiny.GetOrBuild(entry->table, entry->fingerprint, 2, options);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(tiny.stats().entries, 1u);
}

// --------------------------------------------------------- job manager ----

class JobManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    datagen::UserIdOptions options;
    options.rows = 300;
    dataset_ = datagen::MakeUserIdDataset(options);
    auto source = registry_.RegisterCsv(
        "people", relational::WriteCsv(dataset_.source));
    ASSERT_TRUE(source.ok()) << source.status();
    auto target = registry_.RegisterCsv(
        "logins", relational::WriteCsv(dataset_.target));
    ASSERT_TRUE(target.ok()) << target.status();
  }
  void TearDown() override { failpoint::DisarmAll(); }

  JobRequest MakeRequest() {
    JobRequest request;
    request.source_table = "people";
    request.target_table = "logins";
    request.target_column = dataset_.target_column;
    return request;
  }

  datagen::Dataset dataset_;
  TableRegistry registry_;
  IndexCache cache_{64 * 1024 * 1024};
};

// Builds JobManager options by name so appending fields to Options (the
// admission-gate knobs) never trips -Wmissing-field-initializers here.
JobManager::Options WorkerOptions(size_t workers, size_t max_queue) {
  JobManager::Options options;
  options.workers = workers;
  options.max_queue = max_queue;
  return options;
}

TEST_F(JobManagerTest, RunsJobToDone) {
  JobManager manager(&registry_, &cache_, WorkerOptions(2, 8));
  auto id = manager.Submit(MakeRequest());
  ASSERT_TRUE(id.ok()) << id.status();
  manager.Drain();

  auto snapshot = manager.Get(id.value());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->state, JobState::kDone);
  EXPECT_FALSE(snapshot->truncated);
  EXPECT_FALSE(snapshot->formula.empty());
  EXPECT_GT(snapshot->matched_rows, 0u);
  EXPECT_EQ(manager.completed(), 1u);

  // The job warmed the cache: a second identical job hits it.
  const uint64_t misses_before = cache_.stats().misses;
  auto second = manager.Submit(MakeRequest());
  ASSERT_TRUE(second.ok());
  manager.Drain();
  EXPECT_GT(cache_.stats().hits, 0u);
  EXPECT_EQ(cache_.stats().misses, misses_before);
}

TEST_F(JobManagerTest, ValidatesRequests) {
  JobManager manager(&registry_, &cache_, WorkerOptions(2, 8));
  JobRequest request = MakeRequest();
  request.source_table = "nope";
  EXPECT_TRUE(manager.Submit(request).status().IsNotFound());
  request = MakeRequest();
  request.target_column = 99;
  EXPECT_TRUE(manager.Submit(request).status().IsInvalidArgument());
  request = MakeRequest();
  request.deadline_ms = -5;
  EXPECT_TRUE(manager.Submit(request).status().IsInvalidArgument());
  EXPECT_FALSE(manager.Get(12345).ok());
  EXPECT_FALSE(manager.Cancel(12345));
}

TEST_F(JobManagerTest, RejectsWhenQueueFull) {
  // One worker stalled by the service.job delay failpoint; queue of 1.
  ASSERT_TRUE(failpoint::Arm(failpoint::kServiceJob, "delay:200ms").ok());
  JobManager manager(&registry_, &cache_, WorkerOptions(1, 1));

  auto first = manager.Submit(MakeRequest());   // taken by the worker
  ASSERT_TRUE(first.ok());
  // Give the worker a moment to pop the first job off the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto second = manager.Submit(MakeRequest());  // sits in the queue
  ASSERT_TRUE(second.ok());

  // Queue is now full: the next submit must bounce with ResourceExhausted.
  auto third = manager.Submit(MakeRequest());
  EXPECT_TRUE(third.status().IsResourceExhausted()) << third.status();
  EXPECT_EQ(manager.rejected(), 1u);

  manager.Drain();
  EXPECT_EQ(manager.completed(), 2u);
}

TEST_F(JobManagerTest, DegradesBeforeShedding) {
  // One worker stalled; watermark at queue depth 1, shed at 3. The ladder
  // must be: full-cost job, degraded jobs, THEN the first 429.
  ASSERT_TRUE(failpoint::Arm(failpoint::kServiceJob, "delay:200ms").ok());
  JobManager::Options options;
  options.workers = 1;
  options.max_queue = 3;
  options.degrade_at = 1;
  options.degraded_limits.max_candidate_formulas = 256;
  JobManager manager(&registry_, &cache_, options);

  auto first = manager.Submit(MakeRequest());  // taken by the worker
  ASSERT_TRUE(first.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto second = manager.Submit(MakeRequest());  // depth 0 -> full cost
  ASSERT_TRUE(second.ok());
  auto third = manager.Submit(MakeRequest());   // depth 1 -> degraded
  ASSERT_TRUE(third.ok());
  auto fourth = manager.Submit(MakeRequest());  // depth 2 -> degraded
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(manager.degraded(), 2u);
  EXPECT_EQ(manager.rejected(), 0u) << "degradation must precede shedding";

  auto fifth = manager.Submit(MakeRequest());   // depth 3 = max_queue -> shed
  EXPECT_TRUE(fifth.status().IsResourceExhausted());
  EXPECT_EQ(manager.rejected(), 1u);
  EXPECT_GE(manager.RetryAfterSeconds(), 1);
  EXPECT_LE(manager.RetryAfterSeconds(), 60);

  manager.Drain();
  // Degraded jobs still complete as valid (possibly truncated) results.
  auto full = manager.Get(second.value());
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->degraded);
  auto capped = manager.Get(third.value());
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->state, JobState::kDone);
  EXPECT_TRUE(capped->degraded);
  EXPECT_FALSE(capped->formula.empty());
}

TEST_F(JobManagerTest, DegradedWorkCapsAreDeterministic) {
  // The same degraded caps produce byte-identical results on repeat runs —
  // the property that makes degraded replay safe across replicas.
  JobManager::Options options;
  options.workers = 1;
  options.max_queue = 8;
  JobManager manager(&registry_, &cache_, options);
  std::vector<std::string> formulas;
  for (int run = 0; run < 2; ++run) {
    JobRequest request = MakeRequest();
    request.limits.max_candidate_formulas = 256;  // what the gate would set
    request.degraded = true;
    auto id = manager.Submit(request);
    ASSERT_TRUE(id.ok());
    manager.Drain();
    auto snapshot = manager.Get(id.value());
    ASSERT_TRUE(snapshot.ok());
    EXPECT_EQ(snapshot->state, JobState::kDone);
    EXPECT_TRUE(snapshot->degraded);
    formulas.push_back(snapshot->formula);
  }
  EXPECT_EQ(formulas[0], formulas[1]);
}

TEST_F(JobManagerTest, DeadlineProducesTruncatedDoneNotError) {
  // Stall inside the search (index.similar delay) so a 1ms deadline trips
  // mid-run; the job must land done+truncated, never failed.
  ASSERT_TRUE(failpoint::Arm(failpoint::kIndexSimilar, "delay:30ms").ok());
  JobManager manager(&registry_, &cache_, WorkerOptions(2, 8));
  JobRequest request = MakeRequest();
  request.deadline_ms = 1;
  auto id = manager.Submit(request);
  ASSERT_TRUE(id.ok());
  manager.Drain();
  auto snapshot = manager.Get(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, JobState::kDone);
  EXPECT_TRUE(snapshot->truncated);
  EXPECT_EQ(snapshot->budget_trip, "wall-clock");
}

TEST_F(JobManagerTest, FailpointErrorLandsInFailed) {
  ASSERT_TRUE(failpoint::Arm(failpoint::kServiceJob, "error:chaos").ok());
  JobManager manager(&registry_, &cache_, WorkerOptions(2, 8));
  auto id = manager.Submit(MakeRequest());
  ASSERT_TRUE(id.ok());
  manager.Drain();
  auto snapshot = manager.Get(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, JobState::kFailed);
  EXPECT_NE(snapshot->error.find("chaos"), std::string::npos);
  EXPECT_EQ(manager.failed(), 1u);
}

TEST_F(JobManagerTest, CancelQueuedJob) {
  // Stall the single worker so the second job stays queued, cancel it, and
  // verify it never ran.
  ASSERT_TRUE(failpoint::Arm(failpoint::kServiceJob, "delay:150ms").ok());
  JobManager manager(&registry_, &cache_, WorkerOptions(1, 4));
  auto running = manager.Submit(MakeRequest());
  ASSERT_TRUE(running.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto queued = manager.Submit(MakeRequest());
  ASSERT_TRUE(queued.ok());
  EXPECT_TRUE(manager.Cancel(queued.value()));
  manager.Drain();
  auto snapshot = manager.Get(queued.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, JobState::kCancelled);
  EXPECT_EQ(manager.cancelled(), 1u);
}

TEST_F(JobManagerTest, CancelRunningJobStopsViaBudget) {
  // The index.similar delay gives Cancel a window while the search runs.
  ASSERT_TRUE(failpoint::Arm(failpoint::kIndexSimilar, "delay:40ms").ok());
  JobManager manager(&registry_, &cache_, WorkerOptions(1, 4));
  auto id = manager.Submit(MakeRequest());
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(manager.Cancel(id.value()));
  manager.Drain();
  auto snapshot = manager.Get(id.value());
  ASSERT_TRUE(snapshot.ok());
  // Either the cancel landed mid-run (cancelled) or the job finished first
  // (done) — both are valid races; what must never happen is failed/hang.
  EXPECT_TRUE(snapshot->state == JobState::kCancelled ||
              snapshot->state == JobState::kDone)
      << JobStateName(snapshot->state);
}

TEST_F(JobManagerTest, TerminalJobRetentionEvictsOldest) {
  JobManager::Options retention = WorkerOptions(2, 8);
  retention.max_terminal = 2;
  JobManager manager(&registry_, &cache_, retention);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = manager.Submit(MakeRequest());
    ASSERT_TRUE(id.ok()) << id.status();
    manager.Drain();  // per-job, so terminal order matches submit order
    ids.push_back(id.value());
  }
  // Only the newest two terminal jobs are retained.
  EXPECT_FALSE(manager.Get(ids[0]).ok());
  EXPECT_FALSE(manager.Get(ids[1]).ok());
  EXPECT_EQ(manager.List().size(), 2u);
  auto third = manager.Get(ids[2]);
  ASSERT_TRUE(third.ok());
  // The sealed snapshot still serves the result after the job dropped its
  // table pins at the terminal transition.
  EXPECT_EQ(third->state, JobState::kDone);
  EXPECT_FALSE(third->formula.empty());
  EXPECT_EQ(manager.completed(), 4u);
}

TEST_F(JobManagerTest, ConcurrentIdenticalJobsAreByteIdentical) {
  // Acceptance gate: >= 8 concurrent jobs against the cached index produce
  // byte-identical formulas, equal to a direct single-threaded run.
  core::SearchOptions direct_options;
  direct_options.num_threads = 1;
  auto direct = core::DiscoverTranslation(dataset_.source, dataset_.target,
                                          dataset_.target_column,
                                          direct_options);
  ASSERT_TRUE(direct.ok()) << direct.status();
  const std::string expected =
      direct->formula().ToString(dataset_.source.schema());

  JobManager manager(&registry_, &cache_, WorkerOptions(8, 16));
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    JobRequest request = MakeRequest();
    request.options.num_threads = 2;
    auto id = manager.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(id.value());
  }
  manager.Drain();
  for (uint64_t id : ids) {
    auto snapshot = manager.Get(id);
    ASSERT_TRUE(snapshot.ok());
    ASSERT_EQ(snapshot->state, JobState::kDone)
        << "job " << id << ": " << snapshot->error;
    EXPECT_EQ(snapshot->formula, expected) << "job " << id;
  }
  EXPECT_GT(cache_.stats().hits, 0u);
}

// -------------------------------------------------------------- routes ----

HttpRequest MakeHttpRequest(const std::string& method, const std::string& path,
                            const std::string& body = "") {
  HttpRequest request;
  request.method = method;
  request.path = path;
  request.body = body;
  return request;
}

DiscoveryService::Options RouteOptions() {
  DiscoveryService::Options options;
  options.job_workers = 2;
  options.max_queue = 4;
  options.cache_bytes = 16 << 20;
  return options;
}

class ServiceRouteTest : public ::testing::Test {
 protected:
  ServiceRouteTest() : service_(RouteOptions()) {}
  void TearDown() override { failpoint::DisarmAll(); }

  // Polls GET /jobs/{id} until the state is terminal.
  Json WaitForJob(const std::string& id_text) {
    for (int i = 0; i < 2000; ++i) {
      HttpResponse response =
          service_.Handle(MakeHttpRequest("GET", "/v1/jobs/" + id_text));
      auto body = Json::Parse(response.body);
      if (!body.ok()) break;
      const Json* state_field = body->Find("state");
      if (state_field == nullptr) break;
      std::string state = state_field->AsString("");
      if (state != "queued" && state != "running") return body.value();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Json();
  }

  DiscoveryService service_;
};

TEST_F(ServiceRouteTest, HealthzAndUnknownRoutes) {
  EXPECT_EQ(service_.Handle(MakeHttpRequest("GET", "/v1/healthz")).status,
            200);
  EXPECT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/healthz")).status,
            405);
  EXPECT_EQ(service_.Handle(MakeHttpRequest("GET", "/v1/nope")).status, 404);
  EXPECT_EQ(service_.Handle(MakeHttpRequest("GET", "/v1/jobs/abc")).status,
            400);
}

TEST_F(ServiceRouteTest, HealthzReportsDrainingOnceDrainBegins) {
  EXPECT_EQ(service_.Handle(MakeHttpRequest("GET", "/v1/healthz")).status,
            200);
  service_.BeginDrain();
  HttpResponse health =
      service_.Handle(MakeHttpRequest("GET", "/v1/healthz"));
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"status\":\"draining\""), std::string::npos)
      << health.body;
  // Only health flips: data-plane endpoints keep answering during drain so
  // routers can poll in-flight jobs to completion.
  EXPECT_EQ(service_.Handle(MakeHttpRequest("GET", "/v1/jobs")).status, 200);
  std::string metrics =
      service_.Handle(MakeHttpRequest("GET", "/v1/metrics")).body;
  EXPECT_NE(metrics.find("mcsm_service_draining 1"), std::string::npos);
}

TEST_F(ServiceRouteTest, ShedJobsCarryRetryAfter) {
  // Stall the workers so submissions pile up to the queue cap; service_
  // runs 2 workers with max_queue 4 (fixture options).
  ASSERT_TRUE(failpoint::Arm(failpoint::kServiceJob, "delay:300ms").ok());
  Json table = Json::Object();
  table.Set("name", Json::Str("people"));
  table.Set("csv", Json::Str("first,last\nhenry,warner\nanna,smith\n"));
  ASSERT_EQ(
      service_.Handle(MakeHttpRequest("POST", "/v1/tables", table.Dump()))
          .status,
      200);
  Json target = Json::Object();
  target.Set("name", Json::Str("logins"));
  target.Set("csv", Json::Str("login\nhwarner\nasmith\n"));
  ASSERT_EQ(
      service_.Handle(MakeHttpRequest("POST", "/v1/tables", target.Dump()))
          .status,
      200);

  Json job = Json::Object();
  job.Set("source_table", Json::Str("people"));
  job.Set("target_table", Json::Str("logins"));
  job.Set("target_column", Json::Number(0));
  const std::string body = job.Dump();

  // Submit until the queue sheds; the 429 must carry Retry-After seconds.
  HttpResponse shed;
  for (int i = 0; i < 32 && shed.status != 429; ++i) {
    shed = service_.Handle(MakeHttpRequest("POST", "/v1/jobs", body));
  }
  ASSERT_EQ(shed.status, 429) << shed.body;
  bool has_retry_after = false;
  for (const auto& [name, value] : shed.headers) {
    if (name == "Retry-After") {
      has_retry_after = true;
      EXPECT_GE(std::atoi(value.c_str()), 1) << value;
      EXPECT_LE(std::atoi(value.c_str()), 60) << value;
    }
  }
  EXPECT_TRUE(has_retry_after);
  std::string metrics =
      service_.Handle(MakeHttpRequest("GET", "/v1/metrics")).body;
  EXPECT_NE(metrics.find("mcsm_jobs_shed_total"), std::string::npos);
  failpoint::DisarmAll();  // let the backlog finish at full speed
  service_.jobs().Drain();
}

TEST_F(ServiceRouteTest, FullTableAndJobFlow) {
  Json table = Json::Object();
  table.Set("name", Json::Str("people"));
  table.Set("csv", Json::Str("first,last\nhenry,warner\nanna,smith\n"
                             "bob,jones\ncarol,white\n"));
  HttpResponse posted =
      service_.Handle(MakeHttpRequest("POST", "/v1/tables", table.Dump()));
  ASSERT_EQ(posted.status, 200) << posted.body;

  Json target = Json::Object();
  target.Set("name", Json::Str("logins"));
  target.Set("csv",
             Json::Str("login\nhwarner\nasmith\nbjones\ncwhite\n"));
  ASSERT_EQ(
      service_.Handle(MakeHttpRequest("POST", "/v1/tables", target.Dump()))
          .status,
      200);

  HttpResponse listed = service_.Handle(MakeHttpRequest("GET", "/v1/tables"));
  auto tables = Json::Parse(listed.body);
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables->Find("tables")->size(), 2u);

  Json job = Json::Object();
  job.Set("source_table", Json::Str("people"));
  job.Set("target_table", Json::Str("logins"));
  job.Set("target_column", Json::Number(0));
  HttpResponse accepted =
      service_.Handle(MakeHttpRequest("POST", "/v1/jobs", job.Dump()));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  auto accepted_body = Json::Parse(accepted.body);
  ASSERT_TRUE(accepted_body.ok());
  const Json* id = accepted_body->Find("id");
  ASSERT_NE(id, nullptr);

  Json done = WaitForJob(Json::Number(id->AsNumber(0)).Dump());
  ASSERT_TRUE(done.is_object());
  EXPECT_EQ(done.Find("state")->AsString(""), "done");
  EXPECT_EQ(done.Find("formula")->AsString(""), "first[1-1]last[1-n]");

  // Metrics text mentions the cache and the jobs counters.
  HttpResponse metrics = service_.Handle(MakeHttpRequest("GET", "/v1/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain");
  EXPECT_NE(metrics.body.find("mcsm_jobs_completed 1"), std::string::npos);
  EXPECT_NE(metrics.body.find("mcsm_index_cache_misses"), std::string::npos);
}

TEST_F(ServiceRouteTest, BadRequestsAreMapped) {
  EXPECT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/tables", "notjson"))
                .status,
            400);
  EXPECT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/tables", "[]")).status,
            400);
  EXPECT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/jobs",
                                            R"({"source_table":"x"})"))
                .status,
            400);
  // Unregistered tables: 404.
  EXPECT_EQ(
      service_
          .Handle(MakeHttpRequest(
              "POST", "/v1/jobs",
              R"({"source_table":"x","target_table":"y","target_column":0})"))
          .status,
      404);
  // Unknown job id: 404 on GET and DELETE.
  EXPECT_EQ(service_.Handle(MakeHttpRequest("GET", "/v1/jobs/999")).status,
            404);
  EXPECT_EQ(service_.Handle(MakeHttpRequest("DELETE", "/v1/jobs/999")).status,
            404);
}

TEST_F(ServiceRouteTest, NumThreadsValidated) {
  // Validation happens before table lookup, so no tables are needed here.
  const char* negative =
      R"({"source_table":"x","target_table":"y","target_column":0,"num_threads":-4})";
  const char* fractional =
      R"({"source_table":"x","target_table":"y","target_column":0,"num_threads":1.5})";
  const char* huge =
      R"({"source_table":"x","target_table":"y","target_column":0,"num_threads":10000000000})";
  EXPECT_EQ(
      service_.Handle(MakeHttpRequest("POST", "/v1/jobs", negative)).status,
      400);
  EXPECT_EQ(
      service_.Handle(MakeHttpRequest("POST", "/v1/jobs", fractional)).status,
      400);
  EXPECT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/jobs", huge)).status,
            400);
}

TEST_F(ServiceRouteTest, LargeNumThreadsIsClampedNotFatal) {
  Json table = Json::Object();
  table.Set("name", Json::Str("people"));
  table.Set("csv", Json::Str("first,last\nhenry,warner\nanna,smith\n"));
  ASSERT_EQ(
      service_.Handle(MakeHttpRequest("POST", "/v1/tables", table.Dump()))
          .status,
      200);
  Json target = Json::Object();
  target.Set("name", Json::Str("logins"));
  target.Set("csv", Json::Str("login\nhwarner\nasmith\n"));
  ASSERT_EQ(
      service_.Handle(MakeHttpRequest("POST", "/v1/tables", target.Dump()))
          .status,
      200);

  // 1e9 passes validation but must be clamped to hardware concurrency —
  // the job completes instead of killing the worker on thread exhaustion.
  Json job = Json::Object();
  job.Set("source_table", Json::Str("people"));
  job.Set("target_table", Json::Str("logins"));
  job.Set("target_column", Json::Number(0));
  job.Set("num_threads", Json::Number(1e9));
  HttpResponse accepted =
      service_.Handle(MakeHttpRequest("POST", "/v1/jobs", job.Dump()));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  auto accepted_body = Json::Parse(accepted.body);
  ASSERT_TRUE(accepted_body.ok());
  Json done =
      WaitForJob(Json::Number(accepted_body->Find("id")->AsNumber(0)).Dump());
  ASSERT_TRUE(done.is_object());
  EXPECT_EQ(done.Find("state")->AsString(""), "done");
}

TEST_F(ServiceRouteTest, V1RoutesAndUnversionedPathsAre404) {
  // /v1/ is the only routed surface: the pre-/v1 paths answer 404 with the
  // usual JSON error body, and nothing carries a Deprecation header.
  HttpResponse v1 = service_.Handle(MakeHttpRequest("GET", "/v1/healthz"));
  EXPECT_EQ(v1.status, 200);
  EXPECT_TRUE(v1.headers.empty());
  for (const char* path : {"/healthz", "/metrics", "/tables", "/tables/t",
                           "/jobs", "/jobs/1", "/jobs/1/trace", "/v1"}) {
    for (const char* method : {"GET", "POST"}) {
      HttpResponse response = service_.Handle(MakeHttpRequest(method, path));
      EXPECT_EQ(response.status, 404) << method << " " << path;
      EXPECT_TRUE(response.headers.empty()) << method << " " << path;
      auto body = Json::Parse(response.body);
      ASSERT_TRUE(body.ok()) << response.body;
      EXPECT_EQ(body->Find("error")->AsString(""), "no such endpoint");
      EXPECT_EQ(body->Find("schema_version")->AsNumber(0), 1);
    }
  }

  // Every JSON response carries the wire-format version — success and error.
  auto ok_body = Json::Parse(v1.body);
  ASSERT_TRUE(ok_body.ok());
  EXPECT_EQ(ok_body->Find("schema_version")->AsNumber(0), 1);
  HttpResponse missing = service_.Handle(MakeHttpRequest("GET", "/v1/nope"));
  EXPECT_EQ(missing.status, 404);
  auto err_body = Json::Parse(missing.body);
  ASSERT_TRUE(err_body.ok());
  EXPECT_EQ(err_body->Find("schema_version")->AsNumber(0), 1);

  EXPECT_EQ(service_.Handle(MakeHttpRequest("GET", "/v1/metrics")).status,
            200);
  EXPECT_EQ(service_.Handle(MakeHttpRequest("GET", "/v1/tables")).status,
            200);
}

TEST_F(ServiceRouteTest, SearchKnobsValidatedAtIntake) {
  Json table = Json::Object();
  table.Set("name", Json::Str("people"));
  table.Set("csv", Json::Str("first,last\nhenry,warner\nanna,smith\n"));
  ASSERT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/tables",
                                            table.Dump())).status,
            200);
  Json target = Json::Object();
  target.Set("name", Json::Str("logins"));
  target.Set("csv", Json::Str("login\nhwarner\nasmith\n"));
  ASSERT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/tables",
                                            target.Dump())).status,
            200);

  // SearchOptions::Validate runs at Submit; bad knobs map to 400.
  Json job = Json::Object();
  job.Set("source_table", Json::Str("people"));
  job.Set("target_table", Json::Str("logins"));
  job.Set("target_column", Json::Number(0));
  job.Set("sample_fraction", Json::Number(1.5));
  EXPECT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/jobs", job.Dump()))
                .status,
            400);
  job.Set("sample_fraction", Json::Number(0));
  EXPECT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/jobs", job.Dump()))
                .status,
            400);
  job.Set("sample_fraction", Json::Number(0.5));
  job.Set("q", Json::Number(0));
  EXPECT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/jobs", job.Dump()))
                .status,
            400);
}

TEST_F(ServiceRouteTest, TracedJobServesTraceAndExplain) {
  Json table = Json::Object();
  table.Set("name", Json::Str("people"));
  table.Set("csv", Json::Str("first,last\nhenry,warner\nanna,smith\n"
                             "bob,jones\ncarol,white\n"));
  ASSERT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/tables",
                                            table.Dump())).status,
            200);
  Json target = Json::Object();
  target.Set("name", Json::Str("logins"));
  target.Set("csv", Json::Str("login\nhwarner\nasmith\nbjones\ncwhite\n"));
  ASSERT_EQ(service_.Handle(MakeHttpRequest("POST", "/v1/tables",
                                            target.Dump())).status,
            200);

  auto submit = [&](bool trace) -> std::string {
    Json job = Json::Object();
    job.Set("source_table", Json::Str("people"));
    job.Set("target_table", Json::Str("logins"));
    job.Set("target_column", Json::Number(0));
    if (trace) job.Set("trace", Json::Bool(true));
    HttpResponse accepted =
        service_.Handle(MakeHttpRequest("POST", "/v1/jobs", job.Dump()));
    EXPECT_EQ(accepted.status, 202) << accepted.body;
    auto body = Json::Parse(accepted.body);
    EXPECT_TRUE(body.ok());
    return Json::Number(body->Find("id")->AsNumber(0)).Dump();
  };

  const std::string traced_id = submit(true);
  const std::string untraced_id = submit(false);

  Json done = WaitForJob(traced_id);
  ASSERT_TRUE(done.is_object());
  EXPECT_EQ(done.Find("state")->AsString(""), "done");
  EXPECT_TRUE(done.Find("traced")->AsBool(false));
  // The terminal snapshot carries the rendered decision log.
  const Json* explain = done.Find("explain");
  ASSERT_NE(explain, nullptr);
  EXPECT_NE(explain->AsString("").find("discovery explain"),
            std::string::npos);

  HttpResponse trace = service_.Handle(
      MakeHttpRequest("GET", "/v1/jobs/" + traced_id + "/trace"));
  EXPECT_EQ(trace.status, 200) << trace.body;
  auto trace_body = Json::Parse(trace.body);
  ASSERT_TRUE(trace_body.ok());
  EXPECT_EQ(trace_body->Find("schema_version")->AsNumber(0), 1);
  const Json* events = trace_body->Find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->size(), 0u);

  // An untraced job 404s on the trace endpoint; so does an unknown id.
  WaitForJob(untraced_id);
  EXPECT_EQ(service_
                .Handle(MakeHttpRequest("GET", "/v1/jobs/" + untraced_id +
                                                   "/trace"))
                .status,
            404);
  EXPECT_EQ(service_.Handle(MakeHttpRequest("GET", "/v1/jobs/999/trace"))
                .status,
            404);

  // Trace activity shows in /metrics.
  HttpResponse metrics =
      service_.Handle(MakeHttpRequest("GET", "/v1/metrics"));
  EXPECT_NE(metrics.body.find("mcsm_jobs_traced 1"), std::string::npos);
  EXPECT_EQ(metrics.body.find("mcsm_trace_events_total 0\n"),
            std::string::npos);
}

// ----------------------------------------------------------- end-to-end ----

// Minimal blocking HTTP client for the socket-level test.
std::string FetchOnce(int port, const std::string& raw_request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < raw_request.size()) {
    ssize_t n = ::send(fd, raw_request.data() + sent,
                       raw_request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    out.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(HttpServerTest, ServesOverRealSockets) {
  DiscoveryService service(RouteOptions());
  HttpServer::Options options;
  options.port = 0;  // ephemeral
  options.workers = 2;
  HttpServer server(options, [&service](const HttpRequest& request) {
    return service.Handle(request);
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  std::string health = FetchOnce(
      server.port(), "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find(R"("status":"ok")"), std::string::npos) << health;
  EXPECT_NE(health.find(R"("schema_version":1)"), std::string::npos);

  // An unversioned path is not routed: 404, the JSON error, no header.
  std::string unversioned = FetchOnce(
      server.port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(unversioned.find("HTTP/1.1 404"), std::string::npos)
      << unversioned;
  EXPECT_NE(unversioned.find(R"("error":"no such endpoint")"),
            std::string::npos)
      << unversioned;
  EXPECT_EQ(unversioned.find("Deprecation"), std::string::npos) << unversioned;

  const std::string body =
      R"({"name":"t","csv":"a,b\nhenry,warner\n"})";
  std::string posted = FetchOnce(
      server.port(),
      "POST /v1/tables HTTP/1.1\r\nHost: x\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(posted.find("HTTP/1.1 200 OK"), std::string::npos) << posted;
  EXPECT_NE(posted.find("\"rows\":1"), std::string::npos) << posted;

  std::string malformed = FetchOnce(server.port(), "BROKEN\r\n\r\n");
  EXPECT_NE(malformed.find("HTTP/1.1 400"), std::string::npos) << malformed;

  // Parallel requests through the worker pool.
  std::vector<std::thread> clients;
  std::vector<std::string> responses(8);
  for (size_t i = 0; i < responses.size(); ++i) {
    clients.emplace_back([&responses, i, port = server.port()] {
      responses[i] =
          FetchOnce(port, "GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    });
  }
  for (auto& t : clients) t.join();
  for (const std::string& response : responses) {
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  }

  server.Shutdown();
  // After shutdown the port refuses connections (empty response).
  EXPECT_EQ(FetchOnce(server.port(),
                      "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            "");
}

TEST(HttpServerTest, AcceptFailpointDropsConnectionsButServerSurvives) {
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm(failpoint::kServiceAccept, "error@2").ok());
  HttpServer::Options options;
  options.port = 0;
  options.workers = 1;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse response;
    response.body = R"({"ok":true})";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  // Sequential fetches: every 2nd accept is dropped on the floor (client
  // sees an empty response), the others are served; the server never dies.
  int served = 0;
  int dropped = 0;
  for (int i = 0; i < 6; ++i) {
    std::string response = FetchOnce(
        server.port(), "GET / HTTP/1.1\r\nHost: x\r\n\r\n");
    if (response.empty()) {
      ++dropped;
    } else {
      EXPECT_NE(response.find("200 OK"), std::string::npos);
      ++served;
    }
  }
  EXPECT_EQ(served, 3);
  EXPECT_EQ(dropped, 3);

  failpoint::DisarmAll();
  EXPECT_NE(FetchOnce(server.port(), "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("200 OK"),
            std::string::npos);
  server.Shutdown();
}

TEST(HttpServerTest, ConcurrentShutdownIsSafe) {
  HttpServer::Options options;
  options.port = 0;
  options.workers = 2;
  HttpServer server(options, [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());

  // Racing Shutdown callers (e.g. signal path vs. destructor) must
  // serialize — exactly one performs the joins, the rest wait it out.
  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&server] { server.Shutdown(); });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(FetchOnce(server.port(),
                      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            "");
  server.Shutdown();  // still idempotent after the race
}

}  // namespace
}  // namespace mcsm::service
