// Chaos suite: runs the discovery pipeline (CSV I/O -> translation search ->
// SQL execution) with faults injected at every registered failpoint site and
// asserts the pipeline always either returns a clean error Status or a
// degraded-but-valid result — never crashes, hangs, or aborts.
//
// The suite is also run by CI with MCSM_FAILPOINTS set (one site per matrix
// leg), so every assertion must hold regardless of which sites the
// environment arms on top of the programmatic ones.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/matcher.h"
#include "datagen/datasets.h"
#include "relational/csv.h"
#include "relational/database.h"
#include "service/job_manager.h"
#include "service/registry.h"
#include "sql/engine.h"
#include "temp_path.h"

namespace mcsm {
namespace {

// One shared small dataset: chaos runs exercise control flow, not accuracy.
const datagen::Dataset& ChaosDataset() {
  static const datagen::Dataset* dataset = [] {
    datagen::UserIdOptions o;
    o.rows = 400;
    return new datagen::Dataset(datagen::MakeUserIdDataset(o));
  }();
  return *dataset;
}

core::SearchOptions ChaosSearchOptions() {
  core::SearchOptions o;
  o.sample_fraction = 0.10;
  return o;
}

// The full pipeline a client would run: persist the source table as CSV,
// read it back permissively, discover a translation, and execute a query.
// Any failure must surface as a Status from here, nothing else.
Status RunPipeline() {
  const datagen::Dataset& data = ChaosDataset();

  const std::string path = UniqueTempPath("mcsm_chaos", ".csv");
  MCSM_RETURN_IF_ERROR(relational::WriteCsvFile(data.source, path));

  relational::CsvOptions csv_options;
  csv_options.permissive = true;
  relational::CsvReadReport report;
  MCSM_ASSIGN_OR_RETURN(relational::Table source,
                        relational::ReadCsvFile(path, csv_options, &report));
  // Permissive-mode invariant: every kept row landed in the table.
  EXPECT_EQ(report.rows_kept, source.num_rows());

  MCSM_ASSIGN_OR_RETURN(
      core::DiscoveredTranslation discovered,
      core::DiscoverTranslation(source, data.target, data.target_column,
                                ChaosSearchOptions()));
  // A truncated or incomplete result is valid degraded output; only a
  // complete formula carries SQL worth executing.
  if (!discovered.sql.empty()) {
    relational::Database db;
    MCSM_RETURN_IF_ERROR(db.CreateTable("t1", std::move(source)));
    sql::Engine engine(&db);
    MCSM_RETURN_IF_ERROR(
        engine.Execute("select count(*) from t1").status());
  }
  return Status::OK();
}

class ChaosTest : public ::testing::Test {
 protected:
  // Restore whatever MCSM_FAILPOINTS specifies (nothing, in local runs) so
  // tests neither leak programmatic arms nor clobber the CI matrix state.
  void SetUp() override { failpoint::ReloadFromEnv(); }
  void TearDown() override {
    failpoint::ReloadFromEnv();
    std::remove(UniqueTempPath("mcsm_chaos", ".csv").c_str());
  }
};

TEST_F(ChaosTest, PipelineUnderEnvironmentFailpoints) {
  // Runs under whatever the environment armed (the CI chaos matrix); with a
  // clean environment this is the baseline green path.
  Status st = RunPipeline();
  EXPECT_TRUE(st.ok() || !st.ToString().empty());
}

TEST_F(ChaosTest, ErrorInjectionAtEverySiteDegradesCleanly) {
  for (const std::string& site : failpoint::RegisteredSites()) {
    SCOPED_TRACE(site);
    failpoint::DisarmAll();
    ASSERT_TRUE(failpoint::Arm(site, "error:injected by chaos suite").ok());
    Status st = RunPipeline();
    // Either the fault was swallowed by a degradation path (permissive CSV,
    // anytime search) or it surfaced as the injected Internal error.
    EXPECT_TRUE(st.ok() || st.IsInternal()) << st.ToString();
  }
}

TEST_F(ChaosTest, StridedErrorInjectionStillCompletes) {
  for (const std::string& site : failpoint::RegisteredSites()) {
    SCOPED_TRACE(site);
    failpoint::DisarmAll();
    ASSERT_TRUE(failpoint::Arm(site, "error@3").ok());
    Status st = RunPipeline();
    EXPECT_TRUE(st.ok() || st.IsInternal()) << st.ToString();
  }
}

TEST_F(ChaosTest, DelayInjectionNeverAltersTheOutcome) {
  // Baseline (no injection beyond the environment's).
  failpoint::DisarmAll();
  Status baseline = RunPipeline();
  for (const std::string& site : failpoint::RegisteredSites()) {
    SCOPED_TRACE(site);
    failpoint::DisarmAll();
    ASSERT_TRUE(failpoint::Arm(site, "delay:5ms").ok());
    Status st = RunPipeline();
    // A delay is not an error: the pipeline's verdict must match the
    // uninjected run (delays only matter once a deadline budget is set).
    EXPECT_EQ(st.ok(), baseline.ok()) << st.ToString();
  }
}

// Submits `count` identical jobs against a fresh registry + cache + manager
// and waits for every one to reach a terminal state. Returns those states.
// Used under failpoint injection: the invariant is that jobs always land
// somewhere terminal — failed is acceptable under an armed error site,
// hanging or crashing never is.
std::vector<service::JobState> RunServiceJobs(size_t count) {
  const datagen::Dataset& data = ChaosDataset();
  service::TableRegistry registry;
  auto source = registry.RegisterCsv("people",
                                     relational::WriteCsv(data.source));
  auto target = registry.RegisterCsv("logins",
                                     relational::WriteCsv(data.target));
  std::vector<service::JobState> states;
  if (!source.ok() || !target.ok()) return states;  // csv.read armed: fine

  service::IndexCache cache(64 * 1024 * 1024);
  service::JobManager::Options options;
  options.workers = 2;
  options.max_queue = count;
  service::JobManager manager(&registry, &cache, options);
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < count; ++i) {
    service::JobRequest request;
    request.source_table = "people";
    request.target_table = "logins";
    request.target_column = data.target_column;
    request.options = ChaosSearchOptions();
    auto id = manager.Submit(request);
    if (id.ok()) ids.push_back(id.value());
  }
  manager.Drain();
  for (uint64_t id : ids) {
    auto snapshot = manager.Get(id);
    if (snapshot.ok()) states.push_back(snapshot->state);
  }
  return states;
}

TEST_F(ChaosTest, ServiceJobsUnderErrorInjectionLandTerminal) {
  for (const char* spec : {"error:injected", "error@2"}) {
    SCOPED_TRACE(spec);
    failpoint::DisarmAll();
    ASSERT_TRUE(failpoint::Arm(failpoint::kServiceJob, spec).ok());
    std::vector<service::JobState> states = RunServiceJobs(4);
    ASSERT_EQ(states.size(), 4u);
    for (service::JobState state : states) {
      // Drain returned, so every job is terminal; under service.job error
      // injection the only legal outcomes are failed (fault fired) or done
      // (stride skipped this job).
      EXPECT_TRUE(state == service::JobState::kFailed ||
                  state == service::JobState::kDone)
          << service::JobStateName(state);
    }
  }
}

TEST_F(ChaosTest, ServiceJobsUnderSearchFaultsLandTerminal) {
  // Faults inside the search (index.similar) must surface per-job as failed
  // or degrade to done — and never wedge the manager.
  for (const char* spec : {"error:injected", "delay:10ms"}) {
    SCOPED_TRACE(spec);
    failpoint::DisarmAll();
    ASSERT_TRUE(failpoint::Arm(failpoint::kIndexSimilar, spec).ok());
    std::vector<service::JobState> states = RunServiceJobs(3);
    ASSERT_EQ(states.size(), 3u);
    for (service::JobState state : states) {
      EXPECT_TRUE(state == service::JobState::kFailed ||
                  state == service::JobState::kDone)
          << service::JobStateName(state);
    }
  }
}

TEST_F(ChaosTest, ConcurrentServiceJobsAreDeterministic) {
  // N identical concurrent jobs produce byte-identical formulas — including
  // under a delay failpoint, which perturbs timing but may not perturb
  // results.
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm(failpoint::kIndexSimilar, "delay:1ms").ok());
  const datagen::Dataset& data = ChaosDataset();
  service::TableRegistry registry;
  auto source = registry.RegisterCsv("people",
                                     relational::WriteCsv(data.source));
  auto target = registry.RegisterCsv("logins",
                                     relational::WriteCsv(data.target));
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(target.ok());
  service::IndexCache cache(64 * 1024 * 1024);
  service::JobManager::Options options;
  options.workers = 4;
  options.max_queue = 8;
  service::JobManager manager(&registry, &cache, options);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    service::JobRequest request;
    request.source_table = "people";
    request.target_table = "logins";
    request.target_column = data.target_column;
    request.options = ChaosSearchOptions();
    auto id = manager.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  manager.Drain();
  std::set<std::string> formulas;
  for (uint64_t id : ids) {
    auto snapshot = manager.Get(id);
    ASSERT_TRUE(snapshot.ok());
    ASSERT_EQ(snapshot->state, service::JobState::kDone)
        << snapshot->error;
    formulas.insert(snapshot->formula);
  }
  EXPECT_EQ(formulas.size(), 1u) << "jobs diverged";
}

TEST_F(ChaosTest, DelayPlusDeadlineYieldsTruncatedNotError) {
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm(failpoint::kIndexPattern, "delay:50ms").ok());
  core::SearchOptions options = ChaosSearchOptions();
  options.env.budget.wall_ms = 75;
  const datagen::Dataset& data = ChaosDataset();
  auto d = core::DiscoverTranslation(data.source, data.target,
                                     data.target_column, options);
  // The injected latency eats the deadline; anytime semantics demand a
  // result (possibly truncated), not an error and not a hang.
  ASSERT_TRUE(d.ok()) << d.status().ToString();
}

}  // namespace
}  // namespace mcsm
