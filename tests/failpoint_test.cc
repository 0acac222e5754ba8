#include "common/failpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include <gtest/gtest.h>

#include "common/result.h"

namespace mcsm::failpoint {
namespace {

// Each test restores a clean registry (the suite runs without
// MCSM_FAILPOINTS, so ReloadFromEnv is equivalent to DisarmAll here).
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmAll(); }
};

TEST_F(FailpointTest, DisabledByDefault) {
  EXPECT_FALSE(Enabled());
  EXPECT_TRUE(Trigger(kCsvRead).ok());
}

TEST_F(FailpointTest, RegisteredSitesListsAllCanonicalNames) {
  auto sites = RegisteredSites();
  for (const char* site : {kCsvRead, kCsvWrite, kIndexSimilar, kIndexPattern,
                           kSamplerSample, kServiceAccept, kServiceJob,
                           kClientConnect, kClientRead, kPagerRead,
                           kPagerWrite}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << site;
  }
  EXPECT_EQ(sites.size(), 11u);
}

TEST_F(FailpointTest, ArmErrorTriggersInternal) {
  ASSERT_TRUE(Arm(kCsvRead, "error").ok());
  EXPECT_TRUE(Enabled());
  Status st = Trigger(kCsvRead);
  EXPECT_TRUE(st.IsInternal());
  // Other sites stay clean.
  EXPECT_TRUE(Trigger(kCsvWrite).ok());
}

TEST_F(FailpointTest, ArmErrorWithCustomMessage) {
  ASSERT_TRUE(Arm(kPagerWrite, "error:disk on fire").ok());
  Status st = Trigger(kPagerWrite);
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.message().find("disk on fire"), std::string::npos);
}

TEST_F(FailpointTest, ArmDelaySleepsAndSucceeds) {
  ASSERT_TRUE(Arm(kIndexSimilar, "delay:20ms").ok());
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(Trigger(kIndexSimilar).ok());
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 15);
}

TEST_F(FailpointTest, StrideFiresEveryNthHit) {
  ASSERT_TRUE(Arm(kCsvRead, "error@3").ok());
  int failures = 0;
  for (int i = 0; i < 9; ++i) {
    if (!Trigger(kCsvRead).ok()) ++failures;
  }
  EXPECT_EQ(failures, 3);
}

TEST_F(FailpointTest, UnknownSiteRejected) {
  EXPECT_FALSE(Arm("no.such.site", "error").ok());
}

TEST_F(FailpointTest, MalformedSpecRejected) {
  EXPECT_FALSE(Arm(kCsvRead, "explode").ok());
  EXPECT_FALSE(Arm(kCsvRead, "delay:ms").ok());
  EXPECT_FALSE(Arm(kCsvRead, "error@0").ok());
  EXPECT_FALSE(Arm(kCsvRead, "").ok());
}

TEST_F(FailpointTest, SpecListArmsMultipleSites) {
  ASSERT_TRUE(
      ArmFromSpecList("csv.read=error;index.similar=delay:1ms").ok());
  EXPECT_FALSE(Trigger(kCsvRead).ok());
  EXPECT_TRUE(Trigger(kIndexSimilar).ok());  // delay, not error
  EXPECT_TRUE(Enabled());
}

TEST_F(FailpointTest, DisarmRestoresCleanState) {
  ASSERT_TRUE(Arm(kCsvRead, "error").ok());
  Disarm(kCsvRead);
  EXPECT_FALSE(Enabled());
  EXPECT_TRUE(Trigger(kCsvRead).ok());
}

TEST_F(FailpointTest, ReloadFromEnvClearsProgrammaticArms) {
  ASSERT_TRUE(Arm(kCsvRead, "error").ok());
  ReloadFromEnv();  // no MCSM_FAILPOINTS in the test environment
  EXPECT_TRUE(Trigger(kCsvRead).ok());
}

TEST_F(FailpointTest, DisarmAllConsumesTheEnvLatch) {
  // Regression: DisarmAll must consume the lazy MCSM_FAILPOINTS parse, so a
  // trigger after it can never resurrect env arms that were just cleared.
  // (When this test runs in its own process — the ctest layout — the env
  // var is still unread here and this exercises the real first-use path.)
  ::setenv("MCSM_FAILPOINTS", "csv.read=error", /*overwrite=*/1);
  DisarmAll();
  EXPECT_FALSE(Enabled());
  EXPECT_TRUE(Trigger(kCsvRead).ok());
  ::unsetenv("MCSM_FAILPOINTS");
}

TEST_F(FailpointTest, MacroPropagatesError) {
  ASSERT_TRUE(Arm(kCsvWrite, "error").ok());
  auto body = []() -> Status {
    MCSM_FAILPOINT(kCsvWrite);
    return Status::OK();
  };
  EXPECT_TRUE(body().IsInternal());
  DisarmAll();
  EXPECT_TRUE(body().ok());
}

}  // namespace
}  // namespace mcsm::failpoint
