// Coverage for the cluster layer: member-list parsing, consistent-hash ring
// properties, health-gated membership transitions (up / draining / down),
// and an end-to-end pass through ClusterRouter over two live replicas —
// including a replica kill with job replay on the surviving peer, asserting
// the replayed result is byte-identical (the determinism contract).

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "service/client.h"
#include "service/cluster.h"
#include "service/http.h"
#include "service/json.h"
#include "service/service.h"

namespace mcsm::service {
namespace {

// ------------------------------------------------------------- members ----

TEST(MemberListTest, ParsesHostPortList) {
  auto members = ParseMemberList("127.0.0.1:9001, 127.0.0.1:9002,10.0.0.3:80");
  ASSERT_TRUE(members.ok()) << members.status();
  ASSERT_EQ(members->size(), 3u);
  EXPECT_EQ((*members)[0].Key(), "127.0.0.1:9001");
  EXPECT_EQ((*members)[2].host, "10.0.0.3");
  EXPECT_EQ((*members)[2].port, 80);
}

TEST(MemberListTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseMemberList("").ok());
  EXPECT_FALSE(ParseMemberList(",,,").ok());
  EXPECT_FALSE(ParseMemberList("hostonly").ok());
  EXPECT_FALSE(ParseMemberList("127.0.0.1:").ok());
  EXPECT_FALSE(ParseMemberList(":8080").ok());
  EXPECT_FALSE(ParseMemberList("127.0.0.1:abc").ok());
  EXPECT_FALSE(ParseMemberList("127.0.0.1:70000").ok());
  // Duplicates are a config error, not a capacity boost.
  EXPECT_FALSE(ParseMemberList("a:1,a:1").ok());
}

// ---------------------------------------------------------------- ring ----

std::vector<Member> ThreeMembers() {
  return {{"127.0.0.1", 9001}, {"127.0.0.1", 9002}, {"127.0.0.1", 9003}};
}

TEST(HashRingTest, OwnerIsDeterministic) {
  HashRing a(ThreeMembers());
  HashRing b(ThreeMembers());
  for (uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(a.OwnerIndex(key * 0x9E3779B97F4A7C15ULL),
              b.OwnerIndex(key * 0x9E3779B97F4A7C15ULL));
  }
}

TEST(HashRingTest, KeysSpreadAcrossMembers) {
  HashRing ring(ThreeMembers());
  std::vector<int> hits(3, 0);
  for (uint64_t key = 0; key < 3000; ++key) {
    ++hits[ring.OwnerIndex(key * 0x9E3779B97F4A7C15ULL)];
  }
  // With 64 vnodes per member no replica should own a trivial share.
  for (int count : hits) EXPECT_GT(count, 300);
}

TEST(HashRingTest, SuccessionVisitsEveryMemberOnceOwnerFirst) {
  HashRing ring(ThreeMembers());
  for (uint64_t key : {0ULL, 17ULL, 0xDEADBEEFULL, ~0ULL}) {
    std::vector<size_t> order = ring.Succession(key);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], ring.OwnerIndex(key));
    EXPECT_EQ(std::set<size_t>(order.begin(), order.end()).size(), 3u);
  }
}

TEST(HashRingTest, SingleMemberOwnsEverything) {
  HashRing ring({{"127.0.0.1", 9001}});
  EXPECT_EQ(ring.OwnerIndex(123), 0u);
  EXPECT_EQ(ring.Succession(123), std::vector<size_t>{0});
}

// -------------------------------------------------------------- health ----

/// A replica on an ephemeral port, with its own DiscoveryService.
struct Replica {
  static DiscoveryService::Options DefaultOptions() {
    DiscoveryService::Options options;
    options.job_workers = 2;
    options.max_queue = 4;
    options.cache_bytes = 16 << 20;
    return options;
  }

  explicit Replica(DiscoveryService::Options options = DefaultOptions())
      : service(options),
        server(ServerOptions(), [this](const HttpRequest& request) {
          return service.Handle(request);
        }) {
    Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  static HttpServer::Options ServerOptions() {
    HttpServer::Options options;
    options.port = 0;
    options.workers = 2;
    return options;
  }

  Member member() const { return Member{"127.0.0.1", server.port()}; }

  DiscoveryService service;
  HttpServer server;
};

HealthChecker::Options FastProbes() {
  HealthChecker::Options options;
  options.interval_ms = 50;
  options.timeout_ms = 300;
  options.down_after = 2;
  return options;
}

TEST(HealthCheckerTest, MarksUpDrainingAndDown) {
  Replica healthy;
  Replica draining;
  draining.service.BeginDrain();

  // A member nobody listens on: bind + release an ephemeral port.
  int dead_port = 0;
  {
    Replica probe;
    dead_port = probe.server.port();
    probe.server.Shutdown();
  }

  HealthChecker checker(
      {healthy.member(), draining.member(), Member{"127.0.0.1", dead_port}},
      FastProbes());

  checker.ProbeOnce();
  EXPECT_EQ(checker.state(0), MemberState::kUp);
  EXPECT_EQ(checker.state(1), MemberState::kDraining);
  // Never-seen-healthy member is down immediately (don't route to it).
  EXPECT_EQ(checker.state(2), MemberState::kDown);

  // A healthy member that dies flips to kDown only after down_after
  // consecutive failures (one dropped probe must not flap it).
  healthy.server.Shutdown();
  checker.ProbeOnce();
  EXPECT_EQ(checker.state(0), MemberState::kUp) << "streak 1 of 2";
  checker.ProbeOnce();
  EXPECT_EQ(checker.state(0), MemberState::kDown);
}

TEST(HealthCheckerTest, BackgroundThreadSweeps) {
  Replica replica;
  HealthChecker checker({replica.member()}, FastProbes());
  checker.Start();
  for (int i = 0; i < 100 && checker.state(0) != MemberState::kUp; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(checker.state(0), MemberState::kUp);
  EXPECT_GT(checker.probes(), 0u);
  checker.Stop();
  checker.Stop();  // idempotent
}

// -------------------------------------------------------------- router ----

constexpr const char* kSourceCsv =
    "first,last\nhenry,warner\nanna,smith\nbob,jones\n";
constexpr const char* kTargetCsv = "login\nhwarner\nasmith\nbjones\n";

class RouterTest : public ::testing::Test {
 protected:
  RouterTest() {
    replicas_.push_back(std::make_unique<Replica>());
    replicas_.push_back(std::make_unique<Replica>());
    std::vector<Member> members;
    for (const auto& replica : replicas_) {
      members.push_back(replica->member());
    }
    health_ = std::make_unique<HealthChecker>(members, FastProbes());
    health_->ProbeOnce();
    ClusterRouter::Options options;
    options.retry.max_attempts = 3;
    options.retry.base_backoff_ms = 10;
    options.retry.max_backoff_ms = 50;
    router_ = std::make_unique<ClusterRouter>(members, health_.get(),
                                              options);
  }

  HttpResponse Call(const std::string& method, const std::string& path,
                    const std::string& body = "") {
    HttpRequest request;
    request.method = method;
    request.path = path;
    request.body = body;
    return router_->Handle(request);
  }

  void RegisterTables() {
    Json source = Json::Object();
    source.Set("name", Json::Str("people"));
    source.Set("csv", Json::Str(kSourceCsv));
    ASSERT_EQ(Call("POST", "/v1/tables", source.Dump()).status, 200);
    Json target = Json::Object();
    target.Set("name", Json::Str("logins"));
    target.Set("csv", Json::Str(kTargetCsv));
    ASSERT_EQ(Call("POST", "/v1/tables", target.Dump()).status, 200);
  }

  /// Submits a job; returns its router id and (optionally) which member
  /// key the router assigned it to.
  std::string SubmitJob(std::string* assigned_member = nullptr) {
    Json job = Json::Object();
    job.Set("source_table", Json::Str("people"));
    job.Set("target_table", Json::Str("logins"));
    job.Set("target_column", Json::Number(0));
    HttpResponse response = Call("POST", "/v1/jobs", job.Dump());
    EXPECT_EQ(response.status, 202) << response.body;
    auto body = Json::Parse(response.body);
    EXPECT_TRUE(body.ok());
    const Json* id = body->Find("id");
    EXPECT_NE(id, nullptr);
    if (assigned_member != nullptr) {
      const Json* member = body->Find("member");
      *assigned_member = member != nullptr ? member->AsString("") : "";
    }
    return StrFormat("%.0f", id->AsNumber(0));
  }

  /// Polls through the router until the job is terminal.
  Json WaitForJob(const std::string& id) {
    for (int i = 0; i < 2000; ++i) {
      HttpResponse response = Call("GET", "/v1/jobs/" + id);
      auto body = Json::Parse(response.body);
      if (body.ok()) {
        const Json* state = body->Find("state");
        std::string name = state != nullptr ? state->AsString("") : "";
        if (name == "done" || name == "failed" || name == "cancelled") {
          return body.value();
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Json();
  }

  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<HealthChecker> health_;
  std::unique_ptr<ClusterRouter> router_;
};

TEST_F(RouterTest, RegistersTablesOnOwnerAndListsCatalog) {
  RegisterTables();
  // The router catalog has both; each replica got only what it owns so far
  // (lazy push means a replica may have 0, 1 or 2 of them — but at least
  // one replica holds each owned table).
  HttpResponse listed = Call("GET", "/v1/tables");
  EXPECT_EQ(listed.status, 200);
  EXPECT_NE(listed.body.find("people"), std::string::npos);
  EXPECT_NE(listed.body.find("logins"), std::string::npos);

  int registered = 0;
  for (const auto& replica : replicas_) {
    HttpRequest request;
    request.method = "GET";
    request.path = "/v1/tables";
    std::string body = replica->service.Handle(request).body;
    if (body.find("people") != std::string::npos) ++registered;
  }
  EXPECT_GE(registered, 1);
}

TEST_F(RouterTest, JobForUnknownTableIs404) {
  Json job = Json::Object();
  job.Set("source_table", Json::Str("nope"));
  job.Set("target_table", Json::Str("nada"));
  job.Set("target_column", Json::Number(0));
  EXPECT_EQ(Call("POST", "/v1/jobs", job.Dump()).status, 404);
}

TEST_F(RouterTest, RunsJobEndToEnd) {
  RegisterTables();
  std::string id = SubmitJob();
  Json done = WaitForJob(id);
  ASSERT_TRUE(done.is_object()) << "job never reached a terminal state";
  EXPECT_EQ(done.Find("state")->AsString(""), "done");
  const Json* formula = done.Find("formula");
  ASSERT_NE(formula, nullptr);
  EXPECT_FALSE(formula->AsString("").empty());
  // The snapshot id is the router's, not the replica-local one.
  EXPECT_EQ(StrFormat("%.0f", done.Find("id")->AsNumber(0)), id);

  // Terminal snapshots are cached: the same body comes back replica-free.
  HttpResponse cached = Call("GET", "/v1/jobs/" + id);
  EXPECT_EQ(cached.status, 200);
  EXPECT_EQ(cached.body, Call("GET", "/v1/jobs/" + id).body);
}

TEST_F(RouterTest, FailoverReplaysOnSurvivorWithIdenticalFormula) {
  RegisterTables();

  // Baseline: run the job once to learn the formula both replicas agree on
  // (determinism contract: same tables + options = byte-identical result).
  std::string baseline_id = SubmitJob();
  Json baseline = WaitForJob(baseline_id);
  ASSERT_TRUE(baseline.is_object());
  const std::string expected_formula =
      baseline.Find("formula")->AsString("");
  ASSERT_FALSE(expected_formula.empty());

  // Submit another job and kill its assignee. Whether the assignee already
  // finished (cached terminal snapshot serves it) or not (the survivor
  // replays it), the poll must converge on the same bytes.
  std::string assignee;
  std::string id = SubmitJob(&assignee);
  ASSERT_FALSE(assignee.empty());
  for (auto& replica : replicas_) {
    if (replica->member().Key() == assignee) replica->server.Shutdown();
  }
  health_->ProbeOnce();
  health_->ProbeOnce();  // down_after=2 -> the assignee is now kDown

  Json done = WaitForJob(id);
  ASSERT_TRUE(done.is_object()) << "job lost after replica kill";
  EXPECT_EQ(done.Find("state")->AsString(""), "done");
  // Byte-identical replay: the formula matches the pre-kill baseline.
  EXPECT_EQ(done.Find("formula")->AsString(""), expected_formula);

  // Router metrics reflect the cluster's life so far.
  std::string metrics = Call("GET", "/v1/metrics").body;
  EXPECT_NE(metrics.find("mcsm_router_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("mcsm_cluster_member_state"), std::string::npos);
}

TEST_F(RouterTest, HealthzAndUnknownRoutes) {
  HttpResponse health = Call("GET", "/v1/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"role\":\"router\""), std::string::npos);
  EXPECT_EQ(Call("GET", "/v1/nothing").status, 404);
  EXPECT_EQ(Call("PATCH", "/v1/tables").status, 405);
  EXPECT_EQ(Call("GET", "/v1/jobs/abc").status, 400);
  EXPECT_EQ(Call("GET", "/v1/jobs/999").status, 404);
  // Like the replicas, the router routes /v1/ only: the pre-/v1 paths answer
  // 404 with the usual JSON error body and no Deprecation header.
  for (const char* path :
       {"/healthz", "/metrics", "/tables", "/jobs", "/jobs/1", "/v1"}) {
    for (const char* method : {"GET", "POST"}) {
      HttpResponse response = Call(method, path);
      EXPECT_EQ(response.status, 404) << method << " " << path;
      EXPECT_TRUE(response.headers.empty()) << method << " " << path;
      auto body = Json::Parse(response.body);
      ASSERT_TRUE(body.ok()) << response.body;
      EXPECT_EQ(body->Find("error")->AsString(""), "no such endpoint");
      EXPECT_EQ(body->Find("schema_version")->AsNumber(0), 1);
    }
  }
}

}  // namespace
}  // namespace mcsm::service
