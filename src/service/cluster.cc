#include "service/cluster.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/deadline.h"
#include "common/string_util.h"
#include "service/json.h"
#include "service/registry.h"

namespace mcsm::service {

namespace {

/// Extracts "state" from a job-snapshot JSON body; empty when unparseable.
std::string SnapshotState(const std::string& body) {
  auto parsed = Json::Parse(body);
  if (!parsed.ok() || !parsed.value().is_object()) return {};
  const Json* state = parsed.value().Find("state");
  if (state == nullptr) return {};
  return state->AsString("");
}

bool IsTerminalState(std::string_view state) {
  return state == "done" || state == "failed" || state == "cancelled";
}

}  // namespace

// ---------------------------------------------------------------- Member --

std::string Member::Key() const { return StrFormat("%s:%d", host.c_str(), port); }

Result<std::vector<Member>> ParseMemberList(std::string_view spec) {
  std::vector<Member> members;
  for (const std::string& entry : Split(spec, ',')) {
    std::string_view item = Trim(entry);
    if (item.empty()) continue;
    size_t colon = item.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 >= item.size()) {
      return Status::InvalidArgument(StrFormat(
          "member '%s' is not host:port", std::string(item).c_str()));
    }
    Member member;
    member.host = std::string(item.substr(0, colon));
    std::string_view digits = item.substr(colon + 1);
    int port = 0;
    for (char c : digits) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument(StrFormat(
            "member '%s' has a non-numeric port", std::string(item).c_str()));
      }
      port = port * 10 + (c - '0');
      if (port > 65535) {
        return Status::InvalidArgument(StrFormat(
            "member '%s' port out of range", std::string(item).c_str()));
      }
    }
    member.port = port;
    for (const Member& existing : members) {
      if (existing == member) {
        return Status::InvalidArgument(StrFormat(
            "member '%s' listed twice", member.Key().c_str()));
      }
    }
    members.push_back(std::move(member));
  }
  if (members.empty()) {
    return Status::InvalidArgument("member list is empty");
  }
  return members;
}

const char* MemberStateName(MemberState state) {
  switch (state) {
    case MemberState::kUnknown:
      return "unknown";
    case MemberState::kUp:
      return "up";
    case MemberState::kDraining:
      return "draining";
    case MemberState::kDown:
      return "down";
  }
  return "invalid";
}

// --------------------------------------------------------------- HashRing --

HashRing::HashRing(std::vector<Member> members, size_t vnodes)
    : members_(std::move(members)) {
  points_.reserve(members_.size() * vnodes);
  for (size_t m = 0; m < members_.size(); ++m) {
    const std::string base = members_[m].Key();
    for (size_t v = 0; v < vnodes; ++v) {
      const std::string label = StrFormat("%s#%zu", base.c_str(), v);
      points_.push_back(Point{FingerprintBytes(label), m});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              // Hash ties broken by member index so the ring order is a
              // pure function of the member list.
              return a.hash != b.hash ? a.hash < b.hash
                                      : a.member < b.member;
            });
}

size_t HashRing::OwnerIndex(uint64_t key) const {
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const Point& p, uint64_t k) { return p.hash < k; });
  if (it == points_.end()) it = points_.begin();  // wrap around
  return it->member;
}

std::vector<size_t> HashRing::Succession(uint64_t key) const {
  std::vector<size_t> order;
  order.reserve(members_.size());
  std::vector<bool> seen(members_.size(), false);
  size_t start = std::lower_bound(points_.begin(), points_.end(), key,
                                  [](const Point& p, uint64_t k) {
                                    return p.hash < k;
                                  }) -
                 points_.begin();
  for (size_t i = 0; i < points_.size() && order.size() < members_.size();
       ++i) {
    const Point& point = points_[(start + i) % points_.size()];
    if (seen[point.member]) continue;
    seen[point.member] = true;
    order.push_back(point.member);
  }
  return order;
}

// ---------------------------------------------------------- HealthChecker --

HealthChecker::HealthChecker(std::vector<Member> members, Options options)
    : members_(std::move(members)), options_(options), client_([&] {
        HttpClient::Options client_options;
        client_options.connect_timeout_ms = options.timeout_ms;
        client_options.io_timeout_ms = options.timeout_ms;
        return client_options;
      }()) {
  MutexLock lock(mu_);
  states_.assign(members_.size(), MemberState::kUnknown);
  fail_streak_.assign(members_.size(), 0);
}

HealthChecker::~HealthChecker() { Stop(); }

void HealthChecker::Start() {
  if (thread_.joinable()) return;
  thread_ = std::thread([this] {
    for (;;) {
      ProbeOnce();
      MutexLock lock(mu_);
      if (stopping_) return;
      // Explicit re-check loop: wait_for can wake spuriously, and the
      // analysis cannot see a predicate lambda's lock state.
      stop_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms));
      if (stopping_) return;
    }
  });
}

void HealthChecker::Stop() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void HealthChecker::ProbeOnce() {
  for (size_t m = 0; m < members_.size(); ++m) {
    ClientRequest request;
    request.host = members_[m].host;
    request.port = members_[m].port;
    request.method = "GET";
    request.path = "/v1/healthz";
    auto result = client_.Do(request);
    // ordering: relaxed — monotonic metrics counter.
    probes_.fetch_add(1, std::memory_order_relaxed);

    MemberState verdict = MemberState::kDown;
    bool failure = true;
    if (result.ok()) {
      const ClientResponse& response = result.value();
      if (response.status == 200 &&
          response.body.find("\"ok\"") != std::string::npos) {
        verdict = MemberState::kUp;
        failure = false;
      } else if (response.status == 503 &&
                 response.body.find("draining") != std::string::npos) {
        verdict = MemberState::kDraining;
        failure = false;
      }
    }

    MutexLock lock(mu_);
    if (!failure) {
      fail_streak_[m] = 0;
      states_[m] = verdict;
      continue;
    }
    ++fail_streak_[m];
    if (fail_streak_[m] >= options_.down_after) {
      states_[m] = MemberState::kDown;
    } else if (states_[m] == MemberState::kUnknown) {
      // Never seen healthy and already failing: don't route to it.
      states_[m] = MemberState::kDown;
    }
    // A member with a healthy history keeps its last state until the
    // streak confirms the outage (one dropped probe must not flap it).
  }
}

MemberState HealthChecker::state(size_t member_index) const {
  MutexLock lock(mu_);
  if (member_index >= states_.size()) return MemberState::kDown;
  return states_[member_index];
}

std::vector<MemberState> HealthChecker::States() const {
  MutexLock lock(mu_);
  return states_;
}

// ---------------------------------------------------------- ClusterRouter --

ClusterRouter::ClusterRouter(std::vector<Member> members,
                             const HealthChecker* health, Options options)
    : members_(members),
      health_(health),
      options_(options),
      ring_(std::move(members), options.vnodes),
      rpc_(options.client, options.retry) {}

HttpResponse ClusterRouter::Handle(const HttpRequest& request) {
  WallTimer timer;
  HttpResponse response = Route(request, NormalizePath(request.path));
  forward_latency_.Record(static_cast<uint64_t>(timer.Seconds() * 1000.0));
  // ordering: relaxed — monotonic metrics counter.
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

HttpResponse ClusterRouter::Route(const HttpRequest& request,
                                  std::string_view path) {
  if (path == "/healthz") {
    if (request.method != "GET") {
      return ErrorResponse(405, "method not allowed");
    }
    Json out = Json::Object();
    out.Set("status", Json::Str("ok"));
    out.Set("role", Json::Str("router"));
    return JsonResponse(200, std::move(out));
  }
  if (path == "/metrics") {
    if (request.method != "GET") {
      return ErrorResponse(405, "method not allowed");
    }
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = RenderMetrics();
    return response;
  }
  if (path == "/tables") {
    if (request.method == "POST") return HandlePostTables(request);
    if (request.method == "GET") return HandleGetTables();
    return ErrorResponse(405, "method not allowed");
  }
  if (path == "/jobs") {
    if (request.method == "POST") return HandlePostJobs(request);
    if (request.method == "GET") return HandleGetJobs();
    return ErrorResponse(405, "method not allowed");
  }
  if (path.rfind("/jobs/", 0) == 0) {
    uint64_t id = 0;
    if (!ParseJobId(path.substr(6), &id)) {
      return ErrorResponse(400, "malformed job id");
    }
    return HandleJobById(request, id);
  }
  return ErrorResponse(404, "no such endpoint");
}

std::vector<size_t> ClusterRouter::EligibleSuccession(uint64_t ring_key,
                                                      size_t exclude) const {
  std::vector<size_t> eligible;
  for (size_t m : ring_.Succession(ring_key)) {
    if (m == exclude) continue;
    const MemberState state = health_->state(m);
    if (state == MemberState::kUp || state == MemberState::kUnknown) {
      eligible.push_back(m);
    }
  }
  return eligible;
}

Status ClusterRouter::EnsureTableOn(size_t m, const std::string& name) {
  CatalogEntry entry;
  {
    MutexLock lock(mu_);
    auto it = catalog_.find(name);
    if (it == catalog_.end()) {
      return Status::NotFound(StrFormat(
          "table '%s' is not in the router catalog", name.c_str()));
    }
    entry = it->second;
    const std::string memo =
        StrFormat("%zu#%016llx", m,
                  static_cast<unsigned long long>(entry.fingerprint));
    if (pushed_.count(memo) > 0) return Status::OK();
  }

  Json body = Json::Object();
  body.Set("name", Json::Str(name));
  body.Set("csv", Json::Str(entry.csv));
  if (entry.permissive) body.Set("permissive", Json::Bool(true));

  ClientRequest request;
  request.host = members_[m].host;
  request.port = members_[m].port;
  request.method = "POST";
  request.path = "/v1/tables";
  request.body = body.Dump();
  // Re-registering identical content is a fingerprint-keyed no-op on the
  // replica, so this POST is idempotent and retries are safe.
  request.idempotent = true;
  auto result = rpc_.Do(request);
  if (!result.ok()) return result.status();
  if (result.value().status != 200) {
    return Status::Internal(StrFormat(
        "replica %s refused table '%s': HTTP %d %s",
        members_[m].Key().c_str(), name.c_str(), result.value().status,
        result.value().body.c_str()));
  }
  // ordering: relaxed — monotonic metrics counter.
  tables_pushed_total_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(mu_);
  pushed_.insert(
      StrFormat("%zu#%016llx", m,
                static_cast<unsigned long long>(entry.fingerprint)));
  return Status::OK();
}

HttpResponse ClusterRouter::HandlePostTables(const HttpRequest& request) {
  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) {
    return ErrorResponse(400, parsed.status().message());
  }
  const Json& body = parsed.value();
  if (!body.is_object()) {
    return ErrorResponse(400, "request body must be a JSON object");
  }
  const Json* name = body.Find("name");
  const Json* csv = body.Find("csv");
  if (name == nullptr || !name->is_string() || csv == nullptr ||
      !csv->is_string()) {
    return ErrorResponse(400, "'name' and 'csv' string fields are required");
  }
  const std::string table_name = name->AsString("");
  CatalogEntry entry;
  entry.csv = csv->AsString("");
  entry.fingerprint = FingerprintBytes(entry.csv);
  if (const Json* permissive = body.Find("permissive")) {
    entry.permissive = permissive->AsBool(false);
  }
  {
    MutexLock lock(mu_);
    catalog_[table_name] = entry;
  }

  // Register on the ring owner now so the common case (jobs follow their
  // tables) pays no push latency at job time. Failover replicas get the
  // table lazily from the catalog.
  const std::vector<size_t> eligible =
      EligibleSuccession(entry.fingerprint, members_.size());
  if (eligible.empty()) {
    return ErrorResponse(503, "no healthy replica to own the table");
  }
  Status pushed = EnsureTableOn(eligible.front(), table_name);
  if (!pushed.ok()) {
    return ErrorResponse(502, pushed.message());
  }
  // ordering: relaxed — monotonic metrics counter.
  forwarded_total_.fetch_add(1, std::memory_order_relaxed);

  Json out = Json::Object();
  out.Set("name", Json::Str(table_name));
  out.Set("fingerprint",
          Json::Str(StrFormat("%016llx", static_cast<unsigned long long>(
                                             entry.fingerprint))));
  out.Set("owner", Json::Str(members_[eligible.front()].Key()));
  return JsonResponse(200, std::move(out));
}

HttpResponse ClusterRouter::HandleGetTables() {
  Json list = Json::Array();
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) names.push_back(name);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const CatalogEntry& entry = catalog_[name];
    Json item = Json::Object();
    item.Set("name", Json::Str(name));
    item.Set("fingerprint",
             Json::Str(StrFormat("%016llx", static_cast<unsigned long long>(
                                                entry.fingerprint))));
    list.Append(std::move(item));
  }
  Json out = Json::Object();
  out.Set("tables", std::move(list));
  return JsonResponse(200, std::move(out));
}

Result<ClientResponse> ClusterRouter::SubmitJobOn(size_t m,
                                                  uint64_t router_id) {
  std::string body;
  std::string source_table;
  std::string target_table;
  {
    MutexLock lock(mu_);
    auto it = jobs_.find(router_id);
    if (it == jobs_.end()) {
      return Status::NotFound("routed job vanished");
    }
    body = it->second.body;
    source_table = it->second.source_table;
    target_table = it->second.target_table;
  }
  MCSM_RETURN_IF_ERROR(EnsureTableOn(m, source_table));
  MCSM_RETURN_IF_ERROR(EnsureTableOn(m, target_table));

  ClientRequest request;
  request.host = members_[m].host;
  request.port = members_[m].port;
  request.method = "POST";
  request.path = "/v1/jobs";
  request.body = body;
  auto result = rpc_.Do(request);
  if (!result.ok()) return result;
  if (result.value().status == 202) {
    auto parsed = Json::Parse(result.value().body);
    uint64_t remote_id = 0;
    if (parsed.ok() && parsed.value().is_object()) {
      if (const Json* id = parsed.value().Find("id")) {
        remote_id = static_cast<uint64_t>(id->AsNumber(0));
      }
    }
    if (remote_id == 0) {
      return Status::Internal(StrFormat(
          "replica %s 202 without a job id: %s",
          members_[m].Key().c_str(), result.value().body.c_str()));
    }
    MutexLock lock(mu_);
    auto it = jobs_.find(router_id);
    if (it != jobs_.end()) {
      it->second.assignee = m;
      it->second.remote_id = remote_id;
    }
  }
  return result;
}

HttpResponse ClusterRouter::HandlePostJobs(const HttpRequest& request) {
  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) {
    return ErrorResponse(400, parsed.status().message());
  }
  const Json& body = parsed.value();
  if (!body.is_object()) {
    return ErrorResponse(400, "request body must be a JSON object");
  }
  const Json* source = body.Find("source_table");
  const Json* target = body.Find("target_table");
  if (source == nullptr || !source->is_string() || target == nullptr ||
      !target->is_string()) {
    return ErrorResponse(
        400, "'source_table' and 'target_table' are required");
  }
  const std::string source_name = source->AsString("");
  const std::string target_name = target->AsString("");

  uint64_t ring_key = 0;
  uint64_t router_id = 0;
  {
    MutexLock lock(mu_);
    auto source_it = catalog_.find(source_name);
    auto target_it = catalog_.find(target_name);
    if (source_it == catalog_.end() || target_it == catalog_.end()) {
      return ErrorResponse(
          404, StrFormat("table '%s' is not in the router catalog",
                         (source_it == catalog_.end() ? source_name
                                                      : target_name)
                             .c_str()));
    }
    ring_key = target_it->second.fingerprint;
    router_id = next_id_++;
    RoutedJob job;
    job.router_id = router_id;
    job.body = request.body;
    job.source_table = source_name;
    job.target_table = target_name;
    job.ring_key = ring_key;
    job.assignee = members_.size();  // unassigned
    jobs_.emplace(router_id, std::move(job));
  }

  const std::vector<size_t> eligible =
      EligibleSuccession(ring_key, members_.size());
  HttpResponse last_refusal =
      ErrorResponse(503, "no healthy replica for this job");
  for (size_t m : eligible) {
    auto result = SubmitJobOn(m, router_id);
    if (!result.ok()) {
      // Transport-level failure: the next ring member gets the job.
      // ordering: relaxed — monotonic metrics counter.
      failovers_total_.fetch_add(1, std::memory_order_relaxed);
      last_refusal = ErrorResponse(
          502, StrFormat("replica %s unreachable: %s",
                         members_[m].Key().c_str(),
                         std::string(result.status().message()).c_str()));
      continue;
    }
    const ClientResponse& response = result.value();
    if (response.status == 202) {
      // ordering: relaxed — monotonic metrics counter.
      forwarded_total_.fetch_add(1, std::memory_order_relaxed);
      Json out = Json::Object();
      out.Set("id", Json::Number(static_cast<double>(router_id)));
      out.Set("state", Json::Str("queued"));
      out.Set("member", Json::Str(members_[m].Key()));
      return JsonResponse(202, std::move(out));
    }
    // An HTTP-level refusal (429 backpressure, 400 bad options, ...) is the
    // replica's definitive answer — surface it, headers included, so the
    // client sees Retry-After. No spilling 429s to other members: the ring
    // placement is what keeps index caches warm.
    HttpResponse out;
    out.status = response.status;
    out.body = response.body;
    for (const auto& [name, value] : response.headers) {
      if (name == "retry-after") out.headers.emplace_back("Retry-After", value);
    }
    {
      MutexLock lock(mu_);
      jobs_.erase(router_id);  // never admitted anywhere
    }
    return out;
  }
  MutexLock lock(mu_);
  jobs_.erase(router_id);
  return last_refusal;
}

HttpResponse ClusterRouter::HandleGetJobs() {
  Json list = Json::Array();
  MutexLock lock(mu_);
  std::vector<uint64_t> ids;
  ids.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (uint64_t id : ids) {
    const RoutedJob& job = jobs_[id];
    Json item = Json::Object();
    item.Set("id", Json::Number(static_cast<double>(id)));
    if (job.assignee < members_.size()) {
      item.Set("member", Json::Str(members_[job.assignee].Key()));
      item.Set("remote_id", Json::Number(static_cast<double>(job.remote_id)));
    }
    item.Set("terminal", Json::Bool(job.terminal));
    list.Append(std::move(item));
  }
  Json out = Json::Object();
  out.Set("jobs", std::move(list));
  return JsonResponse(200, std::move(out));
}

std::string ClusterRouter::RewriteSnapshotId(const std::string& body,
                                             uint64_t router_id) const {
  auto parsed = Json::Parse(body);
  if (!parsed.ok() || !parsed.value().is_object()) return body;
  Json object = std::move(parsed).value();
  object.Set("id", Json::Number(static_cast<double>(router_id)));
  return object.Dump();
}

HttpResponse ClusterRouter::HandleJobById(const HttpRequest& request,
                                          uint64_t id) {
  if (request.method != "GET" && request.method != "DELETE") {
    return ErrorResponse(405, "method not allowed");
  }

  size_t assignee = 0;
  uint64_t remote_id = 0;
  uint64_t ring_key = 0;
  {
    MutexLock lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return ErrorResponse(404, "no such job");
    }
    RoutedJob& job = it->second;
    if (job.terminal && request.method == "GET") {
      // Finished jobs are served from the router cache: they survive their
      // replica (and a DELETE on a terminal job is a no-op either way).
      HttpResponse response;
      response.body = job.last_snapshot;
      return response;
    }
    if (job.assignee >= members_.size()) {
      return ErrorResponse(503, "job was never assigned to a replica");
    }
    assignee = job.assignee;
    remote_id = job.remote_id;
    ring_key = job.ring_key;
  }

  ClientRequest forward;
  forward.host = members_[assignee].host;
  forward.port = members_[assignee].port;
  forward.method = request.method;
  forward.path = StrFormat("/v1/jobs/%llu",
                           static_cast<unsigned long long>(remote_id));
  auto result = rpc_.Do(forward);

  if (result.ok() && result.value().status == 200) {
    HttpResponse response;
    response.body = RewriteSnapshotId(result.value().body, id);
    if (request.method == "GET") {
      const std::string state = SnapshotState(result.value().body);
      MutexLock lock(mu_);
      auto it = jobs_.find(id);
      if (it != jobs_.end()) {
        it->second.last_snapshot = response.body;
        if (IsTerminalState(state)) it->second.terminal = true;
      }
    }
    return response;
  }
  if (request.method == "DELETE") {
    // Cancellation of an unreachable replica's job: the replay (if any)
    // will be a fresh submission; report the transport failure honestly.
    if (!result.ok()) {
      return ErrorResponse(502, result.status().message());
    }
    HttpResponse response;
    response.status = result.value().status;
    response.body = result.value().body;
    return response;
  }

  // GET and the assignee answered with an error (or is gone): fail over.
  // The job is replayed from the router's catalog + original body on the
  // next healthy ring member — the determinism contract makes the replay's
  // result byte-identical to what the dead owner would have produced.
  // ordering: relaxed — monotonic metrics counter.
  failovers_total_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return ErrorResponse(404, "no such job");
    if (it->second.failing_over) {
      // One replayer at a time; concurrent pollers see the last snapshot
      // (or a synthetic "running") instead of double-submitting.
      if (!it->second.last_snapshot.empty()) {
        HttpResponse response;
        response.body = it->second.last_snapshot;
        return response;
      }
      Json out = Json::Object();
      out.Set("id", Json::Number(static_cast<double>(id)));
      out.Set("state", Json::Str("queued"));
      out.Set("detail", Json::Str("failover in progress"));
      return JsonResponse(200, std::move(out));
    }
    it->second.failing_over = true;
  }

  HttpResponse outcome = ErrorResponse(503, "no healthy replica for replay");
  for (size_t m : EligibleSuccession(ring_key, assignee)) {
    auto replay = SubmitJobOn(m, id);
    if (!replay.ok() || replay.value().status != 202) continue;
    // ordering: relaxed — monotonic metrics counter.
    replays_total_.fetch_add(1, std::memory_order_relaxed);
    Json out = Json::Object();
    out.Set("id", Json::Number(static_cast<double>(id)));
    out.Set("state", Json::Str("queued"));
    out.Set("member", Json::Str(members_[m].Key()));
    out.Set("replayed", Json::Bool(true));
    outcome = JsonResponse(200, std::move(out));
    break;
  }
  MutexLock lock(mu_);
  auto it = jobs_.find(id);
  if (it != jobs_.end()) it->second.failing_over = false;
  return outcome;
}

std::string ClusterRouter::RenderMetrics() const {
  std::string out;
  auto counter = [&out](const char* name,
                        const std::atomic<uint64_t>& value) {
    // ordering: relaxed — scrape-time read of a monotonic counter.
    out += StrFormat(
        "%s %llu\n", name,
        static_cast<unsigned long long>(
            value.load(std::memory_order_relaxed)));
  };
  counter("mcsm_router_requests_total", requests_total_);
  counter("mcsm_router_forwarded_total", forwarded_total_);
  counter("mcsm_router_failovers_total", failovers_total_);
  counter("mcsm_router_replays_total", replays_total_);
  counter("mcsm_router_tables_pushed_total", tables_pushed_total_);
  out += StrFormat("mcsm_router_health_probes_total %llu\n",
                   static_cast<unsigned long long>(health_->probes()));
  const std::vector<MemberState> states = health_->States();
  for (size_t m = 0; m < members_.size() && m < states.size(); ++m) {
    out += StrFormat("mcsm_cluster_member_state{member=\"%s\",state=\"%s\"} %d\n",
                     members_[m].Key().c_str(),
                     MemberStateName(states[m]),
                     static_cast<int>(states[m]));
  }
  forward_latency_.Render("mcsm_router_forward", &out);
  return out;
}

}  // namespace mcsm::service
