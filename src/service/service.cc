#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/string_util.h"
#include "service/json.h"
#include "vm/program.h"

namespace mcsm::service {

namespace {

HttpResponse StatusResponse(const Status& status) {
  return ErrorResponse(HttpStatusFor(status), status.message());
}

Json TableEntryJson(const TableEntry& entry) {
  Json out = Json::Object();
  out.Set("name", Json::Str(entry.name));
  out.Set("fingerprint",
          Json::Str(StrFormat("%016llx", static_cast<unsigned long long>(
                                             entry.fingerprint))));
  out.Set("rows", Json::Number(static_cast<double>(entry.rows)));
  out.Set("columns", Json::Number(static_cast<double>(entry.columns)));
  if (entry.rows_dropped > 0) {
    out.Set("rows_dropped",
            Json::Number(static_cast<double>(entry.rows_dropped)));
  }
  return out;
}

Json JobSnapshotJson(const JobSnapshot& snapshot) {
  Json out = Json::Object();
  out.Set("id", Json::Number(static_cast<double>(snapshot.id)));
  out.Set("state", Json::Str(JobStateName(snapshot.state)));
  out.Set("mode", Json::Str(JobModeName(snapshot.mode)));
  out.Set("source_table", Json::Str(snapshot.source_table));
  out.Set("target_table", Json::Str(snapshot.target_table));
  out.Set("target_column",
          Json::Number(static_cast<double>(snapshot.target_column)));
  if (snapshot.state == JobState::kDone ||
      snapshot.state == JobState::kCancelled) {
    out.Set("formula", Json::Str(snapshot.formula));
    out.Set("sql", Json::Str(snapshot.sql));
    out.Set("matched_rows",
            Json::Number(static_cast<double>(snapshot.matched_rows)));
    out.Set("truncated", Json::Bool(snapshot.truncated));
    if (snapshot.truncated) {
      out.Set("budget_trip", Json::Str(snapshot.budget_trip));
    }
    if (snapshot.mode == JobMode::kTranslate) {
      out.Set("rows_in",
              Json::Number(static_cast<double>(snapshot.rows_in)));
      out.Set("rows_translated",
              Json::Number(static_cast<double>(snapshot.rows_translated)));
      out.Set("program", Json::Str(snapshot.program));
      out.Set("program_wire", Json::Str(snapshot.program_wire_hex));
    }
  }
  if (snapshot.degraded) {
    out.Set("degraded", Json::Bool(true));
  }
  if (snapshot.state == JobState::kFailed) {
    out.Set("error", Json::Str(snapshot.error));
  }
  if (snapshot.state != JobState::kQueued &&
      snapshot.state != JobState::kRunning) {
    out.Set("run_seconds", Json::Number(snapshot.run_seconds));
  }
  out.Set("traced", Json::Bool(snapshot.traced));
  if (!snapshot.explain.empty()) {
    out.Set("explain", Json::Str(snapshot.explain));
  }
  return out;
}

}  // namespace

int HttpStatusFor(const Status& status) {
  if (status.ok()) return 200;
  if (status.IsNotFound()) return 404;
  if (status.IsInvalidArgument() || status.IsParseError()) return 400;
  if (status.IsResourceExhausted()) return 429;
  return 500;
}

DiscoveryService::DiscoveryService(Options options)
    : options_(options),
      cache_(options.cache_bytes),
      jobs_(&registry_, &cache_,
            JobManager::Options{options.job_workers, options.max_queue,
                                options.retained_jobs, options.degrade_at,
                                options.degraded_limits}) {}

HttpResponse DiscoveryService::Handle(const HttpRequest& request) {
  const auto started = std::chrono::steady_clock::now();
  const std::string_view path = NormalizePath(request.path);
  HttpResponse response = Route(request, path);
  const uint64_t elapsed_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  if (path == "/tables" || path.rfind("/tables/", 0) == 0) {
    tables_latency_.Record(elapsed_ms);
  } else if (path == "/jobs" || path.rfind("/jobs/", 0) == 0) {
    jobs_latency_.Record(elapsed_ms);
  } else if (path == "/metrics") {
    metrics_latency_.Record(elapsed_ms);
  } else {
    other_latency_.Record(elapsed_ms);
  }
  // ordering: relaxed — monotonic metrics counters.
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  if (response.status >= 400) {
    requests_bad_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

HttpResponse DiscoveryService::Route(const HttpRequest& request,
                                    std::string_view path) {
  if (path == "/healthz") {
    if (request.method != "GET") {
      return ErrorResponse(405, "method not allowed");
    }
    Json out = Json::Object();
    if (draining()) {
      // SIGTERM drain in progress: health-gated routers read this as "stop
      // sending new work"; in-flight jobs still finish and can be polled.
      out.Set("status", Json::Str("draining"));
      return JsonResponse(503, std::move(out));
    }
    out.Set("status", Json::Str("ok"));
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
  if (path.rfind("/tables/", 0) == 0) {
    return HandleTableByName(request, std::string(path.substr(8)));
  }
  if (path == "/jobs") {
    if (request.method == "POST") return HandlePostJobs(request);
    if (request.method == "GET") return HandleGetJobs();
    return ErrorResponse(405, "method not allowed");
  }
  if (path.rfind("/jobs/", 0) == 0) {
    std::string_view tail = path.substr(6);
    bool want_trace = false;
    constexpr std::string_view kTraceSuffix = "/trace";
    if (tail.size() > kTraceSuffix.size() &&
        tail.substr(tail.size() - kTraceSuffix.size()) == kTraceSuffix) {
      want_trace = true;
      tail.remove_suffix(kTraceSuffix.size());
    }
    uint64_t id = 0;
    if (!ParseJobId(tail, &id)) {
      return ErrorResponse(400, "malformed job id");
    }
    if (want_trace) return HandleJobTrace(request, id);
    return HandleJobById(request, id);
  }
  return ErrorResponse(404, "no such endpoint");
}

HttpResponse DiscoveryService::HandlePostTables(const HttpRequest& request) {
  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) {
    return StatusResponse(parsed.status());
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
  relational::CsvOptions csv_options;
  if (const Json* permissive = body.Find("permissive")) {
    csv_options.permissive = permissive->AsBool(false);
  }
  auto entry = registry_.RegisterCsv(name->AsString(""), csv->AsString(""),
                                     csv_options);
  if (!entry.ok()) {
    return StatusResponse(entry.status());
  }
  return JsonResponse(200, TableEntryJson(entry.value()));
}

HttpResponse DiscoveryService::HandleGetTables() {
  Json list = Json::Array();
  for (const TableEntry& entry : registry_.List()) {
    list.Append(TableEntryJson(entry));
  }
  Json out = Json::Object();
  out.Set("tables", std::move(list));
  return JsonResponse(200, out);
}

HttpResponse DiscoveryService::HandleTableByName(const HttpRequest& request,
                                                 const std::string& name) {
  if (request.method != "GET") {
    return ErrorResponse(405, "method not allowed");
  }
  if (name.empty()) {
    return ErrorResponse(400, "table name must be non-empty");
  }
  const TableEntry entry = registry_.Find(name);
  if (entry.table == nullptr) {
    return ErrorResponse(404, "no such table: " + name);
  }
  Json out = TableEntryJson(entry);
  const relational::TableStats stats = entry.table->Stats();
  Json storage = Json::Object();
  storage.Set("encoding", Json::Str(stats.encoding));
  storage.Set("resident_bytes",
              Json::Number(static_cast<double>(stats.resident_bytes)));
  storage.Set("spilled_bytes",
              Json::Number(static_cast<double>(stats.spilled_bytes)));
  storage.Set("resident_pages",
              Json::Number(static_cast<double>(stats.resident_pages)));
  storage.Set("spilled_pages",
              Json::Number(static_cast<double>(stats.spilled_pages)));
  out.Set("storage", std::move(storage));
  // A latched spill-I/O error means reads may degrade to empty views; the
  // table still serves, so it is reported, not turned into an HTTP failure.
  const Status storage_status = entry.table->storage_status();
  if (!storage_status.ok()) {
    out.Set("storage_error", Json::Str(std::string(storage_status.message())));
  }
  return JsonResponse(200, std::move(out));
}

HttpResponse DiscoveryService::HandlePostJobs(const HttpRequest& request) {
  auto parsed = Json::Parse(request.body);
  if (!parsed.ok()) {
    return StatusResponse(parsed.status());
  }
  const Json& body = parsed.value();
  if (!body.is_object()) {
    return ErrorResponse(400, "request body must be a JSON object");
  }
  JobRequest job;
  if (const Json* mode = body.Find("mode")) {
    const std::string mode_name = mode->AsString("");
    if (mode_name == "translate") {
      job.mode = JobMode::kTranslate;
    } else if (mode_name != "discover") {
      return ErrorResponse(400,
                           "'mode' must be \"discover\" or \"translate\"");
    }
  }
  if (const Json* program = body.Find("program")) {
    if (!program->is_string()) {
      return ErrorResponse(400, "'program' must be a hex string");
    }
    auto wire = vm::HexToBytes(program->AsString(""));
    if (!wire.ok()) return StatusResponse(wire.status());
    job.program_wire = std::move(wire.value());
  }
  const Json* source = body.Find("source_table");
  const Json* target = body.Find("target_table");
  const Json* column = body.Find("target_column");
  // A translate job replaying a saved program needs no target at all;
  // everything else discovers and therefore needs the full triple.
  const bool needs_target =
      !(job.mode == JobMode::kTranslate && !job.program_wire.empty());
  if (source == nullptr || !source->is_string() ||
      (needs_target &&
       (target == nullptr || !target->is_string() || column == nullptr))) {
    return ErrorResponse(
        400, "'source_table', 'target_table' and 'target_column' are required");
  }
  job.source_table = source->AsString("");
  if (target != nullptr) job.target_table = target->AsString("");
  if (column != nullptr) {
    double column_number = column->AsNumber(-1);
    if (column_number < 0 || column_number > 1e9 ||
        column_number != static_cast<double>(
                             static_cast<uint64_t>(column_number))) {
      return ErrorResponse(400,
                           "'target_column' must be a non-negative integer");
    }
    job.target_column = static_cast<size_t>(column_number);
  }
  if (const Json* deadline = body.Find("deadline_ms")) {
    double ms = deadline->AsNumber(-1);
    if (ms < 0 || ms > 1e12) {
      return ErrorResponse(400,
                           "'deadline_ms' must be a non-negative number");
    }
    job.deadline_ms = static_cast<int64_t>(ms);
  }
  if (const Json* threads = body.Find("num_threads")) {
    double thread_number = threads->AsNumber(-1);
    if (thread_number < 0 || thread_number > 1e9 ||
        thread_number != static_cast<double>(
                             static_cast<uint64_t>(thread_number))) {
      return ErrorResponse(400,
                           "'num_threads' must be a non-negative integer");
    }
    // Clamped: a request-supplied pool size must not be able to make a
    // worker spawn an absurd thread count (std::thread failure terminates
    // the process). 0 keeps the search's auto-sizing.
    const size_t cap =
        std::max<size_t>(std::thread::hardware_concurrency(), 1);
    job.options.num_threads =
        std::min(static_cast<size_t>(thread_number), cap);
  }
  if (const Json* separators = body.Find("detect_separators")) {
    job.options.detect_separators = separators->AsBool(false);
  }
  if (const Json* trace = body.Find("trace")) {
    job.trace = trace->AsBool(false);
  }
  // Algorithm knobs: passed through raw and validated in one place —
  // SearchOptions::Validate at Submit — so the HTTP layer does not
  // duplicate (and drift from) the search layer's rules.
  if (const Json* q = body.Find("q")) {
    job.options.q = static_cast<size_t>(
        std::max(0.0, std::min(q->AsNumber(0), 64.0)));
  }
  if (const Json* fraction = body.Find("sample_fraction")) {
    job.options.sample_fraction = fraction->AsNumber(-1);
  }

  auto submitted = jobs_.Submit(std::move(job));
  if (!submitted.ok()) {
    HttpResponse response = StatusResponse(submitted.status());
    if (submitted.status().IsResourceExhausted()) {
      // Shed: tell the client when resubmitting is likely to succeed
      // (queue depth × mean job latency, see JobManager::RetryAfterSeconds).
      response.headers.emplace_back(
          "Retry-After", StrFormat("%d", jobs_.RetryAfterSeconds()));
    }
    return response;
  }
  Json out = Json::Object();
  out.Set("id", Json::Number(static_cast<double>(submitted.value())));
  out.Set("state", Json::Str("queued"));
  return JsonResponse(202, out);
}

HttpResponse DiscoveryService::HandleGetJobs() {
  Json list = Json::Array();
  for (const JobSnapshot& snapshot : jobs_.List()) {
    list.Append(JobSnapshotJson(snapshot));
  }
  Json out = Json::Object();
  out.Set("jobs", std::move(list));
  return JsonResponse(200, out);
}

HttpResponse DiscoveryService::HandleJobById(const HttpRequest& request,
                                             uint64_t id) {
  if (request.method == "GET") {
    auto snapshot = jobs_.Get(id);
    if (!snapshot.ok()) {
      return StatusResponse(snapshot.status());
    }
    return JsonResponse(200, JobSnapshotJson(snapshot.value()));
  }
  if (request.method == "DELETE") {
    if (!jobs_.Cancel(id)) {
      return ErrorResponse(404, "no such job");
    }
    Json out = Json::Object();
    out.Set("id", Json::Number(static_cast<double>(id)));
    out.Set("cancel_requested", Json::Bool(true));
    return JsonResponse(200, out);
  }
  return ErrorResponse(405, "method not allowed");
}

HttpResponse DiscoveryService::HandleJobTrace(const HttpRequest& request,
                                              uint64_t id) {
  if (request.method != "GET") {
    return ErrorResponse(405, "method not allowed");
  }
  auto trace = jobs_.TraceJson(id);
  if (!trace.ok()) {
    return StatusResponse(trace.status());
  }
  // The body already carries schema_version (TraceEventsToJson emits it),
  // so it goes out verbatim rather than through JsonResponse.
  HttpResponse response;
  response.body = std::move(trace.value());
  return response;
}

std::string DiscoveryService::RenderMetrics() const {
  std::string out;
  const IndexCacheStats cache_stats = cache_.stats();
  auto counter = [&out](const char* name, uint64_t value) {
    out += StrFormat("%s %llu\n", name,
                     static_cast<unsigned long long>(value));
  };
  // ordering: relaxed — scrape-time reads of monotonic counters.
  counter("mcsm_requests_total",
          requests_total_.load(std::memory_order_relaxed));
  counter("mcsm_requests_bad",
          requests_bad_.load(std::memory_order_relaxed));
  counter("mcsm_tables_registered", registry_.size());
  counter("mcsm_index_cache_hits", cache_stats.hits);
  counter("mcsm_index_cache_misses", cache_stats.misses);
  counter("mcsm_index_cache_evictions", cache_stats.evictions);
  counter("mcsm_index_cache_bytes", cache_stats.bytes);
  counter("mcsm_index_cache_entries", cache_stats.entries);
  counter("mcsm_jobs_submitted", jobs_.submitted());
  counter("mcsm_jobs_rejected", jobs_.rejected());
  // Load-shedding ladder: degraded (admitted with tightened caps) fills
  // before shed (429'd); shed aliases rejected for dashboard clarity.
  counter("mcsm_jobs_degraded_total", jobs_.degraded());
  counter("mcsm_jobs_shed_total", jobs_.rejected());
  counter("mcsm_jobs_queue_depth", jobs_.queue_depth());
  counter("mcsm_service_draining", draining() ? 1 : 0);
  counter("mcsm_jobs_completed", jobs_.completed());
  counter("mcsm_jobs_failed", jobs_.failed());
  counter("mcsm_jobs_cancelled", jobs_.cancelled());
  counter("mcsm_jobs_traced", jobs_.traced());
  counter("mcsm_translate_jobs_total", jobs_.translate_jobs());
  counter("mcsm_translate_rows_total", jobs_.translate_rows());
  counter("mcsm_trace_events_total", jobs_.trace_events());
  counter("mcsm_trace_spans_total", jobs_.trace_spans());
  tables_latency_.Render("mcsm_http_tables", &out);
  jobs_latency_.Render("mcsm_http_jobs", &out);
  metrics_latency_.Render("mcsm_http_metrics", &out);
  other_latency_.Render("mcsm_http_other", &out);
  return out;
}

}  // namespace mcsm::service
