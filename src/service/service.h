#ifndef MCSM_SERVICE_SERVICE_H_
#define MCSM_SERVICE_SERVICE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "service/http.h"
#include "service/job_manager.h"
#include "service/metrics.h"
#include "service/registry.h"

namespace mcsm::service {

/// \brief The discovery service: routes HTTP requests onto the table
/// registry, index cache and job manager, and renders /metrics.
///
/// The API is versioned under /v1/ and every JSON response carries
/// "schema_version": 1; a path outside /v1/ answers 404. Endpoints (all
/// request/response bodies are JSON unless noted):
///   POST   /v1/tables         {"name","csv"[,"permissive"]} -> table entry
///   GET    /v1/tables         -> {"tables":[...]}
///   GET    /v1/tables/{name}  -> table entry + "storage" stats (encoding,
///                                resident/spilled bytes and pages)
///   POST   /v1/jobs           {"source_table","target_table","target_column"
///                              [,"deadline_ms","trace","num_threads","q",
///                              "sample_fraction","detect_separators"]}
///                             -> 202 {"id"} | 429 when full
///   GET    /v1/jobs           -> {"jobs":[...]}
///   GET    /v1/jobs/{id}      -> job snapshot (state, formula, truncated,
///                                explain when traced, ...)
///   GET    /v1/jobs/{id}/trace -> {"schema_version","events":[...]}; 404
///                                for unknown ids AND untraced jobs
///   DELETE /v1/jobs/{id}      -> requests cancellation
///   GET    /v1/metrics        -> text/plain counters + latency histograms
///   GET    /v1/healthz        -> {"status":"ok"}
///
/// Status mapping: NotFound->404, InvalidArgument/ParseError->400 (incl.
/// SearchOptions::Validate failures at job intake),
/// ResourceExhausted->429 (queue backpressure), anything else->500. A job
/// whose deadline trips is NOT an HTTP error: it completes as
/// state=done, truncated=true.
class DiscoveryService {
 public:
  struct Options {
    size_t job_workers = 2;
    size_t max_queue = 16;
    size_t cache_bytes = 256 * 1024 * 1024;
    /// Terminal jobs retained for GET /jobs/{id}; oldest evicted beyond this.
    size_t retained_jobs = 256;
    /// Queue-depth watermark where admission starts degrading jobs
    /// (tightened work caps -> truncated-but-valid partials) instead of
    /// queueing full-cost work. 0 = degrade disabled. Must be < max_queue to
    /// take effect before shedding.
    size_t degrade_at = 0;
    /// Work caps merged into degraded jobs (see JobManager::Options).
    BudgetLimits degraded_limits;
  };

  explicit DiscoveryService(Options options);

  /// The HttpServer handler. Thread-safe; called concurrently from the
  /// server's worker pool.
  HttpResponse Handle(const HttpRequest& request);

  TableRegistry& registry() { return registry_; }
  IndexCache& cache() { return cache_; }
  JobManager& jobs() { return jobs_; }

  /// Flips /v1/healthz to 503 {"status":"draining"} so health-gated routers
  /// stop sending new work while in-flight jobs finish. Call at the start of
  /// SIGTERM drain, while the HTTP server is still answering.
  void BeginDrain() { draining_.store(true); }
  bool draining() const { return draining_.load(); }

  /// Renders the /metrics text body (also used by tests directly).
  std::string RenderMetrics() const;

 private:
  /// Dispatches `path`, the request path with its /v1 prefix stripped.
  HttpResponse Route(const HttpRequest& request, std::string_view path);
  HttpResponse HandlePostTables(const HttpRequest& request);
  HttpResponse HandleGetTables();
  HttpResponse HandleTableByName(const HttpRequest& request,
                                 const std::string& name);
  HttpResponse HandlePostJobs(const HttpRequest& request);
  HttpResponse HandleGetJobs();
  HttpResponse HandleJobById(const HttpRequest& request, uint64_t id);
  HttpResponse HandleJobTrace(const HttpRequest& request, uint64_t id);

  Options options_;
  TableRegistry registry_;
  IndexCache cache_;
  JobManager jobs_;

  // Per-endpoint request latency (handler time, not socket time).
  LatencyHistogram tables_latency_;
  LatencyHistogram jobs_latency_;
  LatencyHistogram metrics_latency_;
  LatencyHistogram other_latency_;
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> requests_bad_{0};  ///< 4xx/5xx responses
  /// Set once by BeginDrain (seq_cst: rarely touched, never on a hot path).
  std::atomic<bool> draining_{false};
};

/// Maps a Status to the HTTP code documented on DiscoveryService.
int HttpStatusFor(const Status& status);

}  // namespace mcsm::service

#endif  // MCSM_SERVICE_SERVICE_H_
