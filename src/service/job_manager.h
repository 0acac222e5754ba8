#ifndef MCSM_SERVICE_JOB_MANAGER_H_
#define MCSM_SERVICE_JOB_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/matcher.h"
#include "service/registry.h"

namespace mcsm::service {

/// Lifecycle of one discovery job. Terminal states: done, failed, cancelled.
/// A deadline_ms trip is NOT failed — the job lands in kDone with
/// truncated=true and the best partial formula (anytime semantics).
enum class JobState : uint8_t {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
};

const char* JobStateName(JobState state);

/// What a job does: discover a translation formula (the default), or bulk-
/// translate the source table with the formula bytecode VM (DESIGN.md §12) —
/// discovering first, or replaying a client-supplied wire program.
enum class JobMode : uint8_t {
  kDiscover,
  kTranslate,
};

const char* JobModeName(JobMode mode);

/// What a client submits: which registered tables to match and how long the
/// run may take. `options` carries the search knobs; its budget/shared_budget
/// fields are overwritten by the manager (deadline_ms is the one public
/// latency control).
struct JobRequest {
  JobMode mode = JobMode::kDiscover;
  std::string source_table;
  std::string target_table;
  size_t target_column = 0;
  /// Translate mode only: raw wire bytes of a saved vm::Program (the HTTP
  /// layer decodes the hex `program` field into this). When empty, the job
  /// discovers a formula first and compiles it; when set, target_table /
  /// target_column are not needed and discovery is skipped entirely.
  std::string program_wire;
  /// Wall-clock execution budget in milliseconds, mapped onto RunBudget
  /// (0 = unlimited). Measured from the moment the job starts RUNNING, so a
  /// queued job does not burn its budget waiting for a worker.
  int64_t deadline_ms = 0;
  /// Capture a structured trace of the run (POST /v1/jobs {"trace": true}).
  /// The trace is held in memory with the job — readable via
  /// GET /v1/jobs/{id}/trace until the job is evicted by retention — and the
  /// result snapshot gains an `explain` decision log.
  bool trace = false;
  /// Work-unit caps applied to the run (wall_ms is ignored: deadline_ms is
  /// the one wall-clock control). Normally empty; the admission gate
  /// tightens these under load so an overloaded replica degrades to
  /// truncated-but-valid partials instead of queueing unbounded work.
  BudgetLimits limits;
  /// Set by the admission gate when `limits` were tightened under load; the
  /// snapshot reports it so clients can tell a degraded partial from a
  /// deadline trip.
  bool degraded = false;
  core::SearchOptions options;
};

/// Immutable view of a job for handlers: everything GET /jobs/{id} renders.
struct JobSnapshot {
  uint64_t id = 0;
  JobState state = JobState::kQueued;
  JobMode mode = JobMode::kDiscover;
  std::string source_table;
  std::string target_table;
  size_t target_column = 0;
  /// Valid in kDone.
  std::string formula;
  std::string sql;
  /// Why `sql` is empty although `formula` is complete (ToSql's error).
  std::string sql_error;
  size_t matched_rows = 0;
  bool truncated = false;
  std::string budget_trip;  ///< axis name when truncated ("wall-clock", ...)
  /// True when the admission gate ran this job with tightened work caps.
  bool degraded = false;
  /// Valid in kFailed.
  std::string error;
  double run_seconds = 0;  ///< execution time (0 until the job ran)
  /// True when the job was submitted with trace=true.
  bool traced = false;
  /// The "why this formula won" decision log (terminal traced jobs only).
  std::string explain;
  /// Translate-mode jobs (valid in kDone/kCancelled): source rows executed
  /// (the processed prefix when truncated) and covered rows produced.
  size_t rows_in = 0;
  size_t rows_translated = 0;
  /// Translate-mode jobs: the program that ran — human-readable disassembly
  /// plus the hex wire form a client can save and replay.
  std::string program;
  std::string program_wire_hex;
};

/// \brief Async discovery-job manager: a bounded queue in front of a
/// Background thread pool, with per-job RunBudget for deadlines and
/// cooperative cancellation.
///
/// Backpressure: Submit rejects with ResourceExhausted (HTTP 429) once
/// `max_queue` jobs are queued-not-yet-running. Running jobs don't count —
/// the pool bounds those at `workers` — so total admitted-but-unfinished
/// work is workers + max_queue.
///
/// Cancellation: a queued job flips straight to kCancelled; a running job
/// gets its RunBudget tripped (one CAS) and stops at the search's next
/// budget check, landing in kCancelled with whatever partial it had. Either
/// way Cancel returns immediately.
///
/// Retention: at its terminal transition a job drops its table pins and
/// budget (only the sealed snapshot is served afterwards), and once more
/// than `max_terminal` terminal jobs exist the oldest are evicted — so
/// neither jobs_ nor replaced tables grow without bound over the service
/// lifetime. Get/Cancel on an evicted id return NotFound/false.
class JobManager {
 public:
  struct Options {
    size_t workers = 2;
    size_t max_queue = 16;
    /// Terminal jobs retained for GET /jobs/{id}; oldest evicted beyond this.
    size_t max_terminal = 256;
    /// Queue-depth watermark at which admission degrades new jobs by
    /// tightening their work caps to `degraded_limits` (0 = never degrade).
    /// Must be below max_queue for degradation to precede shedding.
    size_t degrade_at = 0;
    /// Caps merged (min-of-nonzero) into a degraded job's limits. Work-unit
    /// axes only: caps are machine-independent, so a degraded partial is
    /// byte-identical wherever it runs — wall_ms here is ignored.
    BudgetLimits degraded_limits;
  };

  /// `registry` and `cache` must outlive the manager; both may be shared
  /// with the HTTP handlers.
  JobManager(const TableRegistry* registry, IndexCache* cache,
             Options options);

  /// Drains: queued jobs still run to completion before destruction returns
  /// (the pool destructor finishes its queue). Cancel first for a fast exit.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Validates the request (tables exist, target column in range) and
  /// enqueues it. Returns the job id, or ResourceExhausted when the queue is
  /// full (map to 429), or NotFound/InvalidArgument for bad requests.
  Result<uint64_t> Submit(JobRequest request);

  /// Requests cancellation; returns false for unknown ids, true otherwise
  /// (including jobs already terminal, where it is a no-op).
  bool Cancel(uint64_t id);

  /// Snapshot for GET /jobs/{id}; NotFound for unknown ids.
  Result<JobSnapshot> Get(uint64_t id) const;

  /// The captured trace as `{"schema_version":1,"events":[...]}` in the
  /// canonical (Id-sorted) order. NotFound for unknown ids AND for jobs that
  /// were not submitted with trace=true — both map to HTTP 404.
  Result<std::string> TraceJson(uint64_t id) const;

  std::vector<JobSnapshot> List() const;

  /// Blocks until every submitted job is terminal (SIGTERM drain).
  void Drain();

  /// Jobs admitted but not yet running (the admission gate's watermark
  /// input; also what Retry-After is derived from).
  size_t queue_depth() const;

  /// Suggested client wait before resubmitting after a 429: queue depth ×
  /// mean observed job latency ÷ workers, clamped to [1s, 60s]. With no
  /// latency history yet a 500 ms prior is assumed.
  int RetryAfterSeconds() const;

  /// Monotonic counters for /metrics.
  uint64_t submitted() const { return Counter(submitted_); }
  uint64_t rejected() const { return Counter(rejected_); }
  uint64_t degraded() const { return Counter(degraded_); }
  uint64_t completed() const { return Counter(completed_); }
  uint64_t failed() const { return Counter(failed_); }
  uint64_t cancelled() const { return Counter(cancelled_); }
  uint64_t traced() const { return Counter(traced_); }
  uint64_t trace_events() const { return Counter(trace_events_); }
  uint64_t trace_spans() const { return Counter(trace_spans_); }
  uint64_t translate_jobs() const { return Counter(translate_jobs_); }
  uint64_t translate_rows() const { return Counter(translate_rows_); }

 private:
  struct Job {
    uint64_t id = 0;
    JobState state = JobState::kQueued;
    JobRequest request;
    // Tables resolved at submit time, so a later re-registration of the
    // name cannot change what this job runs against.
    TableEntry source;
    TableEntry target;
    bool cancel_requested = false;
    std::unique_ptr<RunBudget> budget;  ///< created when the job starts
    /// Per-job trace capture (trace=true requests). Unlike budget/pins this
    /// survives the terminal transition — it IS the artifact the trace
    /// endpoint serves — and is bounded by max_terminal retention.
    std::shared_ptr<InMemoryTraceSink> trace_sink;
    JobSnapshot result;                 ///< filled at terminal transition
    double run_seconds = 0;
  };

  // ordering: relaxed — monotonic metrics counters; readers tolerate a
  // slightly stale value and never infer other state from them.
  static uint64_t Counter(const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  }

  void RunJob(uint64_t id);
  /// Builds the snapshot under mu_.
  JobSnapshot SnapshotLocked(const Job& job) const MCSM_REQUIRES(mu_);
  /// Terminal bookkeeping under mu_ (counter + drain wakeup).
  void FinishLocked(Job* job, JobState terminal) MCSM_REQUIRES(mu_);

  const TableRegistry* registry_;
  IndexCache* cache_;
  Options options_;

  mutable Mutex mu_;
  std::condition_variable_any drained_cv_;
  std::unordered_map<uint64_t, std::unique_ptr<Job>> jobs_
      MCSM_GUARDED_BY(mu_);
  /// Terminal job ids, oldest first — the retention-eviction order.
  std::deque<uint64_t> terminal_order_ MCSM_GUARDED_BY(mu_);
  uint64_t next_id_ MCSM_GUARDED_BY(mu_) = 1;
  size_t queued_ MCSM_GUARDED_BY(mu_) = 0;  ///< admitted, not yet running
  size_t active_ MCSM_GUARDED_BY(mu_) = 0;  ///< not yet terminal

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> degraded_{0};
  /// Run-latency accumulator feeding RetryAfterSeconds (jobs that actually
  /// executed; cancelled-before-running jobs are excluded).
  std::atomic<uint64_t> run_ms_total_{0};
  std::atomic<uint64_t> runs_measured_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> traced_{0};
  std::atomic<uint64_t> trace_events_{0};
  std::atomic<uint64_t> trace_spans_{0};
  std::atomic<uint64_t> translate_jobs_{0};
  std::atomic<uint64_t> translate_rows_{0};

  // Declared last: its destructor drains the task queue while the fields
  // above are still alive for the running tasks.
  ThreadPool pool_;
};

}  // namespace mcsm::service

#endif  // MCSM_SERVICE_JOB_MANAGER_H_
