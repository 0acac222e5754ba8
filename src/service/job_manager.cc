#include "service/job_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "core/explain.h"
#include "vm/compiler.h"
#include "vm/executor.h"

namespace mcsm::service {

namespace {

/// Merges `cap` into `limits`: each nonzero cap axis becomes the minimum of
/// the two (0 = unlimited on either side). wall_ms is left alone — the
/// deadline is a latency control, not a degradation axis.
void TightenLimits(BudgetLimits* limits, const BudgetLimits& cap) {
  auto tighten = [](uint64_t* axis, uint64_t cap_value) {
    if (cap_value == 0) return;
    *axis = (*axis == 0) ? cap_value : std::min(*axis, cap_value);
  };
  tighten(&limits->max_postings_scanned, cap.max_postings_scanned);
  tighten(&limits->max_pairs_aligned, cap.max_pairs_aligned);
  tighten(&limits->max_candidate_formulas, cap.max_candidate_formulas);
}

}  // namespace

const char* JobModeName(JobMode mode) {
  switch (mode) {
    case JobMode::kDiscover:
      return "discover";
    case JobMode::kTranslate:
      return "translate";
  }
  return "unknown";
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

JobManager::JobManager(const TableRegistry* registry, IndexCache* cache,
                       Options options)
    : registry_(registry),
      cache_(cache),
      options_(options),
      pool_(ThreadPool::Background{std::max<size_t>(options.workers, 1)}) {}

JobManager::~JobManager() { Drain(); }

Result<uint64_t> JobManager::Submit(JobRequest request) {
  if (request.mode == JobMode::kDiscover && !request.program_wire.empty()) {
    return Status::InvalidArgument(
        "'program' is only valid with \"mode\": \"translate\"");
  }
  TableEntry source = registry_->Find(request.source_table);
  if (source.table == nullptr) {
    return Status::NotFound(
        StrFormat("source table '%s' is not registered",
                  request.source_table.c_str()));
  }
  // Translate-with-program skips discovery, so it needs no target table at
  // all; decode the program up front so a malformed wire form is a 400 at
  // submit, not a failed job later.
  const bool translate_with_program =
      request.mode == JobMode::kTranslate && !request.program_wire.empty();
  TableEntry target;
  if (translate_with_program) {
    auto program = vm::Program::Deserialize(request.program_wire);
    if (!program.ok()) return program.status();
    if (program->min_columns() > source.table->num_columns()) {
      return Status::InvalidArgument(
          StrFormat("program needs %u source columns, table '%s' has %zu",
                    program->min_columns(), request.source_table.c_str(),
                    source.table->num_columns()));
    }
  } else {
    target = registry_->Find(request.target_table);
    if (target.table == nullptr) {
      return Status::NotFound(
          StrFormat("target table '%s' is not registered",
                    request.target_table.c_str()));
    }
    if (request.target_column >= target.table->num_columns()) {
      return Status::InvalidArgument(
          StrFormat("target column %zu out of range (table has %zu columns)",
                    request.target_column, target.table->num_columns()));
    }
  }
  if (request.deadline_ms < 0) {
    return Status::InvalidArgument("deadline_ms must be >= 0");
  }
  // One validation path for every search knob a client can set
  // (SearchOptions::Validate); InvalidArgument maps to HTTP 400. The env
  // fields are still manager-owned — RunJob overwrites them below — so a
  // request can only fail on its algorithm knobs.
  MCSM_RETURN_IF_ERROR(request.options.Validate());

  const JobMode mode = request.mode;
  uint64_t id = 0;
  {
    MutexLock lock(mu_);
    if (queued_ >= options_.max_queue) {
      // ordering: relaxed — monotonic metrics counter.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          StrFormat("job queue full (%zu queued); retry later",
                    queued_));
    }
    // Admission gate: past the watermark, new jobs run with tightened work
    // caps — the service answers with truncated-but-valid partials (still
    // machine-independent, the caps are work units) before it sheds its
    // first request.
    if (options_.degrade_at > 0 && queued_ >= options_.degrade_at) {
      TightenLimits(&request.limits, options_.degraded_limits);
      request.degraded = true;
      // ordering: relaxed — monotonic metrics counter.
      degraded_.fetch_add(1, std::memory_order_relaxed);
    }
    id = next_id_++;
    auto job = std::make_unique<Job>();
    job->id = id;
    job->request = std::move(request);
    job->source = std::move(source);
    job->target = std::move(target);
    if (job->request.trace) {
      // Created at submit so even a cancelled-before-running traced job has
      // a (possibly empty) trace to serve.
      job->trace_sink = std::make_shared<InMemoryTraceSink>();
      // ordering: relaxed — monotonic metrics counter.
      traced_.fetch_add(1, std::memory_order_relaxed);
    }
    jobs_.emplace(id, std::move(job));
    ++queued_;
    ++active_;
  }
  // ordering: relaxed — monotonic metrics counter.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (mode == JobMode::kTranslate) {
    // ordering: relaxed — monotonic metrics counter.
    translate_jobs_.fetch_add(1, std::memory_order_relaxed);
  }
  pool_.Submit([this, id] { RunJob(id); });
  return id;
}

bool JobManager::Cancel(uint64_t id) {
  MutexLock lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job* job = it->second.get();
  job->cancel_requested = true;
  if (job->state == JobState::kRunning && job->budget != nullptr) {
    job->budget->Cancel();  // search stops at its next budget check
  }
  // Queued jobs flip to kCancelled when their pool task fires (RunJob sees
  // the flag before doing any work); terminal jobs ignore the flag.
  return true;
}

Result<JobSnapshot> JobManager::Get(uint64_t id) const {
  MutexLock lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrFormat("no job with id %llu",
                                      static_cast<unsigned long long>(id)));
  }
  return SnapshotLocked(*it->second);
}

Result<std::string> JobManager::TraceJson(uint64_t id) const {
  std::shared_ptr<InMemoryTraceSink> sink;
  {
    MutexLock lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound(StrFormat(
          "no job with id %llu", static_cast<unsigned long long>(id)));
    }
    if (it->second->trace_sink == nullptr) {
      return Status::NotFound(StrFormat(
          "job %llu was not traced (submit with \"trace\": true)",
          static_cast<unsigned long long>(id)));
    }
    sink = it->second->trace_sink;
  }
  // Rendering happens outside mu_ — the sink is internally synchronized and
  // shared ownership keeps it alive even if the job is evicted meanwhile.
  return TraceEventsToJson(sink->CanonicalEvents());
}

std::vector<JobSnapshot> JobManager::List() const {
  MutexLock lock(mu_);
  std::vector<JobSnapshot> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(SnapshotLocked(*job));
  std::sort(out.begin(), out.end(),
            [](const JobSnapshot& a, const JobSnapshot& b) {
              return a.id < b.id;
            });
  return out;
}

void JobManager::Drain() {
  MutexLock lock(mu_);
  // Explicit wait loop (not the predicate overload): the thread-safety
  // analysis cannot see that a predicate lambda runs with mu_ held.
  while (active_ != 0) {
    drained_cv_.wait(lock);
  }
}

size_t JobManager::queue_depth() const {
  MutexLock lock(mu_);
  return queued_;
}

int JobManager::RetryAfterSeconds() const {
  const uint64_t depth = static_cast<uint64_t>(queue_depth());
  // ordering: relaxed — monotonic metrics counters; a slightly stale mean
  // only shifts an advisory hint.
  const uint64_t runs = runs_measured_.load(std::memory_order_relaxed);
  const uint64_t mean_ms =
      runs > 0 ? run_ms_total_.load(std::memory_order_relaxed) / runs : 500;
  const uint64_t workers = std::max<uint64_t>(options_.workers, 1);
  // Time to drain the queue ahead of a resubmission, rounded up to seconds.
  const uint64_t wait_ms = (depth + 1) * std::max<uint64_t>(mean_ms, 1);
  const uint64_t seconds = (wait_ms / workers + 999) / 1000;
  return static_cast<int>(std::min<uint64_t>(std::max<uint64_t>(seconds, 1),
                                             60));
}

JobSnapshot JobManager::SnapshotLocked(const Job& job) const {
  if (job.state == JobState::kDone || job.state == JobState::kFailed ||
      job.state == JobState::kCancelled) {
    return job.result;  // terminal snapshot was sealed at transition
  }
  JobSnapshot snapshot;
  snapshot.id = job.id;
  snapshot.state = job.state;
  snapshot.mode = job.request.mode;
  snapshot.source_table = job.request.source_table;
  snapshot.target_table = job.request.target_table;
  snapshot.target_column = job.request.target_column;
  snapshot.traced = job.request.trace;
  snapshot.degraded = job.request.degraded;
  return snapshot;
}

void JobManager::FinishLocked(Job* job, JobState terminal) {
  job->state = terminal;
  job->result.state = terminal;
  job->result.run_seconds = job->run_seconds;
  // Only the sealed snapshot is served from here on: drop the table pins and
  // budget so a replaced table is not kept alive by finished jobs.
  job->source = TableEntry{};
  job->target = TableEntry{};
  job->budget.reset();
  // ordering: relaxed — monotonic metrics counters; the terminal-state
  // transition itself is published by mu_, not by these.
  switch (terminal) {
    case JobState::kDone:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::kFailed:
      // ordering: relaxed — see above.
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::kCancelled:
      // ordering: relaxed — see above.
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  terminal_order_.push_back(job->id);
  while (terminal_order_.size() > options_.max_terminal) {
    jobs_.erase(terminal_order_.front());
    terminal_order_.pop_front();
  }
  --active_;
  if (active_ == 0) drained_cv_.notify_all();
}

void JobManager::RunJob(uint64_t id) {
  std::shared_ptr<const relational::Table> source_table;
  std::shared_ptr<const relational::Table> target_table;
  core::SearchOptions options;
  size_t target_column = 0;
  JobMode mode = JobMode::kDiscover;
  std::string program_wire;
  RunBudget* budget = nullptr;
  // Local ref keeps the sink alive for the whole run even if the job entry
  // is evicted concurrently.
  std::shared_ptr<InMemoryTraceSink> trace_sink;
  uint64_t source_fp = 0;
  uint64_t target_fp = 0;

  {
    MutexLock lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return;
    Job* job = it->second.get();
    --queued_;
    if (job->cancel_requested) {
      job->result = SnapshotLocked(*job);
      FinishLocked(job, JobState::kCancelled);
      return;
    }
    job->state = JobState::kRunning;
    // Admission-gate work caps (if any) plus the client's deadline.
    BudgetLimits limits = job->request.limits;
    limits.wall_ms = job->request.deadline_ms;
    job->budget = std::make_unique<RunBudget>(limits);
    budget = job->budget.get();
    trace_sink = job->trace_sink;
    source_table = job->source.table;
    target_table = job->target.table;
    source_fp = job->source.fingerprint;
    target_fp = job->target.fingerprint;
    options = job->request.options;
    target_column = job->request.target_column;
    mode = job->request.mode;
    program_wire = job->request.program_wire;
  }

  const auto started = std::chrono::steady_clock::now();
  auto seal = [&](auto&& fill, JobState terminal) {
    // The explain report renders outside mu_ (the sink is internally
    // synchronized, and by now the search has finished emitting).
    std::string explain;
    if (trace_sink != nullptr) {
      explain = core::ExplainText(trace_sink->CanonicalEvents());
      // ordering: relaxed — monotonic metrics counters.
      trace_events_.fetch_add(trace_sink->event_count(),
                              std::memory_order_relaxed);
      trace_spans_.fetch_add(trace_sink->span_count(),
                             std::memory_order_relaxed);
    }
    MutexLock lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return;
    Job* job = it->second.get();
    job->run_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started)
                           .count();
    // ordering: relaxed — monotonic accumulators; RetryAfterSeconds only
    // needs an approximate mean.
    run_ms_total_.fetch_add(
        static_cast<uint64_t>(job->run_seconds * 1000.0),
        std::memory_order_relaxed);
    runs_measured_.fetch_add(1, std::memory_order_relaxed);
    job->result = SnapshotLocked(*job);
    fill(&job->result);
    if (trace_sink != nullptr) job->result.explain = std::move(explain);
    FinishLocked(job, terminal);
  };

  // Chaos site: MCSM_FAILPOINTS=service.job=error makes jobs fail cleanly
  // (state kFailed, error populated, server keeps serving); delay:Nms models
  // slow jobs to exercise queue backpressure and deadline trips.
  if (Status st = failpoint::Trigger(failpoint::kServiceJob); !st.ok()) {
    seal([&](JobSnapshot* r) { r->error = st.message(); }, JobState::kFailed);
    return;
  }

  // Translate-with-program jobs replay a saved program and skip discovery
  // entirely; everything else discovers first.
  vm::Program program;
  std::string formula_text;
  std::string sql_text;
  std::string sql_error;
  size_t matched_rows = 0;
  if (mode == JobMode::kTranslate && !program_wire.empty()) {
    auto decoded = vm::Program::Deserialize(program_wire);
    if (!decoded.ok()) {  // validated at Submit; a failure here is hostile
      seal([&](JobSnapshot* r) { r->error = decoded.status().message(); },
           JobState::kFailed);
      return;
    }
    program = std::move(decoded.value());
  } else {
    options.env.shared_budget = budget;
    options.env.trace = trace_sink.get();
    relational::ColumnIndex::Options target_index_options;
    target_index_options.q = options.q;
    target_index_options.build_postings = true;
    options.env.target_index = cache_->GetOrBuild(target_table, target_fp,
                                                  target_column,
                                                  target_index_options);
    options.env.source_index_provider =
        [this, source_table, source_fp](size_t column)
        -> std::shared_ptr<const relational::ColumnSummary> {
      return cache_->GetOrBuildSummary(source_table, source_fp, column);
    };

    auto discovered = core::DiscoverTranslation(*source_table, *target_table,
                                                target_column, options);
    if (!discovered.ok()) {
      seal([&](JobSnapshot* r) { r->error = discovered.status().message(); },
           JobState::kFailed);
      return;
    }
    const core::DiscoveredTranslation& translation = discovered.value();
    const bool was_cancelled =
        translation.truncated() &&
        translation.search.budget_trip == BudgetTrip::kCancelled;
    if (mode == JobMode::kDiscover) {
      seal(
          [&](JobSnapshot* r) {
            r->formula =
                translation.formula().ToString(source_table->schema());
            r->sql = translation.sql;
            r->sql_error = translation.sql_error;
            r->matched_rows = translation.coverage.matched_rows();
            r->truncated = translation.truncated();
            if (translation.truncated()) {
              r->budget_trip = BudgetTripName(translation.search.budget_trip);
            }
          },
          was_cancelled ? JobState::kCancelled : JobState::kDone);
      return;
    }
    formula_text = translation.formula().ToString(source_table->schema());
    sql_text = translation.sql;
    sql_error = translation.sql_error;
    matched_rows = translation.coverage.matched_rows();
    if (was_cancelled) {
      // Cancelled mid-discovery: no rows were translated.
      seal(
          [&](JobSnapshot* r) {
            r->formula = formula_text;
            r->truncated = true;
            r->budget_trip = BudgetTripName(BudgetTrip::kCancelled);
          },
          JobState::kCancelled);
      return;
    }
    auto compiled =
        vm::CompileFormula(translation.formula(), source_table->schema());
    if (!compiled.ok()) {
      // E.g. the deadline tripped before discovery completed the formula —
      // there is nothing runnable to translate with.
      seal([&](JobSnapshot* r) { r->error = compiled.status().message(); },
           JobState::kFailed);
      return;
    }
    program = std::move(compiled.value());
  }

  // Bulk translation: charges the same per-job budget (rows + remaining
  // deadline), so cancel/deadline semantics match discovery jobs.
  vm::TranslateOptions translate_options;
  translate_options.num_threads = options.num_threads;
  translate_options.budget = budget;
  auto translated = vm::Translate(program, *source_table, translate_options);
  if (!translated.ok()) {
    seal([&](JobSnapshot* r) { r->error = translated.status().message(); },
         JobState::kFailed);
    return;
  }
  const vm::TranslateResult& result = translated.value();
  // ordering: relaxed — monotonic metrics counter (mcsm_translate_rows_total).
  translate_rows_.fetch_add(result.output_rows(), std::memory_order_relaxed);
  const bool was_cancelled =
      result.truncated && result.budget_trip == BudgetTrip::kCancelled;
  seal(
      [&](JobSnapshot* r) {
        r->formula = formula_text;
        r->sql = sql_text;
        r->sql_error = sql_error;
        r->matched_rows = matched_rows;
        r->rows_in = result.rows_processed;
        r->rows_translated = result.output_rows();
        r->truncated = result.truncated;
        if (result.truncated) {
          r->budget_trip = BudgetTripName(result.budget_trip);
        }
        r->program = program.Disassemble();
        r->program_wire_hex = vm::BytesToHex(program.Serialize());
      },
      was_cancelled ? JobState::kCancelled : JobState::kDone);
}

}  // namespace mcsm::service
