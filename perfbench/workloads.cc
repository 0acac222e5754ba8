#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "common/annotations.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/matcher.h"
#include "core/search.h"
#include "datagen/datasets.h"
#include "relational/column_index.h"
#include "relational/csv.h"
#include "service/client.h"
#include "service/http.h"
#include "service/json.h"
#include "service/service.h"
#include "vm/compiler.h"
#include "vm/executor.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mcsm::core::DiscoveredTranslation;
using mcsm::core::TranslationFormula;
using mcsm::datagen::Dataset;
using mcsm::service::Json;

// Load shape (NOTES.md): the machine has 4 cores and is shared, so
// discovery and translation use a fixed 2 workers (at 4 the slowest worker
// sets the time and three citeseer discoveries spread by 45%), and the
// service load is one process with at most 3 connections in flight.
constexpr size_t kThreads = 2;
constexpr size_t kJobWorkers = 2;
constexpr size_t kClients = 3;

// The service's index-cache budget. Each write leaves the indexes of the
// version it replaced in the cache (2-5 MB per version here), and under the
// 256 MB default they are never evicted within a run, so the process grew by
// 2-5 MB per write, and peak_rss_mb followed the number of writes, which
// follows the host's speed. At 32 MB the versions no job reads any more are
// evicted and memory levels off after about ten writes; every workload's
// live catalog (at most about 15 MB of indexes, serve) still fits.
constexpr size_t kCacheBytes = 32u << 20;

// Sample counts. Set-up is repeated and its median reported so that one slow
// allocation does not move setup_s; short set-ups are repeated more. Each
// translation sample covers a fixed row count, never one millisecond-scale
// pass. The traced run's service load is a fixed 200 jobs, so 20 job
// latencies lie beyond its p90.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 25;
constexpr double kSetupBudgetMs = 1500;
constexpr size_t kRowsPerTranslateSample = 2000000;
constexpr size_t kTracedServiceJobs = 200;
constexpr size_t kWriteEvery = 10;
constexpr size_t kHealthzProbes = 20;
constexpr size_t kCsvParsePasses = 5;

// Each client polls its job after 1/20 of the time it has waited so far,
// with a 1 ms floor: polling every 2 ms on a new connection per poll made
// job_ms drift by 16% between runs; this keeps the polls' own error near 5%
// of a job's latency.
constexpr double kPollFraction = 1.0 / 20.0;
constexpr double kPollFloorMs = 1.0;
constexpr double kJobTimeoutMs = 60000;

/// Counts operations attempted and failed; prints the first failures.
class Ledger {
 public:
  bool Check(bool ok, const std::string& what) {
    attempted_.fetch_add(1);
    if (!ok) Fail(what);
    return ok;
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  void Fail(const std::string& what) {
    failed_.fetch_add(1);
    mcsm::MutexLock lock(mu_);
    if (printed_++ < 20) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mcsm::Mutex mu_;
  int printed_ MCSM_GUARDED_BY(mu_) = 0;
};

/// One source/target problem: how to generate it from the seed, the search
/// knobs it runs with, and how its result is checked.
struct PairSpec {
  std::string name;
  std::function<Dataset(uint64_t seed)> make;
  double sample_fraction = 0.10;
  size_t max_sample = 2000;
  bool detect_separators = false;
  /// The search may return a formula that renders differently from the
  /// ground truth yet is equivalent (citations: year[1-4] for year[1-n],
  /// every year being 4 characters); such pairs are compared by coverage.
  bool compare_by_coverage = false;
  /// The search path recorded for this pair (NOTES.md "Search paths"): the
  /// start columns and refinement iterations seeds 0-29 took, each with no
  /// branch restarted for failing coverage.
  std::vector<std::string> recorded_starts;
  size_t recorded_iterations = 0;
};

/// Whether a discovery took `pair`'s recorded path. `branches` counts the
/// initial formulas refined, so restarts after a coverage failure show.
const char* PathVerdict(const PairSpec& pair, const std::string& start,
                        size_t iterations, size_t branches) {
  const bool same = std::count(pair.recorded_starts.begin(),
                               pair.recorded_starts.end(), start) == 1 &&
                    iterations == pair.recorded_iterations && branches == 1;
  return same ? "(recorded path)" : "(DIFFERS from the recorded path)";
}

/// The work of one measured round: every end-to-end timing takes its
/// samples round by round, so each metric's median spans the whole run (the
/// shared host's speed drifts over seconds, and a metric timed in one block
/// of the run measured the host's state during that block). Rounds start
/// until --seconds have passed, and at least `min_rounds` run, enough for
/// 100 jobs so that job_p90_ms has 10 samples beyond it.
struct RoundShape {
  size_t discovery_passes = 1;
  size_t translate_samples = 1;
  size_t job_chunks = 1;
  size_t jobs_per_chunk = 0;
  size_t min_rounds = 3;
};

struct WorkloadSpec {
  std::string name;
  RoundShape round;
  /// Discovered and translated in process, at kThreads workers.
  std::vector<PairSpec> library;
  /// Registered with the service; the jobs run on these. Empty when the
  /// workload's catalog is its library (serve).
  std::vector<PairSpec> catalog;
  /// The catalog pair whose source table the writes re-register. One pair
  /// keeps register_ms a median over one table size: spread over pairs of
  /// different sizes, the latencies form one cluster per size and the
  /// median jumps between clusters from run to run.
  size_t write_pair = 0;
};

PairSpec MergedNames(std::string name, size_t rows, bool comma) {
  PairSpec p;
  p.name = std::move(name);
  p.detect_separators = comma;
  p.make = [rows, comma](uint64_t seed) {
    mcsm::datagen::MergedNamesOptions o;
    o.rows = rows;
    o.distinct_names = rows / 10;
    o.comma_separator = comma;
    o.seed = seed;
    return mcsm::datagen::MakeMergedNamesDataset(o);
  };
  return p;
}

PairSpec Citations(std::string name, size_t rows) {
  PairSpec p;
  p.name = std::move(name);
  p.compare_by_coverage = true;
  p.make = [rows](uint64_t seed) {
    mcsm::datagen::CitationOptions o;
    o.rows = rows;
    o.seed = seed;
    return mcsm::datagen::MakeCitationDataset(o);
  };
  return p;
}

std::optional<WorkloadSpec> FindSpec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "fullname") {
    // Section 4.3 at 200,000 rows: the 2,000-key sample cap applies and the
    // search takes the refinement-heavy path. Below about 150,000 rows it
    // takes a different, refinement-light path.
    PairSpec big = MergedNames("fullname", 200000, false);
    // The two name columns score almost alike in step 1, so the start
    // column follows the seed; both paths refine twice.
    big.recorded_starts = {"first", "last"};
    big.recorded_iterations = 2;
    w.library.push_back(big);
    w.catalog.push_back(MergedNames("names", 3000, false));
    // A round takes about 10 s; at least two rounds run.
    w.round = {.discovery_passes = 1, .translate_samples = 6, .job_chunks = 6,
               .jobs_per_chunk = 12, .min_rounds = 2};
  } else if (name == "citeseer") {
    // Section 4.4 at 52,600 rows and 1% samples, as bench_citeseer runs it:
    // index builds, step 1 over 17 columns and step 2 alignment dominate.
    PairSpec big = Citations("citeseer", 52600);
    big.sample_fraction = 0.01;
    big.max_sample = 4000;
    big.recorded_starts = {"title"};
    big.recorded_iterations = 2;
    w.library.push_back(big);
    w.catalog.push_back(Citations("citation", 1000));
    w.round = {.discovery_passes = 1, .translate_samples = 4, .job_chunks = 2,
               .jobs_per_chunk = 12, .min_rounds = 5};
  } else if (name == "serve") {
    // Five small pairs from five generator families, each sized so one
    // single-threaded job takes roughly 30-100 ms. The userid family is
    // left out: at every size from 4,000 to 12,000 rows, 10-30% of seeds
    // make the search restart branches that fail coverage, which triples
    // the pair's cost and splits the workload's timings in two.
    PairSpec time;
    time.name = "time";
    time.recorded_starts = {"hrs"};
    time.recorded_iterations = 2;
    time.make = [](uint64_t seed) {
      mcsm::datagen::TimeOptions o;
      o.rows = 1500;
      o.seed = seed;
      return mcsm::datagen::MakeTimeDataset(o);
    };
    // Without separator detection the date pair needs ~8,000 rows to find
    // a formula that covers every row; at 2,000 rows it finds one only
    // with detection.
    PairSpec date;
    date.name = "date";
    date.detect_separators = true;
    date.recorded_starts = {"date"};
    date.recorded_iterations = 1;
    date.make = [](uint64_t seed) {
      mcsm::datagen::DateFormatOptions o;
      o.rows = 2000;
      o.seed = seed;
      return mcsm::datagen::MakeDateFormatDataset(o);
    };
    PairSpec part;
    part.name = "part";
    part.detect_separators = true;
    part.compare_by_coverage = true;
    part.recorded_starts = {"year"};
    part.recorded_iterations = 2;
    part.make = [](uint64_t seed) {
      mcsm::datagen::PartNumberOptions o;
      o.rows = 800;
      o.seed = seed;
      return mcsm::datagen::MakePartNumberDataset(o);
    };
    PairSpec citation = Citations("citation", 1000);
    citation.recorded_starts = {"title"};
    citation.recorded_iterations = 2;
    PairSpec names = MergedNames("names", 3000, true);
    names.recorded_starts = {"first", "last"};
    names.recorded_iterations = 1;
    w.library = {time, date, citation, part, names};
    w.write_pair = 4;  // names: the largest source, the longest register
    w.round = {.discovery_passes = 3, .translate_samples = 4, .job_chunks = 2,
               .jobs_per_chunk = 10, .min_rounds = 6};
  } else {
    return std::nullopt;
  }
  return w;
}

mcsm::core::SearchOptions SearchOptionsFor(const PairSpec& pair,
                                           size_t threads) {
  mcsm::core::SearchOptions o;
  o.sample_fraction = pair.sample_fraction;
  o.max_sample = pair.max_sample;
  o.detect_separators = pair.detect_separators;
  o.num_threads = threads;
  return o;
}

/// Parses a rendered ground-truth formula (`first[1-n]"-"last[1-1]`).
std::optional<TranslationFormula> ParseFormula(
    const std::string& text, const mcsm::relational::Schema& schema) {
  using mcsm::core::Region;
  std::vector<Region> regions;
  size_t pos = 0;
  while (pos < text.size()) {
    if (text[pos] == '"') {
      const size_t close = text.find('"', pos + 1);
      if (close == std::string::npos) return std::nullopt;
      regions.push_back(Region::Literal(text.substr(pos + 1, close - pos - 1)));
      pos = close + 1;
      continue;
    }
    const size_t open = text.find('[', pos);
    const size_t dash = text.find('-', open);
    const size_t close = text.find(']', dash);
    if (open == std::string::npos || dash == std::string::npos ||
        close == std::string::npos) {
      return std::nullopt;
    }
    auto column = schema.FindColumn(text.substr(pos, open - pos));
    if (!column) return std::nullopt;
    const size_t start = std::stoul(text.substr(open + 1, dash - open - 1));
    const std::string end = text.substr(dash + 1, close - dash - 1);
    regions.push_back(end == "n" ? Region::SpanToEnd(*column, start)
                                 : Region::Span(*column, start, std::stoul(end)));
    pos = close + 1;
  }
  return TranslationFormula(std::move(regions));
}

bool MatchesGroundTruth(const PairSpec& pair, const Dataset& data,
                        const DiscoveredTranslation& found) {
  if (found.truncated() || !found.formula().IsComplete()) return false;
  if (found.formula().ToString(data.source.schema()) ==
      data.expected_formulas.front()) {
    return true;
  }
  if (!pair.compare_by_coverage) return false;
  auto truth = ParseFormula(data.expected_formulas.front(), data.source.schema());
  if (!truth) return false;
  return mcsm::core::TranslationSearch::ComputeCoverage(
             *truth, data.source, data.target, data.target_column)
             .matched_rows() == found.coverage.matched_rows();
}

std::string Rendered(const DiscoveredTranslation& found,
                     const mcsm::relational::Schema& schema) {
  return found.formula().ToString(schema);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- HTTP ----------------------------------------------------------------

struct HttpResult {
  int status = 0;  ///< 0 = no response (connect or I/O failure)
  std::string body;
  double ms = 0;
  bool ok() const { return status >= 200 && status < 300; }
};

HttpResult Call(const mcsm::service::HttpClient& client, int port,
                const char* method, const std::string& path,
                std::string body = "") {
  mcsm::service::ClientRequest request;
  request.port = port;
  request.method = method;
  request.path = path;
  request.body = std::move(body);
  HttpResult out;
  const auto start = Clock::now();
  auto response = client.Do(request);
  out.ms = MsSince(start);
  if (response.ok()) {
    out.status = response->status;
    out.body = std::move(response->body);
  }
  return out;
}

std::string RegisterBody(const std::string& name, const std::string& csv) {
  Json body = Json::Object();
  body.Set("name", Json::Str(name));
  body.Set("csv", Json::Str(csv));
  return body.Dump();
}

// --- Set-up --------------------------------------------------------------

/// One pair as registered with the service.
struct CatalogPair {
  const PairSpec* spec = nullptr;
  const Dataset* data = nullptr;
  std::string source_name;
  std::string target_name;
  std::string source_csv;
  std::string target_csv;
};

/// Everything a workload builds before its first timed operation.
struct Setup {
  std::vector<Dataset> library;
  std::vector<Dataset> catalog_data;  ///< empty when the catalog is the library
  std::vector<CatalogPair> catalog;
  std::unique_ptr<mcsm::service::DiscoveryService> service;
  std::unique_ptr<mcsm::service::HttpServer> server;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() {
    if (server != nullptr) server->Shutdown();
  }
  int port() const { return server->port(); }
};

/// Generates the data, starts the service and registers the catalog.
/// `tracer` (nullable) records the generator calls.
std::unique_ptr<Setup> BuildSetup(const WorkloadSpec& spec, uint64_t seed,
                                  Tracer* tracer, Ledger* ledger) {
  auto setup = std::make_unique<Setup>();
  auto generate = [&](const PairSpec& pair) {
    if (tracer == nullptr) return pair.make(seed);
    Tracer::Scope span(tracer, "datagen.generate", -1, 0);
    return pair.make(seed);
  };
  for (const PairSpec& pair : spec.library) setup->library.push_back(generate(pair));
  for (const PairSpec& pair : spec.catalog) {
    setup->catalog_data.push_back(generate(pair));
  }
  const bool shared = spec.catalog.empty();
  const std::vector<PairSpec>& pairs = shared ? spec.library : spec.catalog;
  const std::vector<Dataset>& data = shared ? setup->library : setup->catalog_data;
  for (size_t i = 0; i < pairs.size(); ++i) {
    CatalogPair entry;
    entry.spec = &pairs[i];
    entry.data = &data[i];
    entry.source_name = pairs[i].name + "_src";
    entry.target_name = pairs[i].name + "_tgt";
    entry.source_csv = mcsm::relational::WriteCsv(data[i].source);
    entry.target_csv = mcsm::relational::WriteCsv(data[i].target);
    setup->catalog.push_back(std::move(entry));
  }

  mcsm::service::DiscoveryService::Options service_options;
  service_options.job_workers = kJobWorkers;
  service_options.cache_bytes = kCacheBytes;
  setup->service =
      std::make_unique<mcsm::service::DiscoveryService>(service_options);
  mcsm::service::HttpServer::Options server_options;
  server_options.port = 0;
  mcsm::service::DiscoveryService* service = setup->service.get();
  setup->server = std::make_unique<mcsm::service::HttpServer>(
      server_options, [service](const mcsm::service::HttpRequest& request) {
        return service->Handle(request);
      });
  auto started = setup->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: server did not start: %s\n",
                 started.ToString().c_str());
    setup->server.reset();
    return nullptr;
  }
  mcsm::service::HttpClient client;
  for (const CatalogPair& entry : setup->catalog) {
    for (const auto& [name, csv] :
         {std::pair{&entry.source_name, &entry.source_csv},
          std::pair{&entry.target_name, &entry.target_csv}}) {
      HttpResult r = Call(client, setup->port(), "POST", "/v1/tables",
                          RegisterBody(*name, *csv));
      ledger->Check(r.ok(), "register " + *name + ": HTTP " +
                                std::to_string(r.status));
    }
  }
  return setup;
}

// --- In-process discovery and translation --------------------------------

/// The first discovery of each library pair: untimed (it pays first-touch
/// costs), checked against the generator's ground truth, and the reference
/// every later discovery of the pair must reproduce.
struct Reference {
  std::string formula;
  TranslationFormula parsed;
  size_t covered = 0;
  size_t start_column = 0;
  size_t iterations = 0;
  size_t candidates = 0;
};

std::vector<Reference> DiscoverReferences(const WorkloadSpec& spec,
                                          const Setup& setup, uint64_t seed,
                                          Ledger* ledger) {
  std::vector<Reference> refs;
  for (size_t i = 0; i < spec.library.size(); ++i) {
    const PairSpec& pair = spec.library[i];
    const Dataset& data = setup.library[i];
    auto found = mcsm::core::DiscoverTranslation(
        data.source, data.target, data.target_column,
        SearchOptionsFor(pair, kThreads));
    Reference ref;
    if (ledger->Check(found.ok() && MatchesGroundTruth(pair, data, *found),
                      pair.name + ": discovery does not match ground truth " +
                          data.expected_formulas.front() +
                          (found.ok() ? " (found " +
                                            Rendered(*found, data.source.schema()) + ")"
                                      : " (" + found.status().ToString() + ")"))) {
      ref.formula = Rendered(*found, data.source.schema());
      ref.parsed = found->formula();
      ref.covered = found->coverage.matched_rows();
      ref.start_column = found->search.start_column;
      ref.iterations = found->search.iterations.size();
      for (const auto& it : found->search.iterations) {
        ref.candidates += it.candidates_considered;
      }
    }
    const std::string start =
        ref.start_column < data.source.num_columns()
            ? data.source.schema().column(ref.start_column).name
            : "none";
    // DiscoverTranslation reports the accepted branch only; the traced
    // run's stepwise line also counts restarted branches.
    std::printf(
        "path %s seed=%llu rows=%zu start_column=%s refine_iterations=%zu "
        "refine_candidates=%zu formula=%s coverage=%zu %s\n",
        pair.name.c_str(), static_cast<unsigned long long>(seed),
        data.source.num_rows(), start.c_str(), ref.iterations, ref.candidates,
        ref.formula.c_str(), ref.covered,
        PathVerdict(pair, start, ref.iterations, 1));
    refs.push_back(std::move(ref));
  }
  return refs;
}

bool SameAsReference(const DiscoveredTranslation& found, const Reference& ref,
                     const mcsm::relational::Schema& schema) {
  return !found.truncated() && Rendered(found, schema) == ref.formula &&
         found.coverage.matched_rows() == ref.covered;
}

/// One discover_ms sample: every library pair discovered once; the results
/// are checked against their references after the clock stops.
double DiscoveryPass(const WorkloadSpec& spec, const Setup& setup,
                     const std::vector<Reference>& refs, Ledger* ledger) {
  std::vector<mcsm::Result<DiscoveredTranslation>> results;
  const auto start = Clock::now();
  for (size_t i = 0; i < spec.library.size(); ++i) {
    const Dataset& data = setup.library[i];
    results.push_back(mcsm::core::DiscoverTranslation(
        data.source, data.target, data.target_column,
        SearchOptionsFor(spec.library[i], kThreads)));
  }
  const double ms = MsSince(start);
  for (size_t i = 0; i < results.size(); ++i) {
    ledger->Check(results[i].ok() &&
                      SameAsReference(*results[i], refs[i],
                                      setup.library[i].source.schema()),
                  spec.library[i].name + ": discovery differs from the first");
  }
  return ms;
}

/// Compiles each reference formula and checks one untimed translation pass:
/// byte-identical to per-row Apply, and covering as many rows as the
/// formula's coverage (every source row of these pairs has its target).
std::vector<mcsm::vm::Program> CompileAndCheck(
    const WorkloadSpec& spec, const Setup& setup,
    const std::vector<Reference>& refs, Ledger* ledger) {
  std::vector<mcsm::vm::Program> programs;
  for (size_t i = 0; i < spec.library.size(); ++i) {
    const Dataset& data = setup.library[i];
    const std::string& name = spec.library[i].name;
    auto program = mcsm::vm::CompileFormula(refs[i].parsed, data.source.schema());
    if (!ledger->Check(program.ok(), name + ": formula does not compile")) {
      programs.emplace_back();
      continue;
    }
    mcsm::vm::TranslateOptions options;
    options.num_threads = kThreads;
    auto out = mcsm::vm::Translate(*program, data.source, options);
    bool same = out.ok() && !out->truncated &&
                out->rows_processed == data.source.num_rows();
    size_t k = 0;
    for (size_t row = 0; same && row < data.source.num_rows(); ++row) {
      auto expected = refs[i].parsed.Apply(data.source, row);
      if (!expected.has_value()) continue;
      same = k < out->output_rows() && out->rows[k] == row &&
             out->value(k) == *expected;
      ++k;
    }
    same = same && k == out->output_rows();
    ledger->Check(same, name + ": VM output differs from per-row Apply");
    ledger->Check(out.ok() && out->output_rows() == refs[i].covered,
                  name + ": VM covered rows differ from the coverage");
    programs.push_back(std::move(program).value());
  }
  return programs;
}

/// Rows and time of the translation samples of a run.
struct TranslationTotals {
  size_t rows = 0;
  double ms = 0;
  std::vector<double> mrows_per_s;  ///< per sample, for the report line
};

/// One translation sample: the library's sources translated whole,
/// repeatedly, until kRowsPerTranslateSample rows are done.
void TranslationSample(const Setup& setup,
                       const std::vector<mcsm::vm::Program>& programs,
                       TranslationTotals* totals, Ledger* ledger) {
  size_t rows_per_pass = 0;
  for (const Dataset& data : setup.library) rows_per_pass += data.source.num_rows();
  const size_t passes =
      (kRowsPerTranslateSample + rows_per_pass - 1) / rows_per_pass;
  mcsm::vm::TranslateOptions options;
  options.num_threads = kThreads;
  size_t rows = 0;
  bool ok = true;
  const auto start = Clock::now();
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < programs.size(); ++i) {
      auto out = mcsm::vm::Translate(programs[i], setup.library[i].source, options);
      ok = ok && out.ok() && !out->truncated;
      if (out.ok()) rows += out->rows_processed;
    }
  }
  const double ms = MsSince(start);
  if (!ledger->Check(ok, "translation sample failed")) return;
  totals->rows += rows;
  totals->ms += ms;
  totals->mrows_per_s.push_back(static_cast<double>(rows) / ms / 1000.0);
}

// --- Service load --------------------------------------------------------

struct JobRecord {
  size_t pair = 0;
  int submit_status = 0;
  bool terminal = false;
  std::string state;
  std::string formula;
  size_t matched_rows = 0;
  bool truncated = false;
  double latency_ms = 0;
  double run_ms = 0;
  double submit_ms = 0;
  std::vector<double> poll_ms;
};

struct WriteRecord {
  size_t pair = 0;
  bool ok = false;
  double ms = 0;
  std::string csv;
};

struct ServiceLoad {
  std::vector<JobRecord> jobs;
  /// Untimed jobs run before the load; checked like the others.
  std::vector<JobRecord> warmup;
  std::vector<WriteRecord> writes;
  std::vector<double> healthz_ms;
  /// Summed over the chunks the load ran in.
  double wall_ms = 0;
};

std::string JobBody(const CatalogPair& pair) {
  Json body = Json::Object();
  body.Set("source_table", Json::Str(pair.source_name));
  body.Set("target_table", Json::Str(pair.target_name));
  body.Set("target_column",
           Json::Number(static_cast<double>(pair.data->target_column)));
  body.Set("num_threads", Json::Number(1));
  body.Set("sample_fraction", Json::Number(pair.spec->sample_fraction));
  body.Set("detect_separators", Json::Bool(pair.spec->detect_separators));
  return body.Dump();
}

/// The pair's source rows in a seeded order, as CSV: new content (a new
/// fingerprint, so the service re-parses it and its cached indexes no
/// longer apply) over the same rows.
std::string ShuffledSourceCsv(const CatalogPair& pair, mcsm::Rng* rng) {
  const mcsm::relational::Table& source = pair.data->source;
  std::vector<size_t> order(source.num_rows());
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Uniform(i)]);
  }
  mcsm::relational::Table shuffled(source.schema());
  for (size_t row : order) (void)shuffled.AppendRow(source.GetRow(row));
  return mcsm::relational::WriteCsv(shuffled);
}

class ServiceClient {
 public:
  ServiceClient(const Setup& setup, Tracer* tracer, std::atomic<int>* run_ids)
      : setup_(setup), tracer_(tracer), run_ids_(run_ids) {}

  JobRecord RunJob(size_t pair_index) {
    const CatalogPair& pair = setup_.catalog[pair_index];
    JobRecord rec;
    rec.pair = pair_index;
    const int run = run_ids_->fetch_add(1);
    const int root = tracer_ ? tracer_->Begin("service.job", -1, run) : -1;
    const auto start = Clock::now();
    HttpResult submit = Traced("service.submit", root, run, [&] {
      return Call(client_, setup_.port(), "POST", "/v1/jobs", JobBody(pair));
    });
    rec.submit_status = submit.status;
    rec.submit_ms = submit.ms;
    std::string id;
    if (submit.status == 202) {
      auto parsed = Json::Parse(submit.body);
      const Json* id_field = parsed.ok() ? parsed->Find("id") : nullptr;
      if (id_field != nullptr) {
        id = std::to_string(static_cast<uint64_t>(id_field->AsNumber(0)));
      }
    }
    while (!id.empty() && MsSince(start) < kJobTimeoutMs) {
      const double wait = std::max(kPollFloorMs, MsSince(start) * kPollFraction);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
      HttpResult poll = Traced("service.poll", root, run, [&] {
        return Call(client_, setup_.port(), "GET", "/v1/jobs/" + id);
      });
      rec.poll_ms.push_back(poll.ms);
      if (!poll.ok()) break;
      auto snapshot = Json::Parse(poll.body);
      if (!snapshot.ok()) break;
      const Json* state = snapshot->Find("state");
      rec.state = state != nullptr ? state->AsString("") : "";
      if (rec.state == "queued" || rec.state == "running") continue;
      rec.terminal = true;
      rec.latency_ms = MsSince(start);
      if (const Json* f = snapshot->Find("formula")) rec.formula = f->AsString("");
      if (const Json* m = snapshot->Find("matched_rows")) {
        rec.matched_rows = static_cast<size_t>(m->AsNumber(0));
      }
      if (const Json* t = snapshot->Find("truncated")) rec.truncated = t->AsBool(true);
      if (const Json* r = snapshot->Find("run_seconds")) {
        rec.run_ms = r->AsNumber(0) * 1000.0;
      }
      break;
    }
    if (tracer_) tracer_->End(root);
    return rec;
  }

  WriteRecord Write(size_t pair_index, mcsm::Rng* rng) {
    const CatalogPair& pair = setup_.catalog[pair_index];
    WriteRecord rec;
    rec.pair = pair_index;
    rec.csv = ShuffledSourceCsv(pair, rng);
    const std::string body = RegisterBody(pair.source_name, rec.csv);
    const int run = run_ids_->fetch_add(1);
    const int root = tracer_ ? tracer_->Begin("service.write", -1, run) : -1;
    HttpResult r = Traced("service.register", root, run, [&] {
      return Call(client_, setup_.port(), "POST", "/v1/tables", body);
    });
    if (tracer_) tracer_->End(root);
    rec.ok = r.ok();
    rec.ms = r.ms;
    return rec;
  }

  double Healthz(int root, int run) {
    HttpResult r = Traced("service.healthz", root, run, [&] {
      return Call(client_, setup_.port(), "GET", "/v1/healthz");
    });
    return r.ok() ? r.ms : -1;
  }

 private:
  template <typename F>
  HttpResult Traced(const char* name, int root, int run, F&& call) {
    if (tracer_ == nullptr) return call();
    Tracer::Scope span(tracer_, name, root, run);
    return call();
  }

  const Setup& setup_;
  Tracer* tracer_;
  std::atomic<int>* run_ids_;
  mcsm::service::HttpClient client_;
};

/// The closed-loop load: kClients clients, each running a seeded sequence
/// of discovery jobs over the catalog (every pair once per cycle, in a
/// seeded order) and re-registering the source of `write_pair` every
/// kWriteEvery-th operation. The job after a write runs on the pair just
/// written, so every version written gets its indexes built and cached
/// once, however the clients interleave. The load runs in chunks (RunChunk)
/// spread over the measured rounds; in each, every client continues its
/// sequence until the chunk's quota of jobs has ended.
///
/// Each client has one thread for the whole run, started here, before the
/// first discovery. With threads started per chunk, fullname's peak_rss_mb
/// was 444-565 MB over five seeds, against 414-472 MB with these: each new
/// thread takes a malloc arena, possibly one holding a discovery's freed
/// memory, and the next discovery then grows new memory.
class ClosedLoopLoad {
 public:
  ClosedLoopLoad(const Setup& setup, size_t write_pair, uint64_t seed,
                    Tracer* tracer)
      : setup_(setup), write_pair_(write_pair), tracer_(tracer) {
    clients_.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients_.emplace_back(setup, tracer, &run_ids_, seed * 7919 + c + 1);
    }
    for (size_t c = 0; c < kClients; ++c) {
      threads_.emplace_back([this, c] { ClientLoop(c); });
    }
  }

  ~ClosedLoopLoad() {
    {
      mcsm::MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ClosedLoopLoad(const ClosedLoopLoad&) = delete;
  ClosedLoopLoad& operator=(const ClosedLoopLoad&) = delete;

  /// Untimed: `GET /v1/healthz` probes when tracing, then one job per
  /// catalog pair from a single client, so the first chunk does not pay
  /// the service's first-touch costs.
  void Warmup() {
    ServiceClient probe(setup_, tracer_, &run_ids_);
    if (tracer_ != nullptr) {
      const int run = run_ids_.fetch_add(1);
      Tracer::Scope root(tracer_, "service.healthz_probe", -1, run);
      for (size_t i = 0; i < kHealthzProbes; ++i) {
        load_.healthz_ms.push_back(probe.Healthz(root.index(), run));
      }
    }
    for (size_t p = 0; p < setup_.catalog.size(); ++p) {
      load_.warmup.push_back(probe.RunJob(p));
    }
  }

  void RunChunk(size_t jobs) {
    const auto start = Clock::now();
    {
      mcsm::MutexLock lock(mu_);
      quota_ = jobs;
      jobs_ended_.store(0);
      busy_ = kClients;
      ++chunk_;
    }
    cv_.notify_all();
    {
      mcsm::MutexLock lock(mu_);
      while (busy_ > 0) cv_.wait(lock);
    }
    load_.wall_ms += MsSince(start);
    for (ClientState& state : clients_) {
      for (JobRecord& j : state.jobs) load_.jobs.push_back(std::move(j));
      for (WriteRecord& w : state.writes) load_.writes.push_back(std::move(w));
      state.jobs.clear();
      state.writes.clear();
    }
  }

  const ServiceLoad& load() const { return load_; }

 private:
  struct ClientState {
    ClientState(const Setup& setup, Tracer* tracer, std::atomic<int>* run_ids,
                uint64_t seed)
        : client(setup, tracer, run_ids),
          rng(seed),
          order(setup.catalog.size()),
          next(order.size()),
          write_slot(rng.Uniform(kWriteEvery)) {
      std::iota(order.begin(), order.end(), 0);
    }

    size_t NextPair() {
      if (next == order.size()) {
        for (size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.Uniform(i)]);
        }
        next = 0;
      }
      return order[next++];
    }

    ServiceClient client;
    mcsm::Rng rng;
    std::vector<size_t> order;
    size_t next;
    size_t write_slot;
    size_t op = 0;
    bool after_write = false;
    /// Records of the running chunk; RunChunk collects them.
    std::vector<JobRecord> jobs;
    std::vector<WriteRecord> writes;
  };

  void ClientLoop(size_t c) {
    ClientState& state = clients_[c];
    uint64_t seen = 0;
    for (;;) {
      size_t quota = 0;
      {
        mcsm::MutexLock lock(mu_);
        while (!stopping_ && chunk_ == seen) cv_.wait(lock);
        if (stopping_) return;
        seen = chunk_;
        quota = quota_;
      }
      while (jobs_ended_.load() < quota) {
        if (state.op++ % kWriteEvery == state.write_slot) {
          state.writes.push_back(state.client.Write(write_pair_, &state.rng));
          state.after_write = true;
          continue;
        }
        state.jobs.push_back(state.client.RunJob(
            state.after_write ? write_pair_ : state.NextPair()));
        state.after_write = false;
        jobs_ended_.fetch_add(1);
      }
      {
        mcsm::MutexLock lock(mu_);
        if (--busy_ == 0) cv_.notify_all();
      }
    }
  }

  const Setup& setup_;
  const size_t write_pair_;
  Tracer* tracer_;
  std::atomic<int> run_ids_{1000};
  std::vector<ClientState> clients_;
  std::atomic<size_t> jobs_ended_{0};
  /// Hands a chunk to the client threads and its end back to RunChunk.
  mcsm::Mutex mu_;
  std::condition_variable_any cv_;
  /// Bumped once per chunk; a client runs the chunk it has not yet seen.
  uint64_t chunk_ MCSM_GUARDED_BY(mu_) = 0;
  size_t quota_ MCSM_GUARDED_BY(mu_) = 0;
  size_t busy_ MCSM_GUARDED_BY(mu_) = 0;
  bool stopping_ MCSM_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
  ServiceLoad load_;
};

/// Checks every job against a reference discovery computed once per table
/// content: the pair's original source and every re-registered version
/// (a job ran on whichever content its source name held at submit).
void CheckServiceLoad(const Setup& setup, const ServiceLoad& load,
                      Ledger* ledger) {
  using Expected = std::pair<std::string, size_t>;
  std::vector<std::set<std::string>> contents(setup.catalog.size());
  for (size_t p = 0; p < setup.catalog.size(); ++p) {
    contents[p].insert(setup.catalog[p].source_csv);
  }
  for (const WriteRecord& w : load.writes) {
    ledger->Check(w.ok, "re-registration of " + setup.catalog[w.pair].source_name);
    if (w.ok) contents[w.pair].insert(w.csv);
  }
  std::vector<std::set<Expected>> expected(setup.catalog.size());
  for (size_t p = 0; p < setup.catalog.size(); ++p) {
    const CatalogPair& pair = setup.catalog[p];
    auto target = mcsm::relational::ReadCsv(pair.target_csv);
    for (const std::string& csv : contents[p]) {
      auto source = mcsm::relational::ReadCsv(csv);
      if (!source.ok() || !target.ok()) continue;
      auto found = mcsm::core::DiscoverTranslation(
          *source, *target, pair.data->target_column,
          SearchOptionsFor(*pair.spec, kThreads));
      if (found.ok() && !found->truncated()) {
        expected[p].insert({Rendered(*found, source->schema()),
                            found->coverage.matched_rows()});
      }
    }
    std::printf("reference %s contents=%zu distinct_results=%zu\n",
                pair.spec->name.c_str(), contents[p].size(), expected[p].size());
  }
  std::vector<const JobRecord*> jobs;
  for (const JobRecord& job : load.warmup) jobs.push_back(&job);
  for (const JobRecord& job : load.jobs) jobs.push_back(&job);
  for (const JobRecord* j : jobs) {
    const JobRecord& job = *j;
    const std::string& name = setup.catalog[job.pair].spec->name;
    if (!ledger->Check(job.submit_status == 202,
                       name + " job: submit answered HTTP " +
                           std::to_string(job.submit_status))) {
      continue;
    }
    if (!ledger->Check(job.terminal && job.state == "done" && !job.truncated,
                       name + " job ended as '" + job.state + "'" +
                           (job.truncated ? " (truncated)" : ""))) {
      continue;
    }
    ledger->Check(expected[job.pair].count({job.formula, job.matched_rows}) == 1,
                  name + " job: " + job.formula + " covering " +
                      std::to_string(job.matched_rows) +
                      " rows differs from the reference");
  }
}

// --- The two runs --------------------------------------------------------

void AddEndToEndServiceMetrics(const ServiceLoad& load, MetricSet* m) {
  std::vector<double> latencies;
  for (const JobRecord& j : load.jobs) {
    if (j.terminal) latencies.push_back(j.latency_ms);
  }
  std::vector<double> registers;
  for (const WriteRecord& w : load.writes) {
    if (w.ok) registers.push_back(w.ms);
  }
  if (!latencies.empty()) m->Add("job_ms", Median(latencies), "ms");
  if (auto p90 = P90(latencies)) m->Add("job_p90_ms", *p90, "ms");
  m->Add("jobs_per_s",
         static_cast<double>(latencies.size()) / (load.wall_ms / 1000.0), "1/s");
  if (!registers.empty()) m->Add("register_ms", Median(registers), "ms");
  std::printf("service jobs=%zu writes=%zu wall_ms=%.1f clients=%zu job_workers=%zu\n",
              latencies.size(), registers.size(), load.wall_ms, kClients,
              kJobWorkers);
}

/// Builds the set-up at least kMinSetups times, and more while they have
/// taken less than kSetupBudgetMs in all, keeping the last; `*setup_s` is
/// the median.
std::unique_ptr<Setup> TimedSetups(const WorkloadSpec& spec, uint64_t seed,
                                   Ledger* ledger, double* setup_s) {
  std::vector<double> samples;
  double total_ms = 0;
  std::unique_ptr<Setup> setup;
  while (samples.size() < kMinSetups ||
         (total_ms < kSetupBudgetMs && samples.size() < kMaxSetups)) {
    setup.reset();  // free the previous set-up before timing the next
    const auto start = Clock::now();
    setup = BuildSetup(spec, seed, nullptr, ledger);
    const double ms = MsSince(start);
    if (setup == nullptr) return nullptr;
    samples.push_back(ms / 1000.0);
    total_ms += ms;
  }
  *setup_s = Median(samples);
  std::printf("setups=%zu\n", samples.size());
  return setup;
}

bool EndToEndRun(const WorkloadSpec& spec, const RunConfig& config,
                 Ledger* ledger, MetricSet* m) {
  double setup_s = 0;
  std::unique_ptr<Setup> setup = TimedSetups(spec, config.seed, ledger, &setup_s);
  if (setup == nullptr) return false;
  m->Add("setup_s", setup_s, "s");

  ClosedLoopLoad service(*setup, spec.write_pair, config.seed, nullptr);
  service.Warmup();
  std::vector<Reference> refs = DiscoverReferences(spec, *setup, config.seed, ledger);
  std::vector<mcsm::vm::Program> programs = CompileAndCheck(spec, *setup, refs, ledger);

  // Each round interleaves its discovery passes, translation samples and
  // job chunks: D T J D T J ..., each kind until the round's count of it
  // is done.
  const RoundShape& shape = spec.round;
  std::vector<double> discoveries;
  TranslationTotals translation;
  const auto measured = Clock::now();
  size_t rounds = 0;
  for (; rounds < shape.min_rounds || MsSince(measured) < config.seconds * 1000.0;
       ++rounds) {
    const size_t slots = std::max(
        {shape.discovery_passes, shape.translate_samples, shape.job_chunks});
    for (size_t i = 0; i < slots; ++i) {
      if (i < shape.discovery_passes) {
        discoveries.push_back(DiscoveryPass(spec, *setup, refs, ledger));
      }
      if (i < shape.translate_samples) {
        TranslationSample(*setup, programs, &translation, ledger);
      }
      if (i < shape.job_chunks) service.RunChunk(shape.jobs_per_chunk);
    }
  }
  std::printf("rounds=%zu measured_s=%.1f\n", rounds, MsSince(measured) / 1000.0);
  m->Add("discover_ms", Median(discoveries), "ms");
  // A throughput over the whole run, not a median of samples: the host's
  // cores alternate between two speeds for about a second at a time, and a
  // median of per-sample rates jumped between the two from run to run.
  if (translation.ms > 0) {
    m->Add("translate_mrows_per_s",
           static_cast<double>(translation.rows) / translation.ms / 1000.0,
           "Mrows/s");
  }
  const ServiceLoad& load = service.load();
  AddEndToEndServiceMetrics(load, m);
  CheckServiceLoad(*setup, load, ledger);
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
  const std::vector<double>& rates = translation.mrows_per_s;
  std::printf("samples discover=%zu [%.1f..%.1f ms] translate=%zu "
              "[%.2f..%.2f Mrows/s] threads=%zu\n",
              discoveries.size(),
              *std::min_element(discoveries.begin(), discoveries.end()),
              *std::max_element(discoveries.begin(), discoveries.end()),
              rates.size(),
              rates.empty() ? 0.0 : *std::min_element(rates.begin(), rates.end()),
              rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end()),
              kThreads);
  return true;
}

/// Layer totals of the stepwise discoveries.
struct LayerCounts {
  double index_bytes = 0;
  double postings_scanned = 0;
  double refine_iterations = 0;
  double refine_candidates = 0;
  double pairs_scored = 0;
  double recipes_built = 0;
  double formulas_considered = 0;
  double rows_covered = 0;
  double traced_discovery_ms = 0;
};

/// Drives one TranslationSearch through its public steps the way
/// TranslationSearch::Run does, with the indexes built here and injected,
/// timing each call as a span under one root per discovery. Then times
/// compiling and translating the formula it found.
void StepwiseDiscovery(const PairSpec& pair, const Dataset& data,
                       const Reference& ref, int run, Tracer* tracer,
                       LayerCounts* counts, Ledger* ledger) {
  using mcsm::relational::ColumnIndex;
  Tracer::Scope root(tracer, "discovery", -1, run);
  const int parent = root.index();
  const auto discovery_start = Clock::now();
  const mcsm::core::SearchOptions defaults;

  std::shared_ptr<const ColumnIndex> target_index;
  {
    Tracer::Scope span(tracer, "relational.index_target", parent, run);
    ColumnIndex::Options options;
    options.q = defaults.q;
    options.build_postings = true;
    target_index = std::make_shared<ColumnIndex>(data.target, data.target_column,
                                                 options);
  }
  // The search builds the source indexes one column per worker inside step
  // 1; building them the same way keeps the layer sum comparable with the
  // untraced discovery.
  std::vector<size_t> text_columns;
  for (size_t c = 0; c < data.source.num_columns(); ++c) {
    if (data.source.schema().column(c).type ==
        mcsm::relational::ColumnType::kText) {
      text_columns.push_back(c);
    }
  }
  std::vector<std::shared_ptr<const ColumnIndex>> source_indexes(
      data.source.num_columns());
  mcsm::ThreadPool pool(kThreads);
  {
    Tracer::Scope span(tracer, "relational.index_source", parent, run);
    ColumnIndex::Options options;
    options.q = defaults.q;
    options.build_postings = false;
    pool.ParallelFor(text_columns.size(), [&](size_t i) {
      source_indexes[text_columns[i]] =
          std::make_shared<ColumnIndex>(data.source, text_columns[i], options);
    });
  }
  counts->index_bytes += static_cast<double>(target_index->ApproxMemoryBytes());
  for (const auto& index : source_indexes) {
    if (index) counts->index_bytes += static_cast<double>(index->ApproxMemoryBytes());
  }

  mcsm::core::SearchOptions options = SearchOptionsFor(pair, kThreads);
  options.env.target_index = target_index;
  options.env.source_index_provider = [&source_indexes](size_t column) {
    return source_indexes[column];
  };
  mcsm::core::TranslationSearch search(data.source, data.target,
                                       data.target_column, options);
  mcsm::Result<mcsm::core::ColumnSelection> selection =
      mcsm::Status::NotFound("not run");
  {
    Tracer::Scope span(tracer, "core.step1", parent, run);
    selection = search.SelectStartColumn();
  }
  std::optional<TranslationFormula> accepted;
  size_t covered = 0;
  size_t accepted_start = data.source.num_columns();
  size_t accepted_iterations = 0;
  size_t branches = 0;
  size_t refine_calls = 0;
  bool failed = !selection.ok();
  if (selection.ok()) {
    // Start columns and the coverage floor exactly as Run() derives them.
    const std::vector<double>& scores = selection->scores;
    std::vector<size_t> starts;
    for (size_t c = 0; c < scores.size(); ++c) {
      if (scores[c] > 0.0) starts.push_back(c);
    }
    std::sort(starts.begin(), starts.end(),
              [&](size_t a, size_t b) { return scores[a] > scores[b]; });
    starts.resize(std::min(starts.size(),
                           std::max<size_t>(1, options.start_column_candidates)));
    const size_t floor = std::max<size_t>(
        options.min_support,
        static_cast<size_t>(options.min_coverage_fraction *
                            static_cast<double>(std::min(
                                data.source.num_rows(), data.target.num_rows()))));
    for (size_t start : starts) {
      if (accepted || failed) break;
      mcsm::Result<std::vector<TranslationFormula>> initials =
          mcsm::Status::NotFound("not run");
      {
        Tracer::Scope span(tracer, "core.step2", parent, run);
        initials = search.BuildInitialFormulas(
            start, std::max<size_t>(1, options.initial_candidates));
      }
      if (!initials.ok()) continue;
      for (const TranslationFormula& initial : *initials) {
        ++branches;
        TranslationFormula formula = initial;
        size_t iterations = 0;
        for (size_t iter = 0;
             iter < options.max_iterations && !formula.IsComplete(); ++iter) {
          mcsm::core::IterationInfo info;
          mcsm::Result<bool> improved = false;
          {
            Tracer::Scope span(tracer, "core.refine", parent, run);
            improved = search.RefineOnce(&formula, &info);
          }
          ++refine_calls;
          ++iterations;
          counts->refine_candidates += static_cast<double>(info.candidates_considered);
          if (!improved.ok()) failed = true;
          if (!improved.ok() || !*improved) break;
        }
        if (failed || !formula.IsComplete()) continue;
        size_t this_covered = 0;
        {
          Tracer::Scope span(tracer, "core.coverage", parent, run);
          this_covered = mcsm::core::TranslationSearch::ComputeCoverage(
                             formula, data.source, data.target, data.target_column)
                             .matched_rows();
        }
        if (this_covered >= floor) {
          accepted = formula;
          covered = this_covered;
          accepted_start = start;
          accepted_iterations = iterations;
          break;
        }
      }
    }
  }
  counts->traced_discovery_ms += MsSince(discovery_start);
  counts->refine_iterations += static_cast<double>(refine_calls);
  const std::string start_name =
      accepted_start < data.source.num_columns()
          ? data.source.schema().column(accepted_start).name
          : "none";
  std::printf("stepwise %s start_column=%s refine_iterations=%zu branches=%zu "
              "refine_calls=%zu %s\n",
              pair.name.c_str(), start_name.c_str(), accepted_iterations,
              branches, refine_calls,
              PathVerdict(pair, start_name, accepted_iterations, branches));
  const mcsm::core::SearchStats& stats = search.stats();
  counts->postings_scanned += static_cast<double>(search.budget().postings_scanned());
  counts->pairs_scored += static_cast<double>(stats.pairs_scored);
  counts->recipes_built += static_cast<double>(stats.recipes_built);
  counts->formulas_considered += static_cast<double>(stats.formulas_considered);

  const bool same = !failed && accepted.has_value() &&
                    accepted->ToString(data.source.schema()) == ref.formula &&
                    covered == ref.covered;
  if (!ledger->Check(same, pair.name + ": stepwise discovery differs from "
                                       "DiscoverTranslation")) {
    return;
  }

  mcsm::Result<mcsm::vm::Program> program = mcsm::Status::NotFound("not run");
  {
    Tracer::Scope span(tracer, "vm.compile", parent, run);
    program = mcsm::vm::CompileFormula(*accepted, data.source.schema());
  }
  if (!ledger->Check(program.ok(), pair.name + ": formula does not compile")) return;
  for (size_t threads : {kThreads, size_t{1}}) {
    mcsm::vm::TranslateOptions translate_options;
    translate_options.num_threads = threads;
    mcsm::Result<mcsm::vm::TranslateResult> out = mcsm::Status::NotFound("not run");
    {
      Tracer::Scope span(tracer, threads == 1 ? "vm.translate_1t" : "vm.translate",
                         parent, run);
      out = mcsm::vm::Translate(*program, data.source, translate_options);
    }
    if (ledger->Check(out.ok() && !out->truncated,
                      pair.name + ": translation failed") &&
        threads == kThreads) {
      counts->rows_covered += static_cast<double>(out->output_rows());
    }
  }
}

bool TracedRun(const WorkloadSpec& spec, const RunConfig& config,
               Ledger* ledger, MetricSet* m) {
  Tracer tracer;
  std::unique_ptr<Setup> setup = BuildSetup(spec, config.seed, &tracer, ledger);
  if (setup == nullptr) return false;

  // CSV ingest: the registry's parser over the catalog texts, a few passes.
  std::vector<double> parse_passes;
  for (size_t pass = 0; pass < kCsvParsePasses; ++pass) {
    const auto start = Clock::now();
    for (const CatalogPair& pair : setup->catalog) {
      for (const std::string* csv : {&pair.source_csv, &pair.target_csv}) {
        ledger->Check(mcsm::relational::ReadCsv(*csv).ok(),
                      pair.spec->name + ": catalog CSV does not parse");
      }
    }
    parse_passes.push_back(MsSince(start));
  }

  std::vector<Reference> refs = DiscoverReferences(spec, *setup, config.seed, ledger);
  double untraced_ms = 0;
  LayerCounts counts;
  double table_bytes = 0;
  for (size_t i = 0; i < spec.library.size(); ++i) {
    const Dataset& data = setup->library[i];
    table_bytes += static_cast<double>(data.source.Stats().resident_bytes +
                                       data.target.Stats().resident_bytes);
    const auto start = Clock::now();
    auto found = mcsm::core::DiscoverTranslation(
        data.source, data.target, data.target_column,
        SearchOptionsFor(spec.library[i], kThreads));
    untraced_ms += MsSince(start);
    ledger->Check(found.ok() && SameAsReference(*found, refs[i], data.source.schema()),
                  spec.library[i].name + ": discovery differs from the first");
    StepwiseDiscovery(spec.library[i], data, refs[i], static_cast<int>(i) + 1,
                      &tracer, &counts, ledger);
  }

  ClosedLoopLoad service(*setup, spec.write_pair, config.seed, &tracer);
  service.Warmup();
  service.RunChunk(kTracedServiceJobs);
  const ServiceLoad& load = service.load();
  CheckServiceLoad(*setup, load, ledger);
  const mcsm::service::IndexCacheStats cache = setup->service->cache().stats();

  const std::vector<Span> spans = tracer.spans();
  const std::string nesting = CheckNesting(spans);
  ledger->Check(nesting.empty(), "span tree: " + nesting);
  if (!config.spans_path.empty() && !tracer.WriteJsonl(config.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", config.spans_path.c_str());
  }
  std::map<std::string, double> self = SelfTimeByName(spans);

  m->Add("datagen.generate_ms", self["datagen.generate"], "ms");
  m->Add("relational.index_target_ms", self["relational.index_target"], "ms");
  m->Add("relational.index_source_ms", self["relational.index_source"], "ms");
  m->Add("relational.index_bytes", counts.index_bytes, "bytes");
  m->Add("relational.table_bytes", table_bytes, "bytes");
  m->Add("relational.postings_scanned", counts.postings_scanned, "count");
  m->Add("relational.csv_parse_ms", Median(parse_passes), "ms");
  m->Add("core.step1_ms", self["core.step1"], "ms");
  m->Add("core.step2_ms", self["core.step2"], "ms");
  m->Add("core.refine_ms", self["core.refine"], "ms");
  m->Add("core.refine_iterations", counts.refine_iterations, "count");
  m->Add("core.refine_candidates", counts.refine_candidates, "count");
  m->Add("core.coverage_ms", self["core.coverage"], "ms");
  m->Add("core.pairs_scored", counts.pairs_scored, "count");
  m->Add("core.recipes_built", counts.recipes_built, "count");
  m->Add("core.formulas_considered", counts.formulas_considered, "count");
  const double layers = self["relational.index_target"] +
                        self["relational.index_source"] + self["core.step1"] +
                        self["core.step2"] + self["core.refine"] +
                        self["core.coverage"];
  m->Add("core.unattributed_ms", untraced_ms - layers, "ms");
  m->Add("trace.overhead_ms", counts.traced_discovery_ms - untraced_ms, "ms");
  m->Add("vm.translate_ms", self["vm.translate"], "ms");
  m->Add("vm.translate_1t_ms", self["vm.translate_1t"], "ms");
  m->Add("vm.rows_covered", counts.rows_covered, "count");

  std::vector<double> submit_ms, poll_ms, run_ms, queue_wait_ms;
  double polls = 0;
  double rejected = 0;
  for (const JobRecord& job : load.jobs) {
    submit_ms.push_back(job.submit_ms);
    poll_ms.insert(poll_ms.end(), job.poll_ms.begin(), job.poll_ms.end());
    polls += static_cast<double>(job.poll_ms.size());
    if (job.submit_status == 429) rejected += 1;
    if (job.terminal) {
      run_ms.push_back(job.run_ms);
      queue_wait_ms.push_back(job.latency_ms - job.run_ms);
    }
  }
  std::vector<double> healthz;
  for (double ms : load.healthz_ms) {
    if (ledger->Check(ms >= 0, "GET /v1/healthz failed")) healthz.push_back(ms);
  }
  if (!healthz.empty()) m->Add("service.healthz_ms", Median(healthz), "ms");
  if (!submit_ms.empty()) m->Add("service.submit_ms", Median(submit_ms), "ms");
  if (!poll_ms.empty()) m->Add("service.poll_ms", Median(poll_ms), "ms");
  m->AddRatio("service.polls_per_job", polls, "service.jobs",
              static_cast<double>(load.jobs.size()), "count");
  if (!run_ms.empty()) m->Add("service.run_ms", Median(run_ms), "ms");
  if (!queue_wait_ms.empty()) {
    m->Add("service.queue_wait_ms", Median(queue_wait_ms), "ms");
  }
  m->Add("service.cache_hits", static_cast<double>(cache.hits), "count");
  m->Add("service.cache_misses", static_cast<double>(cache.misses), "count");
  m->AddRatio("service.cache_hit_ratio", static_cast<double>(cache.hits),
              "service.cache_lookups", static_cast<double>(cache.hits + cache.misses),
              "count");
  m->Add("service.cache_evictions", static_cast<double>(cache.evictions), "count");
  m->Add("service.rejected", rejected, "count");
  std::printf("traced spans=%zu discoveries=%zu jobs=%zu threads=%zu\n",
              spans.size(), spec.library.size(), load.jobs.size(), kThreads);
  return true;
}

}  // namespace

bool RunWorkload(const RunConfig& config, RunResult* result) {
  std::optional<WorkloadSpec> spec = FindSpec(config.workload);
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return false;
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d threads=%zu "
              "job_workers=%zu clients=%zu hardware_threads=%u\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, kThreads, kJobWorkers, kClients,
              std::thread::hardware_concurrency());
  Ledger ledger;
  const bool ran = config.trace
                       ? TracedRun(*spec, config, &ledger, &result->metrics)
                       : EndToEndRun(*spec, config, &ledger, &result->metrics);
  result->attempted = ledger.attempted();
  result->failed = ledger.failed();
  return ran;
}

}  // namespace perfbench
