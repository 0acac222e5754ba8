#ifndef MCSM_CORE_SEARCH_H_
#define MCSM_CORE_SEARCH_H_

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/column_scorer.h"
#include "core/formula.h"
#include "core/recipe.h"
#include "relational/column_index.h"
#include "text/alignment.h"
#include "relational/table.h"

namespace mcsm::core {

/// Tuning knobs of the translation search. Defaults follow the paper:
/// bi-grams, 10% equidistant samples, sigma = 2, unit edit costs.
struct SearchOptions {
  /// q-gram width (the paper evaluates with bi-grams).
  size_t q = 2;
  /// Fraction of distinct values sampled per column (Sections 3.2, 4).
  double sample_fraction = 0.10;
  /// Sample-size floor/cap (the cap keeps very large tables tractable; the
  /// paper notes "a few dozen good samples" suffice — Section 5).
  size_t min_sample = 20;
  size_t max_sample = 2000;

  enum class PairScoreMode {
    kTfIdf,       ///< Eq. 3/4 tf-idf weighting (default)
    kQGramCount,  ///< Eq. 2 raw shared-q-gram count (ablation)
  };
  PairScoreMode pair_mode = PairScoreMode::kTfIdf;
  /// Minimum pair score (Section 3.3.1's threshold)...
  double pair_score_threshold = 0.0;
  /// ...and/or keep only the top r candidates per key.
  size_t top_r_pairs = 8;

  /// Step-1 column scoring q-gram counting interpretation.
  ColumnScorer::CountMode count_mode = ColumnScorer::CountMode::kTotalHits;

  /// Width penalty offset in ScoreTrans (Eq. 5): denominator
  /// max(1, AvgLength(Bi) - sigma). The paper prints sigma = 2 but states the
  /// intent as "columns with an average length of over 4 characters should be
  /// moderated"; sigma = 4 realizes that onset (penalty starts above ~5
  /// chars) and reproduces the paper's Section 4.1 column choices, while
  /// sigma = 2 penalizes 5-char name columns 3.5x and flips them below
  /// 1-char initial columns. See the sigma ablation bench.
  double sigma = 4.0;
  /// Disables the Eq. 5 width penalty (sigma ablation).
  bool disable_width_penalty = false;

  enum class ScoreNormalization {
    /// Occurrence count normalized over ALL candidate translations produced
    /// this round. Default: Eq. 5's wording ("normalised to the total number
    /// of translations created by its parent column") is ambiguous, and the
    /// strict per-column reading lets a low-yield column (e.g. a one-letter
    /// middle-initial column, total a handful of candidates) inflate its
    /// relative frequency past the true column — contradicting the paper's
    /// own Section 4.1 outcome. See DESIGN.md.
    kGlobal,
    /// Strict per-parent-column reading (ablation).
    kPerColumn,
  };
  ScoreNormalization score_normalization = ScoreNormalization::kGlobal;

  /// Iteration / voting limits.
  size_t max_iterations = 8;
  size_t min_support = 2;          ///< minimum votes for a winning formula
  size_t max_variants_per_recipe = 8;
  size_t max_pattern_rows = 32;    ///< cap on target candidates per pattern
  enum class RefinementFilter {
    /// Algorithm 6's "and contains q-grams of key", applied when it leaves
    /// at least one candidate for the (row, column) pair and waived
    /// otherwise. The waiver reconciles the algorithm text with the paper's
    /// own worked example (Table 6 aligns "henry" against "rhwarner", which
    /// share no bi-gram): without it, one-character contributions — exactly
    /// the narrow-column refinements the method targets — are suppressed;
    /// without the filter, structural single-character correlations between
    /// numeric columns (the Time dataset) outvote genuine refinements.
    kPreferSharing,
    kHard,  ///< strict reading: always drop non-sharing candidates
    kOff,   ///< no filter; the pattern alone restricts candidates
  };
  RefinementFilter refinement_filter = RefinementFilter::kPreferSharing;

  /// LCS tie-breaking for recipe alignment. kHashed (default) implements the
  /// paper's "arbitrarily select" so one-character serendipitous matches
  /// diffuse over positions; kLeftmost reproduces the paper's worked
  /// examples exactly (Tables 5/6).
  text::LcsTieBreak lcs_tie_break = text::LcsTieBreak::kHashed;

  /// Detect a separator template on the target column first (Section 6.1).
  bool detect_separators = false;

  /// Number of start columns Run() will attempt (best Step-1 scores first)
  /// when every initial formula of the previous column failed coverage
  /// validation. The paper notes Step 1 "can tolerate picking instead any of
  /// the other related columns" — which requires exactly this feedback loop.
  size_t start_column_candidates = 3;

  /// Number of top-supported initial formulas Run() will attempt per start
  /// column, restarting when a completed formula translates (almost) no
  /// rows. The paper keeps
  /// only the best initial formula and forgoes backtracking because its
  /// integration framework provides no feedback (Section 3.4.4); coverage —
  /// how many source rows actually translate into existing target values —
  /// is exactly that feedback, computable here, so a failed branch is
  /// retried from the next initial candidate. Set to 1 for the strict paper
  /// behaviour.
  size_t initial_candidates = 3;
  /// A completed formula must cover at least this fraction of the smaller
  /// table (and at least min_support rows) to be accepted without restart.
  double min_coverage_fraction = 0.001;

  /// Threads for the parallel pipeline stages (per-column scoring, per-key
  /// retrieval+alignment, per-sampled-row refinement voting). 0 resolves to
  /// the MCSM_THREADS environment variable, else
  /// std::thread::hardware_concurrency(); 1 runs everything inline. The
  /// discovered formula, scores, and report are identical for every value:
  /// workers fill pre-sized slots that are merged in index order, so vote
  /// counts and floating-point accumulation order never depend on
  /// scheduling (see DESIGN.md).
  size_t num_threads = 0;

  // --- Execution environment (SearchOptions::Env) --------------------------
  // Everything injected from OUTSIDE the algorithm lives here: cost caps,
  // the shared cancellation handle, prebuilt indexes, and tracing. The knobs
  // above change WHAT is discovered; Env only changes how the run is
  // metered, fed, and observed — for any valid Env the discovered formula is
  // identical (modulo anytime truncation when a budget trips). One-shot
  // callers leave every field default and nothing changes.
  struct Env {
    /// Cost caps for the run (wall-clock deadline + work-unit counters).
    /// Default: unlimited — the paper's open-ended greedy loop. When any
    /// axis trips, the search stops where it is and returns the best partial
    /// formula found so far with SearchResult::truncated set (anytime
    /// semantics) instead of erroring. The deadline clock starts when the
    /// TranslationSearch is constructed, so index building counts against
    /// it.
    BudgetLimits budget;

    /// When set, the search charges and checks THIS budget instead of
    /// constructing its own from `budget` (`budget` must then stay
    /// unlimited — Validate() rejects the ambiguous combination). The
    /// owner — the service's job manager, or discover_csv's Ctrl-C
    /// handler — can call RunBudget::Cancel() from another thread (or a
    /// signal handler) and the search stops at its next budget check,
    /// returning the best partial formula tagged truncated with
    /// BudgetTrip::kCancelled. Must outlive the search; not owned.
    RunBudget* shared_budget = nullptr;

    /// Prebuilt index over the target column (the service's index cache).
    /// Used when its q matches `q` and it has postings; otherwise the
    /// search builds its own as usual. Shared ownership keeps a
    /// cache-evicted index alive for the duration of the job.
    std::shared_ptr<const relational::ColumnIndex> target_index;

    /// Cache hook for per-source-column indexes (built without postings).
    /// Called at most once per column on first use; returning nullptr — or
    /// an index with the wrong q — falls back to a local build. The
    /// provider is invoked from worker threads and must be thread-safe.
    std::function<std::shared_ptr<const relational::ColumnIndex>(size_t)>
        source_index_provider;

    /// Structured trace sink for the run (see common/trace.h). Null (the
    /// default) disables tracing entirely: every emit site is a single
    /// pointer test. Not owned; must outlive the search. The sink's Emit()
    /// is called from worker threads and must be thread-safe (all the
    /// sinks in common/trace.h are).
    TraceSink* trace = nullptr;

    /// Env-only validation (budget sanity, shared_budget/budget exclusivity).
    Status Validate() const;
  };
  Env env;

  /// Validates the algorithm knobs AND env. Entry points that accept
  /// caller-supplied options (DiscoverTranslation, the service's job intake)
  /// call this and surface InvalidArgument — HTTP 400 in the service —
  /// instead of ad-hoc per-field checks.
  Status Validate() const;
};

/// Step 1 outcome (Algorithm 2): the chosen start column plus every source
/// column's Eq. 1 score, indexed by column (non-text columns score 0).
struct ColumnSelection {
  size_t best_column = std::numeric_limits<size_t>::max();
  std::vector<double> scores;
};

/// One refinement iteration's outcome (Algorithm 5 pass).
struct IterationInfo {
  size_t chosen_column = std::numeric_limits<size_t>::max();
  std::string formula;        ///< formula after the iteration (rendered)
  size_t support = 0;         ///< votes for the winning candidate
  double score = 0;           ///< its ScoreTrans value
  double seconds = 0;
  size_t candidates_considered = 0;
};

/// Instrumentation counters (Figure 3's per-step timing and more).
struct SearchStats {
  double step1_seconds = 0;   ///< column selection
  double step2_seconds = 0;   ///< initial translation formula
  std::vector<double> iteration_seconds;
  size_t pairs_scored = 0;
  size_t recipes_built = 0;
  size_t formulas_considered = 0;
  size_t postings_scanned = 0;  ///< index posting entries examined

  double total_seconds() const {
    double total = step1_seconds + step2_seconds;
    for (double s : iteration_seconds) total += s;
    return total;
  }
};

/// A linked (source row, target row) pair produced by applying a formula.
struct RowMatch {
  size_t source_row;
  size_t target_row;
};

/// Rows covered by a formula: each target row is used at most once.
struct Coverage {
  std::vector<RowMatch> matches;
  size_t matched_rows() const { return matches.size(); }
};

/// The outcome of a full search run.
struct SearchResult {
  TranslationFormula formula;
  size_t start_column = std::numeric_limits<size_t>::max();
  std::vector<IterationInfo> iterations;
  SearchStats stats;
  /// True when the run budget (SearchOptions::budget) tripped before the
  /// search finished: `formula` is then the best partial (possibly
  /// incomplete, possibly empty) formula found before the trip.
  bool truncated = false;
  /// Which budget axis tripped (kNone unless `truncated`).
  BudgetTrip budget_trip = BudgetTrip::kNone;
  /// ComputeCoverage of `formula`, as Run()'s coverage validation computed
  /// it; empty unless `formula` is complete. DiscoverTranslation moves it
  /// into DiscoveredTranslation::coverage.
  Coverage coverage;
};

/// \brief The multi-column substring matching search (Algorithm 1).
///
/// Given a source table T1 and a target column A of table T2 — with no
/// training pairs and no row linkage — discovers a translation formula
/// A = w1 + ... + wk of source-column substrings (and, with separator
/// detection, literal separators). See DESIGN.md for the step breakdown.
class TranslationSearch {
 public:
  /// `source` and `target` must outlive the search. `target_column` must be
  /// a TEXT column of `target`.
  TranslationSearch(const relational::Table& source,
                    const relational::Table& target, size_t target_column,
                    SearchOptions options);
  ~TranslationSearch();

  TranslationSearch(const TranslationSearch&) = delete;
  TranslationSearch& operator=(const TranslationSearch&) = delete;

  /// Runs the full pipeline: select start column, build the initial partial
  /// formula, iterate refinement until complete or no candidate adds
  /// information. NotFound when no formula reaches min_support.
  Result<SearchResult> Run();

  /// Step 1 (Algorithm 2): picks the best start column and reports every
  /// column's Eq. 1 score. NotFound when no source column shares q-grams
  /// with the target.
  Result<ColumnSelection> SelectStartColumn();

  /// Step 2 (Algorithms 3+4): initial partial formula from `column`.
  Result<TranslationFormula> BuildInitialFormula(size_t column);

  /// As BuildInitialFormula but returns the `k` best-supported candidates
  /// (best first). Used by Run()'s coverage-validated restarts.
  Result<std::vector<TranslationFormula>> BuildInitialFormulas(size_t column,
                                                               size_t k);

  /// One refinement pass (Algorithms 5+6). Returns true and updates
  /// `formula` when a better candidate was adopted.
  Result<bool> RefineOnce(TranslationFormula* formula,
                          IterationInfo* info = nullptr);

  /// Constrains candidate retrieval with a known row linkage (Section 6.2:
  /// many-to-many targets). linkage[src] = target row, or kNoLink.
  static constexpr size_t kNoLink = std::numeric_limits<size_t>::max();
  void SetLinkage(std::vector<size_t> linkage) { linkage_ = std::move(linkage); }

  /// The separator template detected on the target column (set when
  /// options.detect_separators and detection succeeded).
  const std::optional<relational::SearchPattern>& separator_template() const {
    return separator_template_;
  }

  const SearchStats& stats() const { return stats_; }
  const relational::ColumnIndex& target_index() const { return *target_index_; }

  /// The run budget (counters + trip state) for this search — the caller's
  /// SearchOptions::shared_budget when one was injected, else the internally
  /// owned budget built from SearchOptions::budget.
  const RunBudget& budget() const { return *active_budget_; }

  /// Applies a complete formula to every source row, greedily pairing each
  /// produced value with an unused matching target row.
  static Coverage ComputeCoverage(const TranslationFormula& formula,
                                  const relational::Table& source,
                                  const relational::Table& target,
                                  size_t target_column);

 private:
  size_t SampleCount(size_t distinct) const;
  std::vector<std::string> SampleKeys(size_t column);
  std::vector<size_t> SampleSourceRows(size_t column);
  const relational::ColumnIndex& SourceIndex(size_t column);

  /// The worker pool, created on first use with SearchOptions::num_threads.
  ThreadPool& pool();

  /// One vote produced inside a worker slot, buffered until the ordered
  /// merge.
  struct PendingVote {
    std::string rendered;  ///< "c<col>|" + rendering — the vote-map key
    TranslationFormula formula;
    double weight;       ///< matched-chars weight of the producing recipe
    size_t column = 0;   ///< parent column (Eq. 5 normalization)
  };

  /// Everything one worker slot produces: its votes, its share of the
  /// instrumentation counters, and the first error it hit. The slots a
  /// BudgetPhase admits are merged in index order, so vote counts,
  /// floating-point accumulation order, and which error propagates are
  /// identical for every thread count.
  struct VoteBatch {
    std::vector<PendingVote> votes;
    size_t recipes_built = 0;
    size_t formulas_considered = 0;
    size_t pairs_scored = 0;
    Status status = Status::OK();
  };

  /// Candidate target rows similar to `key` (initial phase retrieval).
  /// Errors only from the index.similar failpoint; exhausting `budget` (the
  /// caller's slot meter) truncates the result instead. Thread-safe:
  /// retrieved pair counts go to `pairs_scored` (the caller's slot), not the
  /// shared stats.
  Result<std::vector<uint32_t>> SimilarTargetRows(std::string_view key,
                                                  RunBudget* budget,
                                                  size_t* pairs_scored);

  /// Packages the current best attempt as a truncated anytime result.
  SearchResult TruncatedResult(SearchResult attempt);

  /// Evaluates a failpoint site; a triggered error is first annotated into
  /// the trace (kind=decision, name="failpoint", detail="site: message") so
  /// injected faults show up in the decision log. OK when unarmed.
  Status TracedFailpoint(const char* site, const char* phase);

  /// Collates formulas from one recipe into `counter`.
  struct FormulaVotes {
    TranslationFormula formula;
    size_t count = 0;           ///< raw occurrences (min_support gate)
    double weighted_count = 0;  ///< occurrences weighted by matched chars
    size_t column = 0;
  };
  using VoteMap = std::map<std::string, FormulaVotes>;

  /// Deterministic trace coordinates of a vote site: the pipeline phase plus
  /// the iteration number and sample slot (never thread ids or timestamps),
  /// so recipe events from 1- and 8-thread runs are the same multiset.
  /// Inert when tracing is disabled.
  struct TraceCtx {
    const char* phase = "step2";
    int64_t iteration = -1;
    int64_t sample = -1;
  };
  /// Aligns one (key, target instance) pair and buffers the formulas its
  /// recipe yields into `batch`, charging `budget` (the slot's meter).
  void VoteRecipe(std::string_view key, std::string_view target,
                  const FixedCoverage& fixed, size_t key_column,
                  const TraceCtx& trace_ctx, RunBudget* budget,
                  VoteBatch* batch);

  /// Folds one slot's votes and counters into the shared vote map and stats.
  /// Per-vote weight goes to `*total` and/or `(*column_totals)[column]`
  /// (pass nullptr for the one not in use).
  void MergeBatch(VoteBatch&& batch, VoteMap* votes,
                  std::vector<double>* column_totals, double* total);

  const relational::Table& source_;
  const relational::Table& target_;
  size_t target_column_;
  SearchOptions options_;
  SearchStats stats_;
  RunBudget budget_;
  /// options_.shared_budget when set, else &budget_. Every charge and
  /// Exhausted() check in the pipeline goes through this pointer, so an
  /// external owner tripping the shared budget (deadline or Cancel()) is the
  /// cooperative cancellation point of the whole search.
  RunBudget* active_budget_ = nullptr;
  /// options_.env.trace: null = tracing disabled (the only cost then is one
  /// pointer test per emit site).
  TraceSink* trace_ = nullptr;

  std::unique_ptr<ThreadPool> pool_;
  /// const + shared: query methods are thread-safe, and shared ownership
  /// lets the service's index cache hand out one index to many jobs.
  std::shared_ptr<const relational::ColumnIndex> target_index_;
  std::vector<std::shared_ptr<const relational::ColumnIndex>> source_indexes_;
  std::optional<relational::SearchPattern> separator_template_;
  std::string separator_chars_;
  std::vector<size_t> linkage_;
};

}  // namespace mcsm::core

#endif  // MCSM_CORE_SEARCH_H_
