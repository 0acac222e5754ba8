#include "core/search.h"

#include <algorithm>
#include <cmath>

#include "common/env.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "core/pattern_candidates.h"
#include "core/separator.h"
#include "core/target_join.h"
#include "relational/sampler.h"
#include "text/alignment.h"
#include "text/qgram.h"

namespace mcsm::core {

Status SearchOptions::Env::Validate() const {
  if (budget.wall_ms < 0) {
    return Status::InvalidArgument("env.budget.wall_ms must be >= 0");
  }
  if (shared_budget != nullptr && !budget.unlimited()) {
    return Status::InvalidArgument(
        "env.budget is ignored when env.shared_budget is set; configure the "
        "limits on the shared budget instead");
  }
  return Status::OK();
}

Status SearchOptions::Validate() const {
  if (q < 1) {
    return Status::InvalidArgument("q must be >= 1");
  }
  if (!(sample_fraction > 0.0) || sample_fraction > 1.0) {
    return Status::InvalidArgument(
        StrFormat("sample_fraction must be in (0, 1], got %g", sample_fraction));
  }
  if (max_sample < min_sample) {
    return Status::InvalidArgument(
        StrFormat("max_sample (%zu) must be >= min_sample (%zu)", max_sample,
                  min_sample));
  }
  if (sigma < 0.0) {
    return Status::InvalidArgument("sigma must be >= 0");
  }
  if (max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (top_r_pairs < 1) {
    return Status::InvalidArgument("top_r_pairs must be >= 1");
  }
  if (min_coverage_fraction < 0.0 || min_coverage_fraction > 1.0) {
    return Status::InvalidArgument(
        StrFormat("min_coverage_fraction must be in [0, 1], got %g",
                  min_coverage_fraction));
  }
  return env.Validate();
}

TranslationSearch::TranslationSearch(const relational::Table& source,
                                     const relational::Table& target,
                                     size_t target_column,
                                     SearchOptions options)
    : source_(source),
      target_(target),
      target_column_(target_column),
      options_(options),
      budget_(options_.env.budget),
      active_budget_(options_.env.shared_budget != nullptr
                         ? options_.env.shared_budget
                         : &budget_),
      trace_(options_.env.trace),
      source_summaries_(source.num_columns()) {
  // A cached target index is accepted only when it is interchangeable with
  // the one this search would build: same q, postings present, same column,
  // and built over a table of the same row count (a cheap identity proxy —
  // the service keys its cache by content fingerprint, this guards against a
  // caller handing in an index for a different table). Anything else falls
  // back to a local build rather than erroring — a stale cache must never
  // change results.
  if (options_.env.target_index != nullptr &&
      options_.env.target_index->q() == options_.q &&
      options_.env.target_index->postings_built() &&
      options_.env.target_index->column() == target_column_ &&
      options_.env.target_index->row_count() == target_.num_rows()) {
    target_index_ = options_.env.target_index;
  } else {
    relational::ColumnIndex::Options idx_options;
    idx_options.q = options_.q;
    idx_options.build_postings = true;
    target_index_ = std::make_shared<relational::ColumnIndex>(
        target_, target_column_, idx_options);
  }

  if (options_.detect_separators) {
    separator_template_ = SeparatorDetector::Detect(target_, target_column_);
    if (separator_template_.has_value()) {
      separator_chars_ =
          SeparatorDetector::TemplateSeparatorChars(*separator_template_);
    }
  }
}

TranslationSearch::~TranslationSearch() = default;

ThreadPool& TranslationSearch::pool() {
  if (!pool_) {
    size_t n = options_.num_threads;
    if (n == 0) {
      n = static_cast<size_t>(std::max<int64_t>(GetEnvInt("MCSM_THREADS", 0), 0));
    }
    pool_ = std::make_unique<ThreadPool>(n);
  }
  return *pool_;
}

const relational::ColumnSummary& TranslationSearch::SourceSummary(
    size_t column) {
  if (!source_summaries_[column]) {
    // A provided summary is accepted when it describes this column of a
    // table of this row count; it has no q, since the search reads no
    // q-grams of a source column.
    if (options_.env.source_index_provider) {
      auto cached = options_.env.source_index_provider(column);
      if (cached != nullptr && cached->column() == column &&
          cached->row_count() == source_.num_rows()) {
        source_summaries_[column] = std::move(cached);
        return *source_summaries_[column];
      }
    }
    source_summaries_[column] =
        std::make_shared<relational::ColumnSummary>(source_, column);
  }
  return *source_summaries_[column];
}

size_t TranslationSearch::SampleCount(size_t distinct) const {
  if (distinct == 0) return 0;
  size_t t = static_cast<size_t>(
      std::ceil(options_.sample_fraction * static_cast<double>(distinct)));
  t = std::max(t, options_.min_sample);
  t = std::min(t, options_.max_sample);
  return std::min(t, distinct);
}

std::vector<std::string> TranslationSearch::SampleKeys(size_t column) {
  const auto& distinct = SourceSummary(column).sorted_distinct();
  size_t t = SampleCount(distinct.size());
  std::vector<std::string> keys;
  keys.reserve(t);
  for (size_t idx : relational::EquidistantIndices(distinct.size(), t)) {
    keys.push_back(distinct[idx]);
  }
  return keys;
}

std::vector<size_t> TranslationSearch::SampleSourceRows(size_t column) {
  size_t t = SampleCount(SourceSummary(column).distinct_count());
  return relational::SampleRows(source_.num_rows(), t, active_budget_);
}

Status TranslationSearch::TracedFailpoint(const char* site, const char* phase) {
  if (!failpoint::Enabled()) return Status::OK();
  Status triggered = failpoint::Trigger(site);
  if (!triggered.ok() && trace_ != nullptr) {
    TraceEvent event;
    event.phase = phase;
    event.name = "failpoint";
    event.detail = std::string(site) + ": " + triggered.message();
    trace_->Emit(std::move(event));
  }
  return triggered;
}

Result<std::vector<uint32_t>> TranslationSearch::SimilarTargetRows(
    std::string_view key, RunBudget* budget, size_t* pairs_scored) {
  MCSM_RETURN_IF_ERROR(TracedFailpoint(failpoint::kIndexSimilar, "step2"));
  std::vector<relational::ColumnIndex::ScoredRow> scored;
  if (options_.pair_mode == SearchOptions::PairScoreMode::kTfIdf) {
    scored = target_index_->SimilarRows(key, options_.pair_score_threshold,
                                        options_.top_r_pairs, separator_chars_,
                                        budget);
  } else {
    scored = target_index_->SimilarRowsByCount(
        key, options_.pair_score_threshold, options_.top_r_pairs, budget);
  }
  *pairs_scored += scored.size();
  std::vector<uint32_t> rows;
  rows.reserve(scored.size());
  for (const auto& s : scored) rows.push_back(s.row);
  return rows;
}

void TranslationSearch::VoteRecipe(std::string_view key,
                                   std::string_view target,
                                   const FixedCoverage& fixed,
                                   const std::vector<bool>& free_mask,
                                   size_t key_column,
                                   const TraceCtx& trace_ctx,
                                   RunBudget* budget, VoteBatch* batch) {
  text::RecipeAlignment alignment = text::AlignLcsAnchored(
      key, target, &free_mask, text::EditCosts{}, options_.lcs_tie_break);
  ++batch->recipes_built;
  (void)budget->ChargePairs();
  if (trace_ != nullptr) {
    // One alignment event per (key, target instance) pair. Identity comes
    // from the pipeline coordinates + the pair itself, so the multiset is
    // thread-count independent.
    TraceEvent event;
    event.phase = trace_ctx.phase;
    event.name = "recipe";
    event.iteration = trace_ctx.iteration;
    event.column = static_cast<int64_t>(key_column);
    event.sample = trace_ctx.sample;
    event.value = static_cast<double>(alignment.matched_chars());
    event.detail = std::string(key) + " -> " + std::string(target);
    trace_->Emit(std::move(event));
  }
  auto formulas_or = BuildFormulasFromRecipe(
      target, fixed, alignment, key_column, key.size(),
      options_.max_variants_per_recipe, target_index_->fixed_width());
  if (!formulas_or.ok()) return;  // malformed recipe: skipped vote (see recipe.h)
  std::vector<TranslationFormula>& formulas = *formulas_or;
  (void)budget->ChargeFormulas(formulas.size());
  // Votes are weighted by the number of characters the recipe explains: a
  // k-character serendipitous match is exponentially less probable than a
  // 1-character one (the same decay Eq. 1 models by raising to the power q),
  // so longer systematic matches must outrank shorter coincidences.
  const double weight =
      static_cast<double>(std::max<size_t>(alignment.matched_chars(), 1));
  for (auto& f : formulas) {
    ++batch->formulas_considered;
    batch->votes.Add(key_column, std::move(f), weight);
  }
}

void TranslationSearch::MergeBatch(VoteBatch&& batch, VoteTally* votes) {
  stats_.recipes_built += batch.recipes_built;
  stats_.formulas_considered += batch.formulas_considered;
  stats_.pairs_scored += batch.pairs_scored;
  votes->Merge(std::move(batch.votes));
}

Result<ColumnSelection> TranslationSearch::SelectStartColumn() {
  // Diagnostic timing only (never part of result/trace identity): wall-clock
  // access in core goes through WallTimer/RunBudget, enforced by lint CD001.
  WallTimer timer;
  TraceSpan span(trace_, "step1", "select_start_column");
  ColumnSelection selection;
  selection.scores.assign(source_.num_columns(), 0.0);
  std::vector<size_t> text_columns;
  for (size_t col = 0; col < source_.num_columns(); ++col) {
    if (source_.schema().column(col).type == relational::ColumnType::kText) {
      text_columns.push_back(col);
    }
  }
  // One slot per text column (Algorithm 2's loop). Each worker builds and
  // scores only its own column — SourceSummary writes a distinct
  // source_summaries_ entry per column — and the winner is picked serially in
  // column order below, so the choice is identical for every thread count.
  std::vector<double> column_scores(text_columns.size(), 0.0);
  pool().ParallelFor(text_columns.size(), [&](size_t i) {
    if (active_budget_->Exhausted()) return;
    const size_t col = text_columns[i];
    ColumnScorer::Options scorer_options;
    scorer_options.mode = options_.count_mode;
    scorer_options.excluded_chars = separator_chars_;
    scorer_options.trace = trace_;
    scorer_options.trace_column = static_cast<int64_t>(col);
    std::vector<std::string> keys = SampleKeys(col);
    column_scores[i] =
        ColumnScorer::ScoreKeys(keys, *target_index_, scorer_options);
  });
  double best_score = 0.0;
  for (size_t i = 0; i < text_columns.size(); ++i) {
    selection.scores[text_columns[i]] = column_scores[i];
    if (trace_ != nullptr) {
      // Eq. 1 score of every text column (the Algorithm 2 evidence).
      TraceEvent event;
      event.phase = "step1";
      event.name = "column_score";
      event.column = static_cast<int64_t>(text_columns[i]);
      event.value = column_scores[i];
      trace_->Emit(std::move(event));
    }
    if (column_scores[i] > best_score) {
      best_score = column_scores[i];
      selection.best_column = text_columns[i];
    }
  }
  stats_.step1_seconds += timer.Seconds();
  if (selection.best_column == std::numeric_limits<size_t>::max()) {
    return Status::NotFound("no source column shares q-grams with the target");
  }
  if (trace_ != nullptr) {
    TraceEvent event;
    event.phase = "step1";
    event.name = "start_column";
    event.column = static_cast<int64_t>(selection.best_column);
    event.value = best_score;
    trace_->Emit(std::move(event));
  }
  return selection;
}

Result<std::vector<TranslationFormula>> TranslationSearch::BuildInitialFormulas(
    size_t column, size_t k) {
  WallTimer timer;
  TraceSpan span(trace_, "step2", "build_initial");
  MCSM_RETURN_IF_ERROR(TracedFailpoint(failpoint::kSamplerSample, "step2"));

  auto vote_pair = [&](std::string_view key, uint32_t target_row,
                       size_t sample_slot, RunBudget* budget,
                       VoteBatch* batch) {
    const relational::TextView target_cell =
        target_.TextAt(target_row, target_column_);
    const std::string_view target = target_cell.view();
    if (target.empty()) return;
    FixedCoverage fixed = FixedCoverage::None(target.size());
    if (separator_template_.has_value()) {
      auto spans = separator_template_->CaptureLiterals(target);
      if (!spans.has_value()) return;  // separator template must hold
      std::vector<Region> literal_regions;
      const auto& segments = separator_template_->segments();
      size_t span_idx = 0;
      for (const auto& seg : segments) {
        if (!seg.is_wildcard) {
          (void)span_idx;
          literal_regions.push_back(Region::Literal(seg.literal));
        }
      }
      auto built = FixedCoverage::FromCapture(target.size(), *spans,
                                              std::move(literal_regions));
      if (!built.ok()) return;
      fixed = std::move(built).value();
    }
    TraceCtx ctx;
    ctx.phase = "step2";
    ctx.sample = static_cast<int64_t>(sample_slot);
    VoteRecipe(key, target, fixed, fixed.FreeMask(), column, ctx, budget,
               batch);
  };

  // One slot per sampled key (or linked pair): retrieval + alignment run in
  // parallel on private budget meters, and the admitted slots are merged in
  // sample order below so the vote tallies never depend on scheduling.
  std::vector<VoteBatch> batches;
  if (!linkage_.empty()) {
    // Section 6.2: candidate pairs come from the known row linkage. Sampling
    // stays serial (it charges the budget in a deterministic order). The
    // pinned column keeps the key views valid through the parallel voting
    // below.
    const relational::PinnedColumn key_column(source_.Column(column));
    std::vector<std::pair<std::string_view, uint32_t>> pairs;
    for (size_t row : SampleSourceRows(column)) {
      if (active_budget_->Exhausted()) break;
      std::string_view key = key_column.at(row);
      if (key.empty()) continue;
      if (row >= linkage_.size() || linkage_[row] == kNoLink) continue;
      pairs.emplace_back(key, static_cast<uint32_t>(linkage_[row]));
    }
    batches.resize(pairs.size());
    BudgetPhase phase(active_budget_, pairs.size());
    pool().ParallelFor(pairs.size(), [&](size_t i) {
      phase.Run(i, [&](RunBudget* budget) {
        vote_pair(pairs[i].first, pairs[i].second, i, budget, &batches[i]);
      });
    });
    batches.resize(phase.Commit());
  } else {
    std::vector<std::string> keys = SampleKeys(column);
    batches.resize(keys.size());
    BudgetPhase phase(active_budget_, keys.size());
    pool().ParallelFor(keys.size(), [&](size_t i) {
      phase.Run(i, [&](RunBudget* budget) {
        const std::string& key = keys[i];
        if (key.empty()) return;
        VoteBatch& batch = batches[i];
        auto rows_or = SimilarTargetRows(key, budget, &batch.pairs_scored);
        if (!rows_or.ok()) {
          batch.status = rows_or.status();
          return;
        }
        if (trace_ != nullptr) {
          // Pair retrieval per sampled key (Algorithm 3): how many candidate
          // target instances the index produced for this key.
          TraceEvent event;
          event.phase = "step2";
          event.name = "pairs_retrieved";
          event.column = static_cast<int64_t>(column);
          event.sample = static_cast<int64_t>(i);
          event.value = static_cast<double>(rows_or->size());
          event.detail = key;
          trace_->Emit(std::move(event));
        }
        for (uint32_t target_row : *rows_or) {
          vote_pair(key, target_row, i, budget, &batch);
        }
      });
    });
    batches.resize(phase.Commit());
  }
  VoteTally tally;
  for (VoteBatch& batch : batches) {
    // First failing slot in sample order — the same error a serial run
    // returns.
    if (!batch.status.ok()) return batch.status;
    MergeBatch(std::move(batch), &tally);
  }
  const std::vector<FormulaVotes> votes = std::move(tally).Ranked();

  // Rank candidates: most frequent first; ties break toward the formula
  // explaining more characters, then by key (determinism).
  std::vector<const FormulaVotes*> ranked;
  for (const FormulaVotes& entry : votes) {
    bool informative = false;
    for (const auto& r : entry.formula.regions()) {
      if (r.kind == Region::Kind::kColumnSpan) {
        informative = true;
        break;
      }
    }
    if (!informative) continue;  // span-free formula carries no information
    if (entry.count < options_.min_support) continue;
    ranked.push_back(&entry);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const FormulaVotes* a, const FormulaVotes* b) {
              if (a->weighted_count != b->weighted_count) {
                return a->weighted_count > b->weighted_count;
              }
              size_t ka = a->formula.KnownFixedChars();
              size_t kb = b->formula.KnownFixedChars();
              if (ka != kb) return ka > kb;
              return a->key < b->key;
            });
  std::vector<TranslationFormula> out;
  for (const FormulaVotes* r : ranked) {
    if (trace_ != nullptr) {
      // The surviving initial candidates in rank order (sample = rank).
      TraceEvent event;
      event.phase = "step2";
      event.name = "initial_candidate";
      event.column = static_cast<int64_t>(r->column);
      event.sample = static_cast<int64_t>(out.size());
      event.value = r->weighted_count;
      event.detail = r->formula.ToString(source_.schema());
      event.metrics.emplace_back("support", static_cast<double>(r->count));
      event.metrics.emplace_back("weighted_count", r->weighted_count);
      trace_->Emit(std::move(event));
    }
    out.push_back(r->formula);
    if (out.size() >= k) break;
  }
  stats_.step2_seconds += timer.Seconds();
  if (out.empty()) {
    return Status::NotFound(StrFormat(
        "no initial translation formula reached min_support=%zu for column %zu",
        options_.min_support, column));
  }
  return out;
}

Result<TranslationFormula> TranslationSearch::BuildInitialFormula(
    size_t column) {
  MCSM_ASSIGN_OR_RETURN(auto formulas, BuildInitialFormulas(column, 1));
  return formulas[0];
}

Result<bool> TranslationSearch::RefineOnce(TranslationFormula* formula,
                                           IterationInfo* info) {
  WallTimer timer;
  if (formula->empty()) {
    return Status::InvalidArgument("cannot refine an empty formula");
  }
  // Iteration number for trace identity: refinement passes completed so far
  // across the whole run (deterministic — branch order never depends on
  // scheduling).
  const int64_t iteration =
      static_cast<int64_t>(stats_.iteration_seconds.size());
  if (trace_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kSpanBegin;
    event.phase = "refine";
    event.name = "iteration";
    event.iteration = iteration;
    event.detail = formula->ToString(source_.schema());
    trace_->Emit(std::move(event));
  }
  // Fires once per refinement pass, not per row, so a delay spec slows the
  // search instead of multiplying into an apparent hang.
  MCSM_RETURN_IF_ERROR(TracedFailpoint(failpoint::kIndexPattern, "refine"));
  const std::string current_rendered = formula->ToString();

  // The formula's non-Unknown regions, in order (they pair with the pattern's
  // literal captures).
  std::vector<Region> fixed_regions;
  for (const auto& r : formula->regions()) {
    if (r.kind != Region::Kind::kUnknown) fixed_regions.push_back(r);
  }

  size_t candidates_considered = 0;

  // Text columns eligible as candidates.
  std::vector<size_t> text_columns;
  for (size_t col = 0; col < source_.num_columns(); ++col) {
    if (source_.schema().column(col).type == relational::ColumnType::kText) {
      text_columns.push_back(col);
    }
  }

  // One equidistant row sample for the whole iteration: every candidate
  // column sees the identical (source row, target instance) pairs, so vote
  // counts are comparable across columns, and the expensive pattern
  // retrieval runs once per row instead of once per (row, column). Rows are
  // processed in parallel, one slot each, merged in sample order below.
  size_t t = SampleCount(source_.num_rows());
  std::vector<size_t> sampled =
      relational::SampleRows(source_.num_rows(), t, active_budget_);
  std::vector<VoteBatch> batches(sampled.size());
  BudgetPhase phase(active_budget_, sampled.size());
  pool().ParallelFor(sampled.size(), [&](size_t slot) {
    phase.Run(slot, [&](RunBudget* budget) {
      const size_t row = sampled[slot];
      VoteBatch& batch = batches[slot];
      auto pattern = formula->BuildPattern(source_, row);
      if (!pattern.has_value() || pattern->IsUniversal()) return;

      relational::PatternMatches matches(*pattern);
      if (!linkage_.empty()) {
        if (row < linkage_.size() && linkage_[row] != kNoLink) {
          relational::TextCursor cursor(target_.Column(target_column_));
          matches.Capture(*pattern, static_cast<uint32_t>(linkage_[row]),
                          &cursor);
        }
      } else {
        matches = target_index_->RowsMatchingPattern(*pattern, budget);
      }

      // The row's key in every candidate column, read once for the slot; the
      // cells hold their pins until the slot ends.
      std::vector<relational::TextView> key_cells;
      std::vector<std::string_view> keys;
      key_cells.reserve(text_columns.size());
      keys.reserve(text_columns.size());
      for (size_t col : text_columns) {
        key_cells.push_back(source_.TextAt(row, col));
        keys.push_back(key_cells.back().view());
      }
      PatternCandidates selected =
          SelectPatternCandidates(matches, fixed_regions, keys, options_.q,
                                  options_.max_pattern_rows);
      const std::vector<PatternCandidate>& candidates = selected.kept;
      if (trace_ != nullptr) {
        // Pattern retrieval outcome for this sampled row (Algorithm 5).
        TraceEvent event;
        event.phase = "refine";
        event.name = "pattern_candidates";
        event.iteration = iteration;
        event.sample = static_cast<int64_t>(slot);
        event.value = static_cast<double>(selected.captured);
        trace_->Emit(std::move(event));
      }

      for (size_t k = 0; k < text_columns.size(); ++k) {
        const size_t col = text_columns[k];
        const std::string_view key = keys[k];
        if (key.empty()) continue;
        // Algorithm 6's "and contains q-grams of key" (see RefinementFilter).
        bool filter = options_.refinement_filter !=
                          SearchOptions::RefinementFilter::kOff &&
                      key.size() >= options_.q;
        // Sharing is measured against the candidate's *unexplained* portion:
        // the key's contribution has to land there, and testing the whole
        // string would make the filter vacuous for columns whose value the
        // pattern already pins (every "04%" match contains "04").
        std::vector<bool> sharing(candidates.size(), true);
        if (filter) {
          for (size_t ci = 0; ci < candidates.size(); ++ci) {
            sharing[ci] = text::SharedQGramsMasked(key, candidates[ci].target,
                                                   candidates[ci].free_mask,
                                                   options_.q) > 0;
          }
          if (options_.refinement_filter ==
                  SearchOptions::RefinementFilter::kPreferSharing &&
              std::none_of(sharing.begin(), sharing.end(),
                           [](bool b) { return b; })) {
            filter = false;  // waive rather than starve
          }
        }
        for (size_t ci = 0; ci < candidates.size(); ++ci) {
          if (filter && !sharing[ci]) continue;
          TraceCtx ctx;
          ctx.phase = "refine";
          ctx.iteration = iteration;
          ctx.sample = static_cast<int64_t>(slot);
          VoteRecipe(key, candidates[ci].target, candidates[ci].fixed,
                     candidates[ci].free_mask, col, ctx, budget, &batch);
        }
      }
    });
  });
  batches.resize(phase.Commit());

  VoteTally tally;
  for (VoteBatch& batch : batches) MergeBatch(std::move(batch), &tally);
  const std::vector<FormulaVotes> votes = std::move(tally).Ranked();
  std::vector<double> column_totals(source_.num_columns(), 0);
  for (const FormulaVotes& entry : votes) {
    column_totals[entry.column] += entry.weighted_count;
  }

  // Score candidates (Eq. 5) in key order and adopt the best true
  // refinement; an exact tie goes to the earlier key.
  double global_total = 0;
  for (double ct : column_totals) global_total += ct;
  const FormulaVotes* best = nullptr;
  double best_score = 0.0;
  for (const FormulaVotes& entry : votes) {
    ++candidates_considered;
    if (entry.rendering() == current_rendered) {
      continue;  // no new information
    }
    if (entry.count < options_.min_support) continue;
    double norm =
        options_.score_normalization ==
                SearchOptions::ScoreNormalization::kPerColumn
            ? column_totals[entry.column]
            : global_total;
    double frequency = entry.weighted_count / std::max(norm, 1.0);
    double denominator = 1.0;
    if (!options_.disable_width_penalty) {
      denominator = std::max(
          1.0, SourceSummary(entry.column).avg_length() - options_.sigma);
    }
    double score = frequency / denominator;
    if (trace_ != nullptr) {
      // Eq. 5 ScoreTrans breakdown for every surviving candidate formula.
      TraceEvent event;
      event.phase = "refine";
      event.name = "candidate_formula";
      event.iteration = iteration;
      event.column = static_cast<int64_t>(entry.column);
      event.value = score;
      event.detail = entry.formula.ToString(source_.schema());
      event.metrics.emplace_back("frequency", frequency);
      event.metrics.emplace_back("width_penalty", denominator);
      event.metrics.emplace_back("support", static_cast<double>(entry.count));
      event.metrics.emplace_back("weighted_count", entry.weighted_count);
      trace_->Emit(std::move(event));
    }
    if (best == nullptr || score > best_score ||
        (score == best_score &&
         entry.formula.KnownFixedChars() > best->formula.KnownFixedChars())) {
      best = &entry;
      best_score = score;
    }
  }

  double seconds = timer.Seconds();
  stats_.iteration_seconds.push_back(seconds);
  if (info != nullptr) {
    info->seconds = seconds;
    info->candidates_considered = candidates_considered;
  }
  if (trace_ != nullptr) {
    TraceEvent winner;
    winner.phase = "refine";
    winner.name = best != nullptr ? "iteration_winner" : "no_improvement";
    winner.iteration = iteration;
    if (best != nullptr) {
      winner.column = static_cast<int64_t>(best->column);
      winner.value = best_score;
      winner.detail = best->formula.ToString(source_.schema());
      winner.metrics.emplace_back("support",
                                  static_cast<double>(best->count));
    } else {
      winner.detail = formula->ToString(source_.schema());
    }
    trace_->Emit(std::move(winner));
    TraceEvent end;
    end.kind = TraceEventKind::kSpanEnd;
    end.phase = "refine";
    end.name = "iteration";
    end.iteration = iteration;
    end.elapsed_ms = seconds * 1e3;
    trace_->Emit(std::move(end));
  }
  if (best == nullptr) {
    if (info != nullptr) info->formula = current_rendered;
    return false;
  }
  *formula = best->formula;
  if (info != nullptr) {
    info->chosen_column = best->column;
    info->formula = formula->ToString();
    info->support = best->count;
    info->score = best_score;
  }
  return true;
}

SearchResult TranslationSearch::TruncatedResult(SearchResult attempt) {
  attempt.truncated = true;
  attempt.budget_trip = active_budget_->trip();
  stats_.postings_scanned = static_cast<size_t>(active_budget_->postings_scanned());
  attempt.stats = stats_;
  if (trace_ != nullptr) {
    TraceEvent event;
    event.phase = "run";
    event.name = "budget_trip";
    event.detail = BudgetTripName(attempt.budget_trip);
    event.value = static_cast<double>(attempt.stats.postings_scanned);
    trace_->Emit(std::move(event));
  }
  return attempt;
}

Result<SearchResult> TranslationSearch::Run() {
  TraceSpan run_span(trace_, "run", "search");
  auto selection_or = SelectStartColumn();
  if (!selection_or.ok()) {
    // Anytime contract: a budget trip never surfaces as an error — return
    // whatever was found so far (here: nothing) tagged truncated.
    if (active_budget_->Exhausted()) return TruncatedResult(SearchResult{});
    return selection_or.status();
  }
  const std::vector<double>& scores = selection_or->scores;

  // Start columns in descending Step-1 score order (zero scores skipped).
  std::vector<size_t> start_columns;
  for (size_t c = 0; c < scores.size(); ++c) {
    if (scores[c] > 0.0) start_columns.push_back(c);
  }
  std::sort(start_columns.begin(), start_columns.end(),
            [&](size_t a, size_t b) { return scores[a] > scores[b]; });
  if (start_columns.size() > std::max<size_t>(1, options_.start_column_candidates)) {
    start_columns.resize(std::max<size_t>(1, options_.start_column_candidates));
  }

  // A completed branch must actually translate rows; otherwise restart from
  // the next-best initial formula, then from the next-best start column
  // (coverage acts as the integration-system feedback the paper assumes is
  // unavailable — see SearchOptions).
  const size_t coverage_floor = std::max<size_t>(
      options_.min_support,
      static_cast<size_t>(options_.min_coverage_fraction *
                          static_cast<double>(std::min(source_.num_rows(),
                                                       target_.num_rows()))));

  SearchResult best_attempt;
  size_t best_attempt_coverage = 0;
  bool have_attempt = false;
  Status last_error = Status::NotFound("no start column produced a formula");
  for (size_t start_column : start_columns) {
    if (active_budget_->Exhausted()) break;
    auto initial_formulas = BuildInitialFormulas(
        start_column, std::max<size_t>(1, options_.initial_candidates));
    if (!initial_formulas.ok()) {
      last_error = initial_formulas.status();
      continue;
    }
    for (const TranslationFormula& initial : *initial_formulas) {
      if (active_budget_->Exhausted()) break;
      SearchResult attempt;
      attempt.start_column = start_column;
      attempt.formula = initial;
      for (size_t iter = 0;
           iter < options_.max_iterations && !attempt.formula.IsComplete() &&
           !active_budget_->Exhausted();
           ++iter) {
        IterationInfo info;
        MCSM_ASSIGN_OR_RETURN(bool improved,
                              RefineOnce(&attempt.formula, &info));
        attempt.iterations.push_back(std::move(info));
        if (!improved) break;
      }
      if (attempt.formula.IsComplete()) {
        MCSM_ASSIGN_OR_RETURN(
            attempt.coverage,
            TryComputeCoverage(attempt.formula, source_, target_,
                               target_column_));
      }
      const size_t covered = attempt.coverage.matched_rows();
      if (trace_ != nullptr) {
        // Coverage validation verdict for this branch (the feedback loop).
        TraceEvent event;
        event.phase = "run";
        event.name = covered >= coverage_floor ? "accepted" : "coverage_reject";
        event.column = static_cast<int64_t>(start_column);
        event.value = static_cast<double>(covered);
        event.detail = attempt.formula.ToString(source_.schema());
        event.metrics.emplace_back("floor",
                                   static_cast<double>(coverage_floor));
        event.metrics.emplace_back("complete",
                                   attempt.formula.IsComplete() ? 1.0 : 0.0);
        trace_->Emit(std::move(event));
      }
      if (covered >= coverage_floor) {
        // A formula that passes coverage validation is a full success even
        // when the budget tripped on the way: nothing was cut short that a
        // longer run would have improved.
        stats_.postings_scanned =
            static_cast<size_t>(active_budget_->postings_scanned());
        attempt.stats = stats_;
        return attempt;
      }
      if (!have_attempt || covered > best_attempt_coverage) {
        best_attempt = std::move(attempt);
        best_attempt_coverage = covered;
        have_attempt = true;
      }
    }
  }
  if (active_budget_->Exhausted()) {
    return TruncatedResult(have_attempt ? std::move(best_attempt)
                                        : SearchResult{});
  }
  if (!have_attempt) return last_error;
  stats_.postings_scanned = static_cast<size_t>(active_budget_->postings_scanned());
  best_attempt.stats = stats_;
  return best_attempt;
}

Result<Coverage> TranslationSearch::TryComputeCoverage(
    const TranslationFormula& formula, const relational::Table& source,
    const relational::Table& target, size_t target_column) {
  MCSM_ASSIGN_OR_RETURN(const vm::TranslateResult translated,
                        TranslateForCoverage(formula, source));
  Coverage coverage;
  TargetJoin join(target, target_column);
  for (size_t i = 0; i < translated.output_rows(); ++i) {
    const size_t target_row = join.Take(translated.value(i));
    if (target_row != TargetJoin::kNoRow) {
      coverage.matches.push_back({translated.rows[i], target_row});
    }
  }
  return coverage;
}

Coverage TranslationSearch::ComputeCoverage(const TranslationFormula& formula,
                                            const relational::Table& source,
                                            const relational::Table& target,
                                            size_t target_column) {
  Result<Coverage> coverage =
      TryComputeCoverage(formula, source, target, target_column);
  MCSM_CHECK_OK(coverage.status())
      << " computing the coverage of " << formula.ToString(source.schema());
  return std::move(coverage).value();
}

}  // namespace mcsm::core
