#include "relational/column_index.h"

#include <algorithm>

#include "common/check.h"
#include "text/simd.h"

namespace mcsm::relational {

namespace {

/// Dense per-row score accumulator reused across retrieval calls. Epoch
/// tagging makes "clearing" O(1) and the touched list makes result
/// collection O(candidate rows) instead of O(table rows) or a hash map.
/// thread_local storage keeps concurrent retrieval from the search's worker
/// pool race-free without locking: each thread accumulates into its own
/// scratch while the index itself is only read.
struct ScoreScratch {
  std::vector<double> scores;
  std::vector<uint64_t> epochs;
  std::vector<uint32_t> touched;
  uint64_t epoch = 0;

  void Begin(size_t rows) {
    if (scores.size() < rows) {
      scores.resize(rows, 0.0);
      epochs.resize(rows, 0);
    }
    ++epoch;
    touched.clear();
  }

  void Add(uint32_t row, double value) {
    if (epochs[row] != epoch) {
      epochs[row] = epoch;
      scores[row] = value;
      touched.push_back(row);
    } else {
      scores[row] += value;
    }
  }
};

thread_local ScoreScratch t_scratch;

}  // namespace

ColumnIndex::ColumnIndex(const Table& table, size_t col, Options options)
    : ColumnSummary(table, col),
      table_(table),
      options_(options),
      dict_(std::make_shared<text::QGramDictionary>(options.q)) {
  constexpr uint32_t kNoRow = 0xFFFFFFFFu;
  const size_t q = options_.q;
  size_t non_null = 0;
  std::vector<uint32_t> row_ids;  // gram ids of the current row, in order
  std::vector<int> df;            // document frequency by gram id
  // The last row each gram was seen in. Rows ascend, so a gram seen again in
  // the same row bumps that row's tf, and one seen in a new row appends
  // (row, 1): df and every (row, tf) list come out of one pass in posting
  // order, with no per-row sort.
  std::vector<uint32_t> last_row;
  // Per-gram (row, tf) lists, handed to PostingStore::Build below.
  std::vector<std::vector<Posting>> postings;

  const ColumnView view = table.Column(col);
  const PinnedColumn pinned(view);
  for (size_t row = 0; row < row_count(); ++row) {
    if (!view.IsText(row)) continue;
    ++non_null;
    const std::string_view s = pinned.at(row);
    if (q == 0 || s.size() < q) continue;
    row_ids.clear();
    dict_->InternIds(s, &row_ids);
    if (df.size() < dict_->size()) {
      df.resize(dict_->size(), 0);
      last_row.resize(dict_->size(), kNoRow);
      if (options_.build_postings) postings.resize(dict_->size());
    }
    const auto r = static_cast<uint32_t>(row);
    for (const uint32_t id : row_ids) {
      if (last_row[id] == r) {
        if (options_.build_postings) ++postings[id].back().tf;
        continue;
      }
      last_row[id] = r;
      ++df[id];
      if (options_.build_postings) postings[id].push_back({r, 1});
    }
  }

  tfidf_ = std::make_unique<text::TfIdfModel>(dict_, std::move(df), non_null);
  // Interning is done: flat fast-lookup tables for query-time FindIds, and
  // the block-compressed layout for the postings.
  dict_->Freeze();
  if (options_.build_postings) {
    store_ = PostingStore::Build(std::move(postings));
  }
}

int ColumnIndex::DocumentFrequency(std::string_view gram) const {
  return tfidf_->DocumentFrequencyById(dict_->Find(gram));
}

size_t ColumnIndex::ApproxMemoryBytes() const {
  size_t bytes = sizeof(*this) + DistinctValueBytes();
  bytes += store_.ApproxMemoryBytes();
  if (dict_ != nullptr) {
    bytes += dict_->ApproxFastLookupBytes();
    // Per interned gram: the gram bytes (usually SSO'd into the string), the
    // string object, one hash-map slot, and the df (int) + idf (double)
    // vector entries owned by the tf-idf model.
    bytes += dict_->size() *
             (sizeof(std::string) + std::max(options_.q, sizeof(void*)) +
              2 * sizeof(void*) + sizeof(int) + sizeof(double));
  }
  return bytes;
}

std::vector<ColumnIndex::Posting> ColumnIndex::DecodedPostings(
    std::string_view gram) const {
  std::vector<Posting> out;
  const uint32_t id = dict_->Find(gram);
  if (id == text::QGramDictionary::kNoGram) return out;
  std::vector<uint32_t> rows;
  std::vector<uint32_t> tfs;
  const size_t n = store_.Decode(id, &rows, &tfs);
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back({rows[i], tfs[i]});
  return out;
}

long long ColumnIndex::TotalQGramHits(std::string_view key,
                                      std::string_view exclude_chars) const {
  long long total = 0;
  const size_t q = options_.q;
  if (q == 0 || key.size() < q) return 0;
  if (exclude_chars.empty()) {
    // Batched id resolution (SIMD table lookups when frozen); unknown grams
    // come back as kNoGram, which DocumentFrequencyById counts as 0.
    thread_local std::vector<uint32_t> ids;
    ids.clear();
    dict_->FindIds(key, &ids);
    for (uint32_t id : ids) total += tfidf_->DocumentFrequencyById(id);
    return total;
  }
  for (size_t i = 0; i + q <= key.size(); ++i) {
    std::string_view gram = key.substr(i, q);
    if (gram.find_first_of(exclude_chars) != std::string_view::npos) continue;
    total += tfidf_->DocumentFrequencyById(dict_->Find(gram));
  }
  return total;
}

size_t ColumnIndex::RowsWithAnyQGram(std::string_view key) const {
  if (!options_.build_postings) return 0;
  t_scratch.Begin(row_count());
  uint32_t rows[kPostingBlockSize];
  for (const KeyTerm& term : BuildKeyTerms(key, {})) {
    auto [blk, end] = store_.Blocks(term.id);
    for (; blk != end; ++blk) {
      if (!DecodePostingBlock(*blk, store_.data(), store_.data_size(), rows,
                              nullptr)) {
        break;
      }
      for (uint16_t j = 0; j < blk->count; ++j) t_scratch.Add(rows[j], 1.0);
    }
  }
  return t_scratch.touched.size();
}

PatternMatches::PatternMatches(const SearchPattern& pattern)
    : literals_(static_cast<size_t>(std::count_if(
          pattern.segments().begin(), pattern.segments().end(),
          [](const SearchPattern::Segment& s) { return !s.is_wildcard; }))) {}

bool PatternMatches::Capture(const SearchPattern& pattern, uint32_t row,
                             TextCursor* cursor) {
  const std::string_view text = cursor->Get(row);
  if (!pattern.CaptureLiterals(text, &spans_)) return false;
  MCSM_DCHECK(spans_.size() == (rows_.size() + 1) * literals_);
  if (pins_.empty() || pins_.back() != cursor->pin()) {
    pins_.push_back(cursor->pin());
  }
  rows_.push_back(row);
  texts_.push_back(text);
  pin_of_.push_back(static_cast<uint32_t>(pins_.size() - 1));
  return true;
}

PatternMatches ColumnIndex::RowsMatchingPattern(const SearchPattern& pattern,
                                                RunBudget* budget) const {
  PatternMatches out(pattern);
  const size_t q = options_.q;
  std::string_view literal = pattern.LongestLiteral();
  // Candidates arrive in ascending row order on every path below, so a
  // cursor pays one segment load per segment, not one per verification.
  TextCursor cell(table_.Column(column()));

  // Index-assisted path: every q-gram of the longest literal must occur in
  // every matching row.
  if (options_.build_postings && q > 0 && literal.size() >= q) {
    // Intersect the posting lists of the literal's rarest grams (galloping
    // over the block skip entries) before verification. Every matching row
    // contains *all* of the literal's grams, so the intersection only sheds
    // non-matching candidates — the verified output is exactly the rows of
    // the column that match the pattern.
    thread_local std::vector<uint32_t> gram_ids;
    gram_ids.clear();
    dict_->FindIds(literal, &gram_ids);
    std::sort(gram_ids.begin(), gram_ids.end());
    gram_ids.erase(std::unique(gram_ids.begin(), gram_ids.end()),
                   gram_ids.end());
    // kNoGram sorts last; any unknown gram means the literal occurs nowhere.
    if (!gram_ids.empty() &&
        gram_ids.back() == text::QGramDictionary::kNoGram) {
      return out;
    }
    // Rarest first: the shortest list seeds the candidates, the next-rarest
    // lists shrink them fastest.
    std::sort(gram_ids.begin(), gram_ids.end(),
              [this](uint32_t a, uint32_t b) {
                const uint32_t ca = store_.Count(a);
                const uint32_t cb = store_.Count(b);
                if (ca != cb) return ca < cb;
                return a < b;
              });
    thread_local std::vector<uint32_t> candidates;
    candidates.clear();
    uint32_t rows[kPostingBlockSize];
    auto [blk, blk_end] = store_.Blocks(gram_ids.front());
    for (; blk != blk_end; ++blk) {
      // Decoding is charged per block; on exhaustion the rows decoded so far
      // are verified (anytime semantics).
      if (budget != nullptr && !budget->ChargePostings(blk->count)) break;
      if (!DecodePostingBlock(*blk, store_.data(), store_.data_size(), rows,
                              nullptr)) {
        break;
      }
      candidates.insert(candidates.end(), rows, rows + blk->count);
    }
    // Beyond a few grams the intersection is already tight; more lists cost
    // decode work without shedding candidates. Intersection is purely a
    // pre-filter (every survivor is pattern-verified below), so stopping
    // early once the candidate set is small never changes the result.
    constexpr size_t kMaxIntersectGrams = 4;
    constexpr size_t kSmallEnoughToVerify = 32;
    for (size_t g = 1; g < gram_ids.size() && g < kMaxIntersectGrams &&
                       candidates.size() > kSmallEnoughToVerify;
         ++g) {
      store_.Intersect(gram_ids[g], &candidates, budget);
    }
    for (uint32_t row : candidates) out.Capture(pattern, row, &cell);
    return out;
  }

  // Fallback: full scan, charged in blocks against the budget.
  constexpr size_t kBlock = 256;
  for (size_t start = 0; start < row_count(); start += kBlock) {
    size_t end = std::min(start + kBlock, row_count());
    if (budget != nullptr && !budget->ChargePostings(end - start)) break;
    for (size_t row = start; row < end; ++row) {
      out.Capture(pattern, static_cast<uint32_t>(row), &cell);
    }
  }
  return out;
}

std::vector<ColumnIndex::KeyTerm> ColumnIndex::BuildKeyTerms(
    std::string_view key, std::string_view exclude_chars) const {
  std::vector<KeyTerm> terms;
  const size_t q = options_.q;
  if (q == 0 || key.size() < q) return terms;
  // Gram ids of the key (excluded/unknown grams dropped: an excluded gram
  // must not be used as a search key, an unknown one retrieves nothing).
  thread_local std::vector<uint32_t> ids;
  ids.clear();
  if (exclude_chars.empty()) {
    // Batched resolution through the frozen tables (SIMD lookups); unknown
    // grams come back as kNoGram and are dropped after the sort below.
    dict_->FindIds(key, &ids);
  } else {
    for (size_t i = 0; i + q <= key.size(); ++i) {
      std::string_view gram = key.substr(i, q);
      if (gram.find_first_of(exclude_chars) != std::string_view::npos) {
        continue;
      }
      const uint32_t id = dict_->Find(gram);
      if (id != text::QGramDictionary::kNoGram) ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  // kNoGram is the max uint32, so unknown grams form the sorted tail.
  for (size_t i = 0; i < ids.size();) {
    if (ids[i] == text::QGramDictionary::kNoGram) break;
    size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    terms.push_back({ids[i], static_cast<uint32_t>(j - i)});
    i = j;
  }
  return terms;
}

std::vector<ColumnIndex::ScoredRow> ColumnIndex::AccumulateRarestFirst(
    std::vector<KeyTerm> terms, bool idf_weighted, double threshold,
    size_t top_r, RunBudget* budget) const {
  // Rarest (most discriminative) grams first; ties broken by id so the
  // accumulation order — and with it the floating-point rounding — is
  // deterministic.
  std::sort(terms.begin(), terms.end(),
            [this](const KeyTerm& a, const KeyTerm& b) {
              const int da = tfidf_->DocumentFrequencyById(a.id);
              const int db = tfidf_->DocumentFrequencyById(b.id);
              if (da != db) return da < db;
              return a.id < b.id;
            });
  t_scratch.Begin(row_count());
  size_t per_key_budget = options_.posting_budget;
  // Per-block decode scratch lives on the stack (~2 KB, L1-resident); the
  // whole accumulation loop allocates nothing.
  uint32_t rows[kPostingBlockSize];
  uint32_t tfs[kPostingBlockSize];
  double contribs[kPostingBlockSize];
  for (const KeyTerm& term : terms) {
    const size_t count = store_.Count(term.id);
    // A df-sized posting list costs df entries to scan; stopping on the
    // actual list size keeps the subtraction below from underflowing.
    if (count > per_key_budget) break;
    double idf = 0.0;
    if (idf_weighted) {
      idf = tfidf_->IdfById(term.id);
      if (idf <= 0.0) continue;
    }
    per_key_budget -= count;
    // The run budget prunes the same way the per-key budget does: the
    // remaining grams are the most common (least informative) ones.
    // Charging the whole list up front (rather than per block) makes the
    // cut-off a whole-gram boundary that does not depend on block layout.
    if (budget != nullptr && !budget->ChargePostings(count)) break;
    auto [blk, end] = store_.Blocks(term.id);
    if (idf_weighted) {
      // Contribution key_weight * (tf * idf), evaluated per lane by the SIMD
      // kernel: two ordered multiplies, no reassociation, so the accumulated
      // doubles are bit-identical across SIMD tiers.
      const double key_weight = static_cast<double>(term.tf) * idf;
      for (; blk != end; ++blk) {
        if (!DecodePostingBlock(*blk, store_.data(), store_.data_size(), rows,
                                tfs)) {
          break;
        }
        text::simd::TfContributions(key_weight, idf, tfs, blk->count,
                                    contribs);
        for (uint16_t j = 0; j < blk->count; ++j) {
          t_scratch.Add(rows[j], contribs[j]);
        }
      }
    } else {
      for (; blk != end; ++blk) {
        if (!DecodePostingBlock(*blk, store_.data(), store_.data_size(), rows,
                                nullptr)) {
          break;
        }
        for (uint16_t j = 0; j < blk->count; ++j) t_scratch.Add(rows[j], 1.0);
      }
    }
  }
  std::vector<ScoredRow> out;
  out.reserve(t_scratch.touched.size());
  for (uint32_t row : t_scratch.touched) {
    const double score = t_scratch.scores[row];
    if (score >= threshold) out.push_back({row, score});
  }
  const auto by_score = [](const ScoredRow& a, const ScoredRow& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.row < b.row;
  };
  if (out.size() > top_r) {
    // (score desc, row asc) is a total order over distinct rows, so selecting
    // the top_r elements and sorting only those yields the exact prefix a
    // full sort would produce — byte-identical results without paying
    // O(n log n) on candidate sets that dwarf top_r (the common case: whole
    // tables score above threshold but callers keep ~8 pairs).
    std::nth_element(out.begin(), out.begin() + static_cast<ptrdiff_t>(top_r),
                     out.end(), by_score);
    out.resize(top_r);
  }
  std::sort(out.begin(), out.end(), by_score);
  return out;
}

std::vector<ColumnIndex::ScoredRow> ColumnIndex::SimilarRows(
    std::string_view key, double threshold, size_t top_r,
    std::string_view exclude_chars, RunBudget* budget) const {
  if (!options_.build_postings || options_.q == 0 || key.size() < options_.q) {
    return {};
  }
  return AccumulateRarestFirst(BuildKeyTerms(key, exclude_chars),
                               /*idf_weighted=*/true, threshold, top_r,
                               budget);
}

std::vector<ColumnIndex::ScoredRow> ColumnIndex::SimilarRowsByCount(
    std::string_view key, double threshold, size_t top_r,
    RunBudget* budget) const {
  if (!options_.build_postings || options_.q == 0 || key.size() < options_.q) {
    return {};
  }
  return AccumulateRarestFirst(BuildKeyTerms(key, {}),
                               /*idf_weighted=*/false, threshold, top_r,
                               budget);
}

}  // namespace mcsm::relational
