#ifndef MCSM_RELATIONAL_COLUMN_INDEX_H_
#define MCSM_RELATIONAL_COLUMN_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "relational/column_summary.h"
#include "relational/pattern.h"
#include "relational/postings.h"
#include "relational/table.h"
#include "text/qgram.h"
#include "text/tfidf.h"

namespace mcsm::relational {

/// \brief The rows of a column that match a SearchPattern, with what
/// verification captured on each: the row's value and the spans of the
/// pattern's literal segments in it (SearchPattern::CaptureLiterals).
///
/// The values are views into the column's segments; the object holds one pin
/// per segment they lie in, so every view stays valid for its lifetime.
class PatternMatches {
 public:
  explicit PatternMatches(const SearchPattern& pattern);

  /// Captures `pattern` (the constructor's) on `row`, read through `cursor`
  /// (a cursor over the matched column), and appends the row when it
  /// matches. Returns whether it matched.
  bool Capture(const SearchPattern& pattern, uint32_t row, TextCursor* cursor);

  size_t size() const { return rows_.size(); }
  /// Spans per row: one per literal segment of the pattern.
  size_t literals() const { return literals_; }
  /// The matched rows, in the order they were captured (ascending for
  /// ColumnIndex::RowsMatchingPattern).
  const std::vector<uint32_t>& rows() const { return rows_; }
  uint32_t row(size_t i) const { return rows_[i]; }
  std::string_view text(size_t i) const { return texts_[i]; }
  /// Row i's literal spans, left to right: literals() of them.
  const Span* spans(size_t i) const { return spans_.data() + i * literals_; }
  /// Row i's value together with the pin that keeps it valid on its own.
  TextView pinned_text(size_t i) const {
    return TextView(texts_[i], pins_[pin_of_[i]]);
  }

 private:
  size_t literals_;
  std::vector<uint32_t> rows_;
  std::vector<std::string_view> texts_;
  std::vector<Span> spans_;
  std::vector<uint32_t> pin_of_;  ///< texts_[i] lies in pins_[pin_of_[i]]
  std::vector<PagePin> pins_;
};

/// \brief The q-gram index of the target column: q-gram document
/// frequencies, the tf-idf model over them, and an optional row-level
/// inverted index. It derives from ColumnSummary, so it also holds the
/// column's sorted distinct values and instance lengths.
///
/// The paper manipulates data "with basic SQL commands" against PostgreSQL;
/// this class is the equivalent access path in the embedded engine. Postings
/// make the two hot retrieval operations index-assisted rather than
/// full-scan: tf-idf similarity retrieval (Section 3.3.1) and LIKE-pattern
/// candidate retrieval (Section 3.4.1). Only the target column needs them;
/// the search summarizes source columns instead.
///
/// Layout: grams are interned once at construction into a dense-id
/// dictionary, in first-seen order (frozen into a flat fast-lookup table
/// afterwards — see text/qgram.h); df and idf are flat vectors indexed by
/// gram id, and the row-level inverted index is a block-compressed
/// PostingStore (delta-coded row ids + separate tf stream in 128-entry
/// blocks with skip entries, one shared arena — see relational/postings.h).
/// The build takes one pass over the rows: each gram remembers the last row
/// it was seen in, so a repeat within a row bumps that posting's tf and a
/// new row appends one. The retrieval hot path performs no per-lookup string
/// allocation, no hash-map node chasing, and decodes blocks into
/// thread-local/stack scratch, so it stays zero-allocation in steady state.
/// All query methods are const and safe to call concurrently from the
/// search's worker pool (similarity scoring uses a thread-local dense
/// accumulator internally).
class ColumnIndex : public ColumnSummary {
 public:
  struct Options {
    size_t q = 2;                ///< q-gram length (paper uses bi-grams)
    bool build_postings = false; ///< build the row-level inverted index
    /// Per-key budget of posting entries scanned during similarity
    /// retrieval. Grams are processed rarest-first (highest idf — the
    /// discriminative ones), so the budget prunes only the low-signal tail
    /// of very common grams.
    size_t posting_budget = 20000;
  };

  /// An inverted-index entry: the row and the q-gram's term frequency there.
  using Posting = mcsm::relational::Posting;

  ColumnIndex(const Table& table, size_t col, Options options);

  size_t q() const { return options_.q; }
  /// True when the row-level inverted index was built (Options::build_postings).
  bool postings_built() const { return options_.build_postings; }

  /// The summary's bytes plus posting lists, the interning dictionary, and
  /// the tf-idf df/idf vectors. Nothing grows after construction, so the
  /// cache's charge stays accurate.
  size_t ApproxMemoryBytes() const override;

  /// Number of rows containing `gram` at least once.
  int DocumentFrequency(std::string_view gram) const;

  /// Decoded posting list for `gram` (empty when `gram` is unknown or
  /// postings were not built). Allocates — a test/inspection accessor, not
  /// the hot path; retrieval decodes blocks into reusable scratch instead.
  std::vector<Posting> DecodedPostings(std::string_view gram) const;

  /// The block-compressed posting lists, by gram id (empty unless
  /// postings were built). Read-only: lets tests pin the encoded bytes.
  const PostingStore& postings() const { return store_; }

  /// Sum over the key's q-grams (with multiplicity) of their document
  /// frequency — the "count T2 where A includes q-grams of key" reading (a)
  /// used by the column scorer. q-grams containing any character from
  /// `exclude_chars` are skipped (separator handling, Section 6.1).
  long long TotalQGramHits(std::string_view key,
                           std::string_view exclude_chars = {}) const;

  /// Number of distinct rows containing at least one q-gram of `key` —
  /// reading (b). Requires postings.
  size_t RowsWithAnyQGram(std::string_view key) const;

  /// tf-idf model over the column's instances (dictionary and document
  /// frequencies shared with this index).
  const text::TfIdfModel& tfidf() const { return *tfidf_; }

  /// Rows whose value matches `pattern`, in ascending order, filtered
  /// through the inverted index when possible and verified exactly by
  /// capturing the pattern's literal spans, which the result keeps with each
  /// row's value: the posting lists of the literal's rarest q-grams (up to
  /// four) are intersected, galloping over the per-block skip entries, before
  /// verification. Falls back to a scan when no usable literal exists or
  /// postings were not built. `budget`, when given, is charged per
  /// row/posting examined; on exhaustion the scan stops and the rows found so
  /// far are returned (anytime semantics — the caller reports truncation).
  PatternMatches RowsMatchingPattern(const SearchPattern& pattern,
                                     RunBudget* budget = nullptr) const;

  /// A row id together with its tf-idf similarity score against a key.
  struct ScoredRow {
    uint32_t row;
    double score;
  };

  /// Rows similar to `key` under the Eq. 4 tf-idf dot product, retrieved via
  /// the inverted index. Rows scoring below `threshold` are dropped; at most
  /// `top_r` rows are returned (best first). Requires postings. q-grams
  /// containing any character from `exclude_chars` are not used as search
  /// keys (separator handling, Section 6.1). `budget`, when given, is
  /// charged per posting entry scanned; on exhaustion the remaining (most
  /// common, least informative) gram lists are skipped and the rows scored
  /// so far are returned.
  std::vector<ScoredRow> SimilarRows(std::string_view key, double threshold,
                                     size_t top_r,
                                     std::string_view exclude_chars = {},
                                     RunBudget* budget = nullptr) const;

  /// Per-row term-frequency-weighted *raw q-gram count* score (paper Eq. 2):
  /// the number of the key's distinct q-grams present in each candidate row.
  /// Kept for the pair-scoring ablation. Requires postings. `budget` as in
  /// SimilarRows.
  std::vector<ScoredRow> SimilarRowsByCount(std::string_view key,
                                            double threshold, size_t top_r,
                                            RunBudget* budget = nullptr) const;

 private:
  /// One search term of a key: an interned gram id and the key's term
  /// frequency for it.
  struct KeyTerm {
    uint32_t id;
    uint32_t tf;
  };

  /// Collects the key's q-grams as (id, tf) terms, skipping grams containing
  /// `exclude_chars` and grams absent from this column (df 0 — they can
  /// retrieve nothing).
  std::vector<KeyTerm> BuildKeyTerms(std::string_view key,
                                     std::string_view exclude_chars) const;

  /// The accumulation loop shared by SimilarRows and SimilarRowsByCount:
  /// walks the terms' posting lists rarest-gram-first within the per-key
  /// posting budget (and `budget`), accumulating per-row scores — tf-idf
  /// dot-product contributions when `idf_weighted`, 1.0 per posting
  /// otherwise — into a thread-local dense array, then filters by
  /// `threshold` and keeps the `top_r` best.
  std::vector<ScoredRow> AccumulateRarestFirst(std::vector<KeyTerm> terms,
                                               bool idf_weighted,
                                               double threshold, size_t top_r,
                                               RunBudget* budget) const;

  const Table& table_;
  Options options_;
  /// gram <-> dense id; shared with tfidf_ so both agree on ids.
  std::shared_ptr<text::QGramDictionary> dict_;
  /// Block-compressed posting lists by gram id (empty unless
  /// options_.build_postings).
  PostingStore store_;
  /// Owns df/idf by gram id (DocumentFrequency delegates here).
  std::unique_ptr<text::TfIdfModel> tfidf_;
};

}  // namespace mcsm::relational

#endif  // MCSM_RELATIONAL_COLUMN_INDEX_H_
