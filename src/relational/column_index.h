#ifndef MCSM_RELATIONAL_COLUMN_INDEX_H_
#define MCSM_RELATIONAL_COLUMN_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "relational/pattern.h"
#include "relational/postings.h"
#include "relational/table.h"
#include "text/qgram.h"
#include "text/tfidf.h"

namespace mcsm::relational {

/// \brief Per-column auxiliary structures used by the matcher: the sorted
/// distinct-value list (sampling cursor surrogate for a B-tree index), q-gram
/// document frequencies, and an optional q-gram inverted index over rows.
///
/// The paper manipulates data "with basic SQL commands" against PostgreSQL;
/// this class is the equivalent access path in the embedded engine. Postings
/// make the two hot retrieval operations index-assisted rather than
/// full-scan: tf-idf similarity retrieval (Section 3.3.1) and LIKE-pattern
/// candidate retrieval (Section 3.4.1).
///
/// Layout: grams are interned once at construction into a dense-id
/// dictionary (frozen into a flat fast-lookup table afterwards — see
/// text/qgram.h); df and idf are flat vectors indexed by gram id, and the
/// row-level inverted index is a block-compressed PostingStore (delta-coded
/// row ids + separate tf stream in 128-entry blocks with skip entries, one
/// shared arena — see relational/postings.h). The retrieval hot path
/// performs no per-lookup string allocation, no hash-map node chasing, and
/// decodes blocks into thread-local/stack scratch, so it stays
/// zero-allocation in steady state. All query methods are const and safe to
/// call concurrently from the search's worker pool (similarity scoring uses
/// a thread-local dense accumulator internally).
class ColumnIndex {
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
  size_t row_count() const { return row_count_; }
  size_t column() const { return col_; }
  /// True when the row-level inverted index was built (Options::build_postings).
  bool postings_built() const { return options_.build_postings; }

  /// Rough heap footprint of this index in bytes: distinct-value strings,
  /// posting lists, the interning dictionary, and the tf-idf df/idf vectors.
  /// The estimate is stable across calls (nothing here grows after
  /// construction), which is what the service's byte-budgeted LRU cache
  /// charges per entry. Deliberately an estimate: exact malloc accounting is
  /// allocator-specific and not worth plumbing.
  size_t ApproxMemoryBytes() const;

  /// Number of distinct non-null values.
  size_t distinct_count() const { return sorted_distinct_.size(); }

  /// Distinct values in sorted order (the "B-tree cursor" for equidistant
  /// sampling).
  const std::vector<std::string>& sorted_distinct() const {
    return sorted_distinct_;
  }

  /// Average length of non-null instances (0 when the column is empty).
  double avg_length() const { return avg_length_; }

  /// True when every non-null instance has the same (non-zero) length —
  /// a fixed-width column (Section 3.3.3's fixed-field case).
  bool fixed_width() const { return min_length_ == max_length_ && max_length_ > 0; }

  /// Number of rows containing `gram` at least once.
  int DocumentFrequency(std::string_view gram) const;

  /// Decoded posting list for `gram` (empty when `gram` is unknown or
  /// postings were not built). Allocates — a test/inspection accessor, not
  /// the hot path; retrieval decodes blocks into reusable scratch instead.
  std::vector<Posting> DecodedPostings(std::string_view gram) const;

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

  /// Rows whose value matches `pattern`, filtered through the inverted index
  /// when possible, verified exactly: the posting lists of the literal's
  /// rarest q-grams (up to four) are intersected, galloping over the
  /// per-block skip entries, before verification. Falls back to a scan when no
  /// usable literal exists or postings were not built. `budget`, when given,
  /// is charged per row/posting examined; on exhaustion the scan stops and
  /// the rows found so far are returned (anytime semantics — the caller
  /// reports truncation).
  std::vector<uint32_t> RowsMatchingPattern(const SearchPattern& pattern,
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
  size_t col_;
  Options options_;
  size_t row_count_ = 0;
  double avg_length_ = 0;
  size_t min_length_ = 0;
  size_t max_length_ = 0;
  std::vector<std::string> sorted_distinct_;
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
