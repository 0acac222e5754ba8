#ifndef MCSM_TESTS_REFERENCE_INDEX_H_
#define MCSM_TESTS_REFERENCE_INDEX_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "relational/column_index.h"
#include "relational/pattern.h"
#include "relational/postings.h"
#include "relational/table.h"

namespace mcsm::reference {

/// \brief Brute-force reference model of relational::ColumnIndex retrieval.
///
/// Keeps each text row's q-gram multiset in a plain map and answers every
/// query by scanning all rows, straight from the definitions: a gram's
/// document frequency is the number of rows containing it, idf is
/// log2(text rows / df), and a row's similarity to a key sums
/// (key tf * idf) * (row tf * idf) over the grams they share. No postings,
/// blocks, dictionaries or SIMD, so it is the oracle for all of those.
///
/// Two orders are part of ColumnIndex's contract and are reproduced here so
/// that scores match bit for bit: terms are taken rarest first, ties broken
/// by first appearance in the column (the interned gram id), and the per-key
/// posting budget stops at the first term whose list no longer fits.
class ReferenceIndex {
 public:
  using ScoredRow = relational::ColumnIndex::ScoredRow;

  ReferenceIndex(const relational::Table& table, size_t col, size_t q,
                 size_t posting_budget)
      : table_(table), col_(col), q_(q), posting_budget_(posting_budget) {
    const relational::ColumnView view = table.Column(col);
    row_grams_.resize(table.num_rows());
    for (size_t row = 0; row < table.num_rows(); ++row) {
      if (!view.IsText(row)) continue;
      ++text_rows_;
      const std::string value(view.GetText(row).view());
      for (size_t i = 0; q > 0 && i + q <= value.size(); ++i) {
        const std::string gram = value.substr(i, q);
        first_seen_.emplace(gram, static_cast<uint32_t>(first_seen_.size()));
        if (row_grams_[row][gram]++ == 0) ++df_[gram];
      }
    }
  }

  /// The (row, tf) list of `gram`, ascending by row.
  std::vector<relational::Posting> Postings(std::string_view gram) const {
    std::vector<relational::Posting> out;
    for (size_t row = 0; row < row_grams_.size(); ++row) {
      auto it = row_grams_[row].find(std::string(gram));
      if (it != row_grams_[row].end()) {
        out.push_back({static_cast<uint32_t>(row), it->second});
      }
    }
    return out;
  }

  /// Sum of df over the key's grams, with multiplicity.
  long long TotalQGramHits(std::string_view key) const {
    long long total = 0;
    for (const std::string& gram : Grams(key)) total += Df(gram);
    return total;
  }

  /// Rows containing at least one of the key's grams.
  size_t RowsWithAnyQGram(std::string_view key) const {
    const std::vector<std::string> grams = Grams(key);
    size_t count = 0;
    for (const auto& row : row_grams_) {
      count += std::any_of(grams.begin(), grams.end(),
                           [&](const std::string& g) { return row.count(g); });
    }
    return count;
  }

  /// Every row whose value (empty for NULL) matches `pattern`.
  std::vector<uint32_t> RowsMatchingPattern(
      const relational::SearchPattern& pattern) const {
    std::vector<uint32_t> out;
    for (size_t row = 0; row < table_.num_rows(); ++row) {
      if (pattern.Matches(table_.TextAt(row, col_))) {
        out.push_back(static_cast<uint32_t>(row));
      }
    }
    return out;
  }

  std::vector<ScoredRow> SimilarRows(std::string_view key, double threshold,
                                     size_t top_r) const {
    return Score(key, /*idf_weighted=*/true, threshold, top_r);
  }

  std::vector<ScoredRow> SimilarRowsByCount(std::string_view key,
                                            double threshold,
                                            size_t top_r) const {
    return Score(key, /*idf_weighted=*/false, threshold, top_r);
  }

 private:
  struct Term {
    std::string gram;
    uint32_t tf;  ///< multiplicity in the key
    double idf;
  };

  std::vector<std::string> Grams(std::string_view key) const {
    std::vector<std::string> grams;
    for (size_t i = 0; q_ > 0 && i + q_ <= key.size(); ++i) {
      grams.emplace_back(key.substr(i, q_));
    }
    return grams;
  }

  int Df(const std::string& gram) const {
    auto it = df_.find(gram);
    return it == df_.end() ? 0 : it->second;
  }

  /// The key's grams present in the column, rarest first, cut where the
  /// per-key posting budget runs out; idf-weighted scoring also skips grams
  /// with idf 0 (present in every text row).
  std::vector<Term> Terms(std::string_view key, bool idf_weighted) const {
    std::map<std::string, uint32_t> key_tf;
    for (const std::string& gram : Grams(key)) {
      if (Df(gram) > 0) ++key_tf[gram];
    }
    std::vector<Term> terms;
    for (const auto& [gram, tf] : key_tf) {
      terms.push_back({gram, tf,
                       std::log2(static_cast<double>(text_rows_) /
                                 static_cast<double>(Df(gram)))});
    }
    std::sort(terms.begin(), terms.end(), [&](const Term& a, const Term& b) {
      if (Df(a.gram) != Df(b.gram)) return Df(a.gram) < Df(b.gram);
      return first_seen_.at(a.gram) < first_seen_.at(b.gram);
    });
    std::vector<Term> used;
    size_t budget = posting_budget_;
    for (const Term& term : terms) {
      const size_t df = static_cast<size_t>(Df(term.gram));
      if (df > budget) break;
      if (idf_weighted && term.idf <= 0.0) continue;
      budget -= df;
      used.push_back(term);
    }
    return used;
  }

  std::vector<ScoredRow> Score(std::string_view key, bool idf_weighted,
                               double threshold, size_t top_r) const {
    const std::vector<Term> terms = Terms(key, idf_weighted);
    std::vector<ScoredRow> out;
    for (size_t row = 0; row < row_grams_.size(); ++row) {
      bool shares_a_gram = false;
      double score = 0.0;
      for (const Term& term : terms) {
        auto it = row_grams_[row].find(term.gram);
        if (it == row_grams_[row].end()) continue;
        shares_a_gram = true;
        score += idf_weighted ? (static_cast<double>(term.tf) * term.idf) *
                                    (static_cast<double>(it->second) * term.idf)
                              : 1.0;
      }
      if (shares_a_gram && score >= threshold) {
        out.push_back({static_cast<uint32_t>(row), score});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const ScoredRow& a, const ScoredRow& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.row < b.row;
              });
    if (out.size() > top_r) out.resize(top_r);
    return out;
  }

  const relational::Table& table_;
  size_t col_;
  size_t q_;
  size_t posting_budget_;
  size_t text_rows_ = 0;
  std::vector<std::map<std::string, uint32_t>> row_grams_;  ///< gram -> tf
  std::map<std::string, int> df_;
  std::map<std::string, uint32_t> first_seen_;  ///< gram -> interned id
};

}  // namespace mcsm::reference

#endif  // MCSM_TESTS_REFERENCE_INDEX_H_
