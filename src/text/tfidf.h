#ifndef MCSM_TEXT_TFIDF_H_
#define MCSM_TEXT_TFIDF_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/qgram.h"

namespace mcsm::text {

/// \brief tf-idf weighting of q-grams over a corpus of column values
/// (paper Eq. 3) and the pair scoring function built on it (Eq. 4).
///
/// w_ij = tf_ij * log2(N / n_j)  where N is the number of instances in the
/// corpus and n_j the number of instances containing q-gram j at least once.
/// ScorePair(a, b) = sum_j w_aj * w_bj over q-grams j shared by a and b.
///
/// Grams are interned through a QGramDictionary: document frequency and idf
/// live in flat vectors indexed by gram id, so the hot per-gram lookups are
/// one allocation-free hash probe plus an array read. The dictionary can be
/// shared with the column index that built the df statistics (the model and
/// the index then agree on ids by construction).
class TfIdfModel {
 public:
  /// Builds document-frequency statistics from `corpus` using `q`-grams.
  TfIdfModel(const std::vector<std::string>& corpus, size_t q);

  /// Builds over an existing dictionary: `df_by_id[id]` is the document
  /// frequency of `dictionary->gram(id)`. The dictionary is shared, not
  /// copied (the column index path).
  TfIdfModel(std::shared_ptr<const QGramDictionary> dictionary,
             std::vector<int> df_by_id, size_t corpus_size);

  size_t q() const { return q_; }
  size_t corpus_size() const { return corpus_size_; }

  /// The interning dictionary backing this model.
  const QGramDictionary& dictionary() const { return *dict_; }

  /// Number of corpus instances containing `gram` at least once.
  int DocumentFrequency(std::string_view gram) const;
  /// By interned id (QGramDictionary::kNoGram and out-of-range ids count 0).
  int DocumentFrequencyById(uint32_t id) const {
    return id < df_.size() ? df_[id] : 0;
  }

  /// idf component: log2(N / n). Returns 0 for unseen grams (n == 0), which
  /// drops them from scoring — an unseen gram cannot be shared anyway.
  double Idf(std::string_view gram) const;
  /// By interned id (0 for kNoGram / out-of-range ids).
  double IdfById(uint32_t id) const { return id < idf_.size() ? idf_[id] : 0.0; }

  /// Weight vector of a string: q-gram -> tf * idf.
  std::unordered_map<std::string, double> WeightVector(std::string_view s) const;

  /// Paper Eq. 4: dot product of the two weight vectors.
  double ScorePair(std::string_view a, std::string_view b) const;

  /// Cosine variant: Eq. 4 normalized by the vector magnitudes. Used by the
  /// literature the paper builds on (Gravano et al., Chaudhuri et al.); kept
  /// for the ablation benchmark.
  double CosinePair(std::string_view a, std::string_view b) const;

 private:
  /// Fills idf_ from df_ (idf = log2(N / df), 0 when df or N is 0).
  void ComputeIdf();

  size_t q_;
  size_t corpus_size_ = 0;
  std::shared_ptr<const QGramDictionary> dict_;
  std::vector<int> df_;     ///< document frequency by gram id
  std::vector<double> idf_; ///< precomputed log2(N / df) by gram id
};

}  // namespace mcsm::text

#endif  // MCSM_TEXT_TFIDF_H_
