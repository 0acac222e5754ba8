#include "text/tfidf.h"

#include <algorithm>
#include <cmath>

namespace mcsm::text {

TfIdfModel::TfIdfModel(const std::vector<std::string>& corpus, size_t q)
    : q_(q), corpus_size_(corpus.size()) {
  auto dict = std::make_shared<QGramDictionary>(q);
  std::vector<uint32_t> ids;  // per-instance scratch
  for (const auto& s : corpus) {
    ids.clear();
    dict->InternIds(s, &ids);
    if (df_.size() < dict->size()) df_.resize(dict->size(), 0);
    // Sort so duplicates are adjacent: df counts each gram once per instance.
    std::sort(ids.begin(), ids.end());
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i == 0 || ids[i] != ids[i - 1]) df_[ids[i]]++;
    }
  }
  dict->Freeze();
  dict_ = std::move(dict);
  ComputeIdf();
}

TfIdfModel::TfIdfModel(std::shared_ptr<const QGramDictionary> dictionary,
                       std::vector<int> df_by_id, size_t corpus_size)
    : q_(dictionary->q()),
      corpus_size_(corpus_size),
      dict_(std::move(dictionary)),
      df_(std::move(df_by_id)) {
  ComputeIdf();
}

void TfIdfModel::ComputeIdf() {
  idf_.assign(df_.size(), 0.0);
  if (corpus_size_ == 0) return;
  const double n = static_cast<double>(corpus_size_);
  for (size_t id = 0; id < df_.size(); ++id) {
    if (df_[id] > 0) idf_[id] = std::log2(n / static_cast<double>(df_[id]));
  }
}

int TfIdfModel::DocumentFrequency(std::string_view gram) const {
  return DocumentFrequencyById(dict_->Find(gram));
}

double TfIdfModel::Idf(std::string_view gram) const {
  return IdfById(dict_->Find(gram));
}

std::unordered_map<std::string, double> TfIdfModel::WeightVector(
    std::string_view s) const {
  std::unordered_map<std::string, double> weights;
  auto profile = QGramProfile(s, q_);
  for (const auto& [gram, tf] : profile) {
    double idf = Idf(gram);
    if (idf > 0.0) weights[gram] = static_cast<double>(tf) * idf;
  }
  return weights;
}

double TfIdfModel::ScorePair(std::string_view a, std::string_view b) const {
  auto wa = WeightVector(a);
  auto wb = WeightVector(b);
  if (wb.size() < wa.size()) std::swap(wa, wb);
  double score = 0.0;
  for (const auto& [gram, w] : wa) {
    auto it = wb.find(gram);
    if (it != wb.end()) score += w * it->second;
  }
  return score;
}

double TfIdfModel::CosinePair(std::string_view a, std::string_view b) const {
  auto wa = WeightVector(a);
  auto wb = WeightVector(b);
  double dot = 0.0;
  for (const auto& [gram, w] : wa) {
    auto it = wb.find(gram);
    if (it != wb.end()) dot += w * it->second;
  }
  double na = 0.0, nb = 0.0;
  for (const auto& [gram, w] : wa) na += w * w;
  for (const auto& [gram, w] : wb) nb += w * w;
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace mcsm::text
