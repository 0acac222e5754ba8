#include "text/qgram.h"

#include <algorithm>

#include "common/check.h"
#include "text/simd.h"

namespace mcsm::text {

namespace {

/// Per-thread scratch for the frozen FindIds path (packed windows and their
/// hash buckets): query-time lookups stay zero-allocation in steady state.
struct LookupScratch {
  std::vector<uint32_t> packed;
  std::vector<uint32_t> buckets;
};

thread_local LookupScratch t_lookup;

}  // namespace

std::vector<std::string> QGrams(std::string_view s, size_t q) {
  std::vector<std::string> out;
  if (q == 0 || s.size() < q) return out;
  out.reserve(s.size() - q + 1);
  for (size_t i = 0; i + q <= s.size(); ++i) {
    out.emplace_back(s.substr(i, q));
  }
  return out;
}

std::unordered_map<std::string, int> QGramProfile(std::string_view s, size_t q) {
  std::unordered_map<std::string, int> profile;
  if (q == 0 || s.size() < q) return profile;
  for (size_t i = 0; i + q <= s.size(); ++i) {
    profile[std::string(s.substr(i, q))]++;
  }
  return profile;
}

size_t QGramCount(size_t len, size_t q) {
  if (q == 0 || len < q) return 0;
  return len - q + 1;
}

std::vector<std::string> QGramsExcluding(std::string_view s, size_t q,
                                         std::string_view excluded) {
  std::vector<std::string> out;
  if (q == 0 || s.size() < q) return out;
  for (size_t i = 0; i + q <= s.size(); ++i) {
    std::string_view gram = s.substr(i, q);
    bool clean = true;
    for (char c : gram) {
      if (excluded.find(c) != std::string_view::npos) {
        clean = false;
        break;
      }
    }
    if (clean) out.emplace_back(gram);
  }
  return out;
}

namespace {

// Packs the q bytes at s[i..i+q) into a u32 key (little-endian). Only
// equality matters to callers, so the byte order is arbitrary but fixed.
inline uint32_t PackGramKey(std::string_view s, size_t i, size_t q) {
  uint32_t packed = 0;
  for (size_t j = 0; j < q; ++j) {
    packed |= static_cast<uint32_t>(static_cast<unsigned char>(s[i + j]))
              << (8 * j);
  }
  return packed;
}

// Reusable scratch for the packed-gram fast paths below, plus a memo of the
// last `a` side: the refinement filter calls SharedQGramsMasked with one
// column's key against each kept candidate of a row in turn, so the sorted
// key profile is rebuilt once per (key, q) instead of once per call. A
// caller that alternates keys defeats the memo; summing over several keys
// is what KeyGramOverlap is for. One struct = one TLS guard per call.
struct SharedGramScratch {
  std::string last_a;
  size_t last_q = 0;
  std::vector<uint32_t> ga;
  std::vector<uint32_t> gb;

  // Returns the sorted packed grams of `a`, reusing the previous result
  // when (a, q) is unchanged.
  const std::vector<uint32_t>& SortedGramsOfA(std::string_view a, size_t q) {
    if (q == last_q && a == last_a) return ga;
    ga.clear();
    for (size_t i = 0; i + q <= a.size(); ++i) {
      ga.push_back(PackGramKey(a, i, q));
    }
    std::sort(ga.begin(), ga.end());
    last_a.assign(a.data(), a.size());
    last_q = q;
    return ga;
  }
};

thread_local SharedGramScratch t_shared_grams;

// Multiset-intersection size of two sorted key arrays: exactly
// sum_over_grams(min(count_a, count_b)), what the map-based profiles used
// to compute.
inline int SortedSharedCount(const std::vector<uint32_t>& ga,
                             const std::vector<uint32_t>& gb) {
  int shared = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < ga.size() && j < gb.size()) {
    if (ga[i] < gb[j]) {
      ++i;
    } else if (gb[j] < ga[i]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

}  // namespace

int SharedQGramsMasked(std::string_view a, std::string_view b,
                       const std::vector<bool>& b_allowed, size_t q) {
  if (q == 0 || a.size() < q || b.size() < q) return 0;
  if (q <= 4) {
    // The refinement loop (Eq.5 vote scoring) calls this tens of millions of
    // times per search on short values; packing grams into u32 keys and
    // merging two sorted arrays replaces the two per-call hash maps (and
    // their per-gram string allocations) that used to dominate whole-run
    // profiles.
    SharedGramScratch& scratch = t_shared_grams;
    const std::vector<uint32_t>& ga = scratch.SortedGramsOfA(a, q);
    std::vector<uint32_t>& gb = scratch.gb;
    gb.clear();
    for (size_t i = 0; i + q <= b.size(); ++i) {
      bool free = true;
      for (size_t j = i; j < i + q; ++j) {
        if (!b_allowed[j]) {
          free = false;
          break;
        }
      }
      if (free) gb.push_back(PackGramKey(b, i, q));
    }
    std::sort(gb.begin(), gb.end());
    return SortedSharedCount(ga, gb);
  }
  auto pa = QGramProfile(a, q);
  std::unordered_map<std::string, int> pb;
  for (size_t i = 0; i + q <= b.size(); ++i) {
    bool free = true;
    for (size_t j = i; j < i + q; ++j) {
      if (!b_allowed[j]) {
        free = false;
        break;
      }
    }
    if (free) pb[std::string(b.substr(i, q))]++;
  }
  int shared = 0;
  for (const auto& [gram, count] : pb) {
    auto it = pa.find(gram);
    if (it != pa.end()) shared += std::min(count, it->second);
  }
  return shared;
}

KeyGramOverlap::KeyGramOverlap(const std::vector<std::string_view>& keys,
                               size_t q)
    : q_(q) {
  if (q == 0) return;
  // (gram, its count in one key) for every distinct gram of every key,
  // grouped by gram with the counts ascending.
  std::vector<std::pair<std::string_view, uint32_t>> runs;
  std::vector<std::string_view> grams;
  for (std::string_view key : keys) {
    if (key.size() < q) continue;
    grams.clear();
    for (size_t i = 0; i + q <= key.size(); ++i) {
      grams.push_back(key.substr(i, q));
    }
    std::sort(grams.begin(), grams.end());
    for (size_t i = 0; i < grams.size();) {
      size_t j = i + 1;
      while (j < grams.size() && grams[j] == grams[i]) ++j;
      runs.emplace_back(grams[i], static_cast<uint32_t>(j - i));
      i = j;
    }
  }
  std::sort(runs.begin(), runs.end());
  for (size_t i = 0; i < runs.size();) {
    size_t j = i + 1;
    while (j < runs.size() && runs[j].first == runs[i].first) ++j;
    Entry entry;
    entry.first_level = static_cast<uint32_t>(levels_.size());
    entry.levels = runs[j - 1].second;
    for (uint32_t k = 1; k <= entry.levels; ++k) {
      uint32_t holders = 0;
      for (size_t r = i; r < j; ++r) holders += runs[r].second >= k ? 1 : 0;
      levels_.push_back(holders);
    }
    const uint32_t id = static_cast<uint32_t>(entries_.size());
    if (q <= 4) {
      entry.packed = PackGramKey(runs[i].first, 0, q);
    } else {
      by_view_.emplace(runs[i].first, id);
    }
    entries_.push_back(entry);
    i = j;
  }
  if (q <= 4) {
    // Load factor <= 0.5, so every miss probe ends at an empty slot.
    size_t capacity = 8;
    while (capacity < 2 * entries_.size()) capacity *= 2;
    for (size_t c = capacity; c > 1; c /= 2) --slot_shift_;
    slots_.assign(capacity, kNoEntry);
    for (uint32_t id = 0; id < entries_.size(); ++id) {
      uint32_t h = (entries_[id].packed * simd::kHashMult) >> slot_shift_;
      while (slots_[h] != kNoEntry) h = (h + 1) & (capacity - 1);
      slots_[h] = id;
    }
  }
}

uint32_t KeyGramOverlap::Find(std::string_view s, size_t i) const {
  if (q_ > 4) {
    auto it = by_view_.find(s.substr(i, q_));
    return it == by_view_.end() ? kNoEntry : it->second;
  }
  const uint32_t packed = PackGramKey(s, i, q_);
  const size_t mask = slots_.size() - 1;
  for (uint32_t h = (packed * simd::kHashMult) >> slot_shift_;;
       h = (h + 1) & mask) {
    const uint32_t id = slots_[h];
    if (id == kNoEntry || entries_[id].packed == packed) return id;
  }
}

long long KeyGramOverlap::Shared(std::span<const std::string_view> free) {
  if (entries_.empty()) return 0;
  ++call_;
  long long shared = 0;
  for (std::string_view run : free) {
    for (size_t i = 0; i + q_ <= run.size(); ++i) {
      const uint32_t id = Find(run, i);
      if (id == kNoEntry) continue;
      Entry& entry = entries_[id];
      if (entry.call != call_) {
        entry.call = call_;
        entry.seen = 0;
      }
      // The k-th occurrence adds the number of keys holding >= k copies.
      if (entry.seen < entry.levels) {
        shared += levels_[entry.first_level + entry.seen++];
      }
    }
  }
  return shared;
}

QGramDictionary::QGramDictionary(size_t q) : q_(q) {
  if (q_ == 1 || q_ == 2) direct_.assign(q_ == 1 ? 256u : 65536u, kNoGram);
}

uint32_t QGramDictionary::Add(std::string_view gram) {
  const auto id = static_cast<uint32_t>(grams_.size());
  grams_.emplace_back(gram);
  ids_.emplace(grams_.back(), id);
  return id;
}

uint32_t QGramDictionary::Intern(std::string_view gram) {
  // Every gram packs into q_ bytes: Freeze() and Find() rely on it.
  MCSM_CHECK(gram.size() == q_)
      << "interning a " << gram.size() << "-byte gram into a q=" << q_
      << " dictionary";
  auto it = ids_.find(gram);
  if (it != ids_.end()) return it->second;
  const uint32_t id = Add(gram);
  if (!direct_.empty()) {
    // q <= 2: the direct-address table takes the gram in place, so a frozen
    // dictionary stays frozen.
    direct_[Pack32(gram)] = id;
  } else if (frozen_) {
    // The open-addressing table describes a stale gram set from here on;
    // drop it. Callers re-Freeze() after their last Intern.
    frozen_ = false;
    oa_keys_.clear();
    oa_ids_.clear();
  }
  return id;
}

uint32_t QGramDictionary::Pack32(std::string_view gram) {
  uint32_t packed = 0;
  for (size_t i = 0; i < gram.size(); ++i) {
    packed |= static_cast<uint32_t>(static_cast<unsigned char>(gram[i]))
              << (8 * i);
  }
  return packed;
}

uint32_t QGramDictionary::FindPacked(uint32_t packed) const {
  if (q_ <= 2) return direct_[packed];
  uint32_t h = (packed * simd::kHashMult) >> oa_shift_;
  while (true) {
    const uint32_t id = oa_ids_[h];
    if (id == kNoGram || oa_keys_[h] == packed) return id;
    h = (h + 1) & oa_mask_;
  }
}

void QGramDictionary::Freeze() {
  frozen_ = false;
  oa_keys_.clear();
  oa_ids_.clear();
  // Every interned gram packs into q_ bytes (Intern checks its length).
  if (q_ == 0 || q_ > 4) return;
  // q <= 2: the direct-address table is already current.
  if (q_ > 2) {
    // Load factor <= 0.5 keeps linear-probe chains short and guarantees an
    // empty slot terminates every miss probe.
    size_t capacity = 16;
    while (capacity < 2 * grams_.size()) capacity *= 2;
    oa_mask_ = static_cast<uint32_t>(capacity - 1);
    oa_shift_ = 32;
    for (size_t c = capacity; c > 1; c /= 2) --oa_shift_;
    oa_keys_.assign(capacity, 0);
    oa_ids_.assign(capacity, kNoGram);
    for (uint32_t id = 0; id < grams_.size(); ++id) {
      const uint32_t packed = Pack32(grams_[id]);
      uint32_t h = (packed * simd::kHashMult) >> oa_shift_;
      while (oa_ids_[h] != kNoGram) h = (h + 1) & oa_mask_;
      oa_keys_[h] = packed;
      oa_ids_[h] = id;
    }
  }
  frozen_ = true;
}

size_t QGramDictionary::ApproxFastLookupBytes() const {
  return (direct_.capacity() + oa_keys_.capacity() + oa_ids_.capacity()) *
         sizeof(uint32_t);
}

uint32_t QGramDictionary::Find(std::string_view gram) const {
  if (frozen_) {
    // Every interned gram has length q_, so any other length cannot be
    // present.
    if (gram.size() != q_) return kNoGram;
    return FindPacked(Pack32(gram));
  }
  auto it = ids_.find(gram);
  return it == ids_.end() ? kNoGram : it->second;
}

void QGramDictionary::FindIdsFrozen(std::string_view s,
                                    std::vector<uint32_t>* out) const {
  const size_t windows = s.size() - q_ + 1;
  const size_t base = out->size();
  out->resize(base + windows);
  uint32_t* dst = out->data() + base;
  if (q_ == 2) {
    // One direct-address load per bigram; AVX2 runs 8 windows per iteration.
    simd::LookupGrams2(s, direct_.data(), dst);
    return;
  }
  if (q_ == 1) {
    for (size_t i = 0; i < windows; ++i) {
      dst[i] = direct_[static_cast<unsigned char>(s[i])];
    }
    return;
  }
  // q == 3..4: pack the windows, hash them in batch (8 per AVX2 iteration),
  // then resolve each bucket with a scalar linear probe.
  t_lookup.packed.resize(windows);
  t_lookup.buckets.resize(windows);
  for (size_t i = 0; i < windows; ++i) {
    t_lookup.packed[i] = Pack32(s.substr(i, q_));
  }
  simd::HashBatch32(t_lookup.packed.data(), windows, oa_shift_,
                    t_lookup.buckets.data());
  for (size_t i = 0; i < windows; ++i) {
    const uint32_t packed = t_lookup.packed[i];
    uint32_t h = t_lookup.buckets[i];
    while (true) {
      const uint32_t id = oa_ids_[h];
      if (id == kNoGram || oa_keys_[h] == packed) {
        dst[i] = id;
        break;
      }
      h = (h + 1) & oa_mask_;
    }
  }
}

void QGramDictionary::FindIds(std::string_view s,
                              std::vector<uint32_t>* out) const {
  if (q_ == 0 || s.size() < q_) return;
  if (frozen_) {
    FindIdsFrozen(s, out);
    return;
  }
  for (size_t i = 0; i + q_ <= s.size(); ++i) {
    out->push_back(Find(s.substr(i, q_)));
  }
}

void QGramDictionary::InternIds(std::string_view s,
                                std::vector<uint32_t>* out) {
  if (q_ == 0 || s.size() < q_) return;
  if (direct_.empty()) {
    for (size_t i = 0; i + q_ <= s.size(); ++i) {
      out->push_back(Intern(s.substr(i, q_)));
    }
    return;
  }
  // q <= 2: one direct-address load per window; only a new gram reaches the
  // hash map.
  const size_t windows = s.size() - q_ + 1;
  const size_t base = out->size();
  out->resize(base + windows);
  uint32_t* dst = out->data() + base;
  for (size_t i = 0; i < windows; ++i) {
    uint32_t packed = static_cast<unsigned char>(s[i]);
    if (q_ == 2) packed |= uint32_t{static_cast<unsigned char>(s[i + 1])} << 8;
    uint32_t& id = direct_[packed];
    if (id == kNoGram) id = Add(s.substr(i, q_));
    dst[i] = id;
  }
}

}  // namespace mcsm::text
