#ifndef MCSM_TEXT_QGRAM_H_
#define MCSM_TEXT_QGRAM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mcsm::text {

/// \brief q-gram utilities (Ukkonen, "Approximate string-matching with
/// q-grams and maximal matches").
///
/// A string of length n has n-q+1 q-grams; strings shorter than q have none.
/// The paper uses bi-grams (q=2) throughout but the library is generic in q.

/// Returns the list of q-grams of `s`, in order, with multiplicity.
std::vector<std::string> QGrams(std::string_view s, size_t q);

/// Returns the q-gram profile of `s`: q-gram -> occurrence count.
std::unordered_map<std::string, int> QGramProfile(std::string_view s, size_t q);

/// Returns the number of q-grams in a string of length `len` (0 if len < q).
size_t QGramCount(size_t len, size_t q);

/// Returns q-grams of `s` that contain no character from `excluded`.
/// Used when a separator template is active: search keys must not contain
/// separator characters (Section 6.1).
std::vector<std::string> QGramsExcluding(std::string_view s, size_t q,
                                         std::string_view excluded);

/// Returns the number of q-grams of `b` lying entirely within positions
/// where `b_allowed` is true (`b_allowed.size() == b.size()`) that `a`
/// shares, counting multiplicity (the min of the two profiles, summed). Used
/// by the refinement filter: the key must share material with the
/// *unexplained* portion of the target instance.
int SharedQGramsMasked(std::string_view a, std::string_view b,
                       const std::vector<bool>& b_allowed, size_t q);

/// \brief The q-grams of a set of keys (one per source column), laid out so
/// that their summed overlap with one string takes one pass over its grams.
///
/// For each distinct gram g of the keys, level(g, k) counts the keys that
/// hold g at least k times. As min(a, b) = #{k <= b : a >= k}, adding
/// level(g, k) for the k-th occurrence of g in a string gives, summed over
/// the keys, min(count in key, count in string): the sum over the keys of
/// SharedQGramsMasked, scanning only the string's free stretches. Keys
/// shorter than q hold no gram. Exact for every q >= 1: grams of up to 4
/// bytes are probed packed, longer ones by view, so the keys' bytes must
/// then outlive the table. Not thread-safe (Shared() keeps per-call
/// occurrence counts); build one per worker.
class KeyGramOverlap {
 public:
  KeyGramOverlap(const std::vector<std::string_view>& keys, size_t q);

  /// Sum over the keys of SharedQGramsMasked(key, b, mask, q), where `free`
  /// holds the maximal runs of b on which the mask is true, in any order.
  long long Shared(std::span<const std::string_view> free);

 private:
  static constexpr uint32_t kNoEntry = 0xFFFFFFFFu;

  struct Entry {
    uint32_t packed = 0;       ///< the gram, packed (q <= 4)
    uint32_t first_level = 0;  ///< level(g, k) is levels_[first_level + k - 1]
    uint32_t levels = 0;       ///< the largest count of g in one key
    uint32_t seen = 0;         ///< occurrences in the current Shared() call
    uint32_t call = 0;         ///< the call `seen` belongs to
  };

  /// Entry of the gram at s[i, i + q), or kNoEntry.
  uint32_t Find(std::string_view s, size_t i) const;

  size_t q_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> levels_;
  /// q <= 4: linear-probed slots of entry ids, bucket = multiply-shift hash
  /// of the packed gram (simd::kHashMult, shift slot_shift_).
  std::vector<uint32_t> slots_;
  uint32_t slot_shift_ = 32;
  /// q > 4: gram view -> entry id.
  std::unordered_map<std::string_view, uint32_t> by_view_;
  uint32_t call_ = 0;
};

/// \brief Interning dictionary: q-gram string <-> dense uint32_t id.
///
/// Built once per column index / tf-idf model. Interning turns every hot
/// per-gram statistic (df, idf, postings) into a flat vector indexed by id,
/// and every later lookup into one transparent hash probe with no string
/// allocation. Ids are dense and handed out in first-seen order. Not
/// thread-safe for Intern; Find and the accessors are read-only and safe to
/// share across threads once building is done.
///
/// Bigrams and unigrams (q <= 2; the paper uses q = 2 throughout) also get a
/// direct-address table over the gram bytes packed into a uint32, kept
/// current from construction on: InternIds resolves each window with one
/// load and touches the hash map only for a new gram. After interning,
/// Freeze() switches lookups to the flat tables: the direct-address table
/// for q <= 2 (one load per probe, no hashing at all), and for 3- and
/// 4-grams a linear-probed open-addressing table it builds over the packed
/// grams. Frozen FindIds dispatches to the batched SIMD kernels in
/// text/simd.h (8-16 grams per iteration); the results are bit-identical to
/// the hash-map path at every dispatch tier.
class QGramDictionary {
 public:
  /// Sentinel id for grams that were never interned.
  static constexpr uint32_t kNoGram = 0xFFFFFFFFu;

  explicit QGramDictionary(size_t q);

  size_t q() const { return q_; }
  /// Number of distinct grams interned so far (ids are 0..size()-1).
  size_t size() const { return grams_.size(); }

  /// Id of `gram`, interning it if new. `gram` must be q bytes long
  /// (checked). A new gram invalidates a prior Freeze(), except for q <= 2:
  /// the direct-address table takes it in place.
  uint32_t Intern(std::string_view gram);

  /// Id of `gram`, or kNoGram when it was never interned. No allocation.
  uint32_t Find(std::string_view gram) const;

  /// The gram spelled by `id` (requires id < size()).
  std::string_view gram(uint32_t id) const { return grams_[id]; }

  /// Appends the ids of s's q-grams, in order and with multiplicity, to
  /// `out`; grams never interned appear as kNoGram.
  void FindIds(std::string_view s, std::vector<uint32_t>* out) const;

  /// As FindIds but interning, so no kNoGram entries are produced. For
  /// q <= 2 each window costs one direct-address load (a new gram also one
  /// hash-map insert); larger q probe the hash map per window.
  void InternIds(std::string_view s, std::vector<uint32_t>* out);

  /// Switches Find/FindIds to the flat fast-lookup tables for the current
  /// gram set, building the open-addressing table for q == 3..4. Call once
  /// after the last Intern (ColumnIndex / TfIdfModel construction does).
  /// No-op for q == 0 or q > 4: lookups then stay on the hash map, with
  /// identical results.
  void Freeze();

  /// True when Find/FindIds run on the flat tables (after Freeze, until the
  /// next Intern that invalidates it).
  bool frozen() const { return frozen_; }

  /// Heap bytes of the flat lookup tables. Counted by
  /// ColumnIndex::ApproxMemoryBytes so cache charges follow the layout.
  size_t ApproxFastLookupBytes() const;

 private:
  /// `gram` packed little-endian into a uint32 (requires gram.size() <= 4).
  static uint32_t Pack32(std::string_view gram);

  /// Appends `gram` (known to be new) to the id space and the hash map;
  /// returns its id.
  uint32_t Add(std::string_view gram);

  /// Fast-path probe of a packed gram (requires frozen_).
  uint32_t FindPacked(uint32_t packed) const;

  /// Batched frozen FindIds over the windows of `s` (requires frozen_).
  void FindIdsFrozen(std::string_view s, std::vector<uint32_t>* out) const;

  /// Heterogeneous hashing so std::string keys can be probed with a
  /// string_view (C++20 transparent lookup) — the whole point of the class.
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  size_t q_;
  std::vector<std::string> grams_;
  std::unordered_map<std::string, uint32_t, TransparentHash, std::equal_to<>>
      ids_;
  /// Fast-lookup state:
  /// q <= 2 — direct_[packed gram] = id (256 or 65536 entries), current at
  /// all times (kNoGram marks grams not interned);
  /// q == 3..4 — linear-probed table, valid while frozen_: slot h holds
  /// (oa_keys_[h], oa_ids_[h]), empty slots marked by oa_ids_[h] == kNoGram,
  /// bucket = multiply-shift hash of the packed gram (simd::kHashMult, shift
  /// oa_shift_).
  bool frozen_ = false;
  std::vector<uint32_t> direct_;
  std::vector<uint32_t> oa_keys_;
  std::vector<uint32_t> oa_ids_;
  uint32_t oa_mask_ = 0;
  uint32_t oa_shift_ = 0;
};

}  // namespace mcsm::text

#endif  // MCSM_TEXT_QGRAM_H_
