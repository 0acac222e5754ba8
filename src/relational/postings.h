#ifndef MCSM_RELATIONAL_POSTINGS_H_
#define MCSM_RELATIONAL_POSTINGS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/deadline.h"

namespace mcsm::relational {

/// \brief Block-compressed posting lists (DESIGN.md §11).
///
/// A posting list is the ascending sequence of (row, tf) pairs of one q-gram.
/// Instead of a `std::vector<Posting>` per gram (8 bytes per posting plus a
/// heap allocation per gram), every list is split into blocks of up to
/// kPostingBlockSize postings and serialized into one shared byte arena:
/// row ids are delta-encoded (strictly ascending, so deltas >= 1) with a
/// per-block byte width of 1, 2 or 4 chosen by the block's largest delta;
/// the tf stream is stored separately after the deltas with its own width,
/// 0 when every tf in the block is 1 (the overwhelmingly common case for
/// bigrams of short strings). Each block carries a skip entry — first/last
/// row id — so intersections can skip whole blocks without decoding, and a
/// budget-aware walk can stop between blocks.
///
/// Decoding routes through the SIMD dispatch layer (text/simd.h): widening
/// loads plus 4-lane prefix sums, bit-identical to the scalar path.

/// An inverted-index entry in decoded form: a row id and the q-gram's term
/// frequency in that row.
struct Posting {
  uint32_t row;
  uint32_t tf;
};

/// Max postings per block. 128 keeps the decode scratch (rows + tfs + double
/// contributions) around 2 KB — comfortably L1-resident.
inline constexpr size_t kPostingBlockSize = 128;

/// Skip entry + payload descriptor of one block (16 bytes).
struct PostingBlockMeta {
  uint32_t first_row;  ///< row id of the block's first posting
  uint32_t last_row;   ///< row id of the last posting — the skip key
  uint32_t offset;     ///< payload start in the arena
  uint16_t count;      ///< postings in this block (1..kPostingBlockSize)
  uint8_t row_width;   ///< bytes per delta (1/2/4); count-1 deltas
  uint8_t tf_width;    ///< bytes per tf (1/2/4), or 0 when every tf == 1
};
static_assert(sizeof(PostingBlockMeta) == 16, "keep skip entries compact");

/// Decodes one block. `rows` (and `tfs`, unless null) must have room for
/// `meta.count` entries; kPostingBlockSize always suffices for encoder
/// output. Returns false — without reading out of bounds — when the meta is
/// malformed: count of 0 or > kPostingBlockSize, a width outside {1,2,4}
/// ({0,1,2,4} for tf), or a payload extending past `data_size`. This is the
/// validated entry point the fuzz harness drives with arbitrary bytes.
bool DecodePostingBlock(const PostingBlockMeta& meta, const uint8_t* data,
                        size_t data_size, uint32_t* rows, uint32_t* tfs);

/// \brief The shared arena of every gram's compressed posting list.
///
/// Immutable after Build(); all accessors are const and thread-safe. Gram
/// ids index the same dense space as the owning ColumnIndex's dictionary.
class PostingStore {
 public:
  PostingStore() = default;

  /// Compresses `lists` (one ascending (row, tf) list per gram id). Each
  /// input list is released as soon as it is encoded, so peak memory is the
  /// uncompressed size plus one list, not twice the uncompressed size.
  static PostingStore Build(std::vector<std::vector<Posting>>&& lists);

  /// Number of gram ids (the Build() input size).
  size_t gram_count() const { return grams_.size(); }

  /// Postings in `gram_id`'s list (0 for out-of-range ids).
  uint32_t Count(uint32_t gram_id) const {
    return gram_id < grams_.size() ? grams_[gram_id].count : 0;
  }

  /// The block metas of `gram_id`'s list, as a [begin, end) pointer pair
  /// (empty for out-of-range ids or empty lists).
  std::pair<const PostingBlockMeta*, const PostingBlockMeta*> Blocks(
      uint32_t gram_id) const;

  const uint8_t* data() const { return data_.data(); }
  size_t data_size() const { return data_.size(); }

  /// Decodes `gram_id`'s whole list into `rows` / `tfs` (resized to the
  /// list's count; `tfs` may be null). Returns the number of postings.
  size_t Decode(uint32_t gram_id, std::vector<uint32_t>* rows,
                std::vector<uint32_t>* tfs) const;

  /// Keeps only the candidates present in `gram_id`'s list. `candidates`
  /// must be ascending (it stays ascending). Blocks whose skip entry rules
  /// them out are never decoded; runs of candidates between blocks gallop
  /// over the skip entries (exponential + binary search). A block holding at
  /// least one candidate is decoded once and merged with all of its
  /// candidates by two pointers. `budget`, when given, is charged per decoded
  /// block; on exhaustion the candidates from that block on are kept
  /// unfiltered — callers verify candidates exactly, so an unfiltered tail
  /// costs verification work, never correctness.
  void Intersect(uint32_t gram_id, std::vector<uint32_t>* candidates,
                 RunBudget* budget = nullptr) const;

  /// Heap bytes of the store (arena + skip entries + per-gram directory).
  size_t ApproxMemoryBytes() const;

 private:
  /// Directory entry per gram id: its block range and total posting count.
  struct GramRange {
    uint32_t block_begin = 0;
    uint32_t block_end = 0;
    uint32_t count = 0;
  };

  std::vector<GramRange> grams_;
  std::vector<PostingBlockMeta> blocks_;
  std::vector<uint8_t> data_;
};

}  // namespace mcsm::relational

#endif  // MCSM_RELATIONAL_POSTINGS_H_
