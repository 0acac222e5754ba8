#include "relational/postings.h"

#include <algorithm>

#include "common/check.h"
#include "text/simd.h"

namespace mcsm::relational {

namespace {

uint8_t WidthFor(uint32_t max_value) {
  if (max_value <= 0xFFu) return 1;
  if (max_value <= 0xFFFFu) return 2;
  return 4;
}

void AppendLE(std::vector<uint8_t>* out, uint32_t value, uint8_t width) {
  for (uint8_t b = 0; b < width; ++b) {
    out->push_back(static_cast<uint8_t>(value >> (8 * b)));
  }
}

}  // namespace

bool DecodePostingBlock(const PostingBlockMeta& meta, const uint8_t* data,
                        size_t data_size, uint32_t* rows, uint32_t* tfs) {
  const size_t count = meta.count;
  if (count == 0 || count > kPostingBlockSize) return false;
  const uint32_t rw = meta.row_width;
  const uint32_t tw = meta.tf_width;
  if (rw != 1 && rw != 2 && rw != 4) return false;
  if (tw != 0 && tw != 1 && tw != 2 && tw != 4) return false;
  const size_t delta_bytes = (count - 1) * rw;
  const size_t tf_bytes = tw == 0 ? 0 : count * tw;
  if (meta.offset > data_size ||
      data_size - meta.offset < delta_bytes + tf_bytes) {
    return false;
  }
  const uint8_t* payload = data + meta.offset;
  text::simd::DeltaDecode(meta.first_row, payload, count, rw, rows);
  if (tfs != nullptr) {
    if (tw == 0) {
      std::fill(tfs, tfs + count, 1u);
    } else {
      text::simd::WidenU32(payload + delta_bytes, count, tw, tfs);
    }
  }
  return true;
}

PostingStore PostingStore::Build(std::vector<std::vector<Posting>>&& lists) {
  PostingStore store;
  store.grams_.resize(lists.size());
  size_t total_postings = 0;
  size_t total_blocks = 0;
  for (const auto& list : lists) {
    total_postings += list.size();
    total_blocks += (list.size() + kPostingBlockSize - 1) / kPostingBlockSize;
  }
  store.blocks_.reserve(total_blocks);
  // Bigram deltas of real columns are overwhelmingly 1-byte with an all-ones
  // tf stream, so ~1 byte per posting; reserve 2 to avoid regrowth on the
  // occasional wide block.
  store.data_.reserve(total_postings * 2);

  for (size_t id = 0; id < lists.size(); ++id) {
    std::vector<Posting>& list = lists[id];
    GramRange& gram = store.grams_[id];
    gram.block_begin = static_cast<uint32_t>(store.blocks_.size());
    gram.count = static_cast<uint32_t>(list.size());
    for (size_t start = 0; start < list.size(); start += kPostingBlockSize) {
      const size_t n = std::min(kPostingBlockSize, list.size() - start);
      uint32_t max_delta = 0;
      uint32_t max_tf = 0;
      for (size_t i = 0; i < n; ++i) {
        const Posting& p = list[start + i];
        if (i > 0) {
          max_delta = std::max(max_delta, p.row - list[start + i - 1].row);
        }
        max_tf = std::max(max_tf, p.tf);
      }
      PostingBlockMeta meta;
      meta.first_row = list[start].row;
      meta.last_row = list[start + n - 1].row;
      meta.offset = static_cast<uint32_t>(store.data_.size());
      meta.count = static_cast<uint16_t>(n);
      meta.row_width = n > 1 ? WidthFor(max_delta) : 1;
      meta.tf_width = max_tf <= 1 ? 0 : WidthFor(max_tf);
      for (size_t i = 1; i < n; ++i) {
        AppendLE(&store.data_,
                 list[start + i].row - list[start + i - 1].row,
                 meta.row_width);
      }
      if (meta.tf_width != 0) {
        for (size_t i = 0; i < n; ++i) {
          AppendLE(&store.data_, list[start + i].tf, meta.tf_width);
        }
      }
      store.blocks_.push_back(meta);
    }
    gram.block_end = static_cast<uint32_t>(store.blocks_.size());
    // Release each source list as soon as it is encoded: peak memory stays
    // one uncompressed list above the arena, not the whole uncompressed set.
    std::vector<Posting>().swap(list);
  }
  lists.clear();
  return store;
}

std::pair<const PostingBlockMeta*, const PostingBlockMeta*>
PostingStore::Blocks(uint32_t gram_id) const {
  if (gram_id >= grams_.size()) return {nullptr, nullptr};
  const GramRange& gram = grams_[gram_id];
  const PostingBlockMeta* base = blocks_.data();
  return {base + gram.block_begin, base + gram.block_end};
}

size_t PostingStore::Decode(uint32_t gram_id, std::vector<uint32_t>* rows,
                            std::vector<uint32_t>* tfs) const {
  const uint32_t count = Count(gram_id);
  rows->resize(count);
  if (tfs != nullptr) tfs->resize(count);
  auto [block, end] = Blocks(gram_id);
  size_t at = 0;
  for (; block != end; ++block) {
    const bool ok =
        DecodePostingBlock(*block, data_.data(), data_.size(),
                           rows->data() + at,
                           tfs != nullptr ? tfs->data() + at : nullptr);
    // Encoder output always decodes; the check guards index arithmetic.
    MCSM_DCHECK(ok);
    if (!ok) break;
    at += block->count;
  }
  return at;
}

void PostingStore::Intersect(uint32_t gram_id,
                             std::vector<uint32_t>* candidates,
                             RunBudget* budget) const {
  auto [cur, end] = Blocks(gram_id);
  std::vector<uint32_t>& cand = *candidates;
  // Survivors are compacted in place: the write cursor never passes the read
  // cursor.
  size_t kept = 0;
  size_t i = 0;
  uint32_t rows[kPostingBlockSize];
  while (i < cand.size() && cur != end) {
    const uint32_t c = cand[i];
    if (cur->last_row < c) {
      // Gallop over the skip entries: exponential probe, then binary search
      // for the first block whose last row reaches the candidate. Blocks
      // ruled out by their skip entry are never decoded.
      size_t step = 1;
      const PostingBlockMeta* probe = cur;
      while (static_cast<size_t>(end - probe) > step &&
             (probe + step)->last_row < c) {
        probe += step;
        step *= 2;
      }
      const PostingBlockMeta* hi =
          static_cast<size_t>(end - probe) > step ? probe + step + 1 : end;
      cur = std::lower_bound(
          probe + 1, hi, c,
          [](const PostingBlockMeta& m, uint32_t row) {
            return m.last_row < row;
          });
      continue;  // cur == end: every later candidate exceeds the list
    }
    if (c < cur->first_row) {  // falls in a gap between blocks
      ++i;
      continue;
    }
    // At least one candidate lies inside this block: decode it once and
    // merge it with every candidate up to its last row.
    if ((budget != nullptr && !budget->ChargePostings(cur->count)) ||
        !DecodePostingBlock(*cur, data_.data(), data_.size(), rows,
                            nullptr)) {
      // Out of budget (or a malformed block): pass the tail through
      // unfiltered. Callers verify candidates exactly, so this trades
      // verification work for correctness-preserving early exit.
      kept = static_cast<size_t>(
          std::copy(cand.begin() + static_cast<ptrdiff_t>(i), cand.end(),
                    cand.begin() + static_cast<ptrdiff_t>(kept)) -
          cand.begin());
      i = cand.size();
      break;
    }
    // rows[count - 1] == last_row bounds the scan for every candidate the
    // loop admits, so `r` never runs off the block.
    const uint32_t last = cur->last_row;
    MCSM_DCHECK(rows[cur->count - 1] == last);
    size_t r = 0;
    for (; i < cand.size() && cand[i] <= last; ++i) {
      while (rows[r] < cand[i]) ++r;
      if (rows[r] == cand[i]) cand[kept++] = cand[i];
    }
  }
  cand.resize(kept);
}

size_t PostingStore::ApproxMemoryBytes() const {
  return data_.capacity() + blocks_.capacity() * sizeof(PostingBlockMeta) +
         grams_.capacity() * sizeof(GramRange);
}

}  // namespace mcsm::relational
