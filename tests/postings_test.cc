#include "relational/postings.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/rng.h"

namespace mcsm::relational {
namespace {

/// Deterministic synthetic list: `n` ascending rows whose gaps and tfs come
/// from the seeded engine rng, with `delta_span` controlling how wide the
/// gaps (and thus the per-block byte widths) get.
std::vector<Posting> MakeList(size_t n, uint32_t delta_span, uint32_t tf_span,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<Posting> list;
  list.reserve(n);
  uint32_t row = static_cast<uint32_t>(rng.UniformInt(0, 5));
  for (size_t i = 0; i < n; ++i) {
    list.push_back(
        {row, static_cast<uint32_t>(
                  rng.UniformInt(1, static_cast<int64_t>(tf_span)))});
    row += static_cast<uint32_t>(
        rng.UniformInt(1, static_cast<int64_t>(delta_span)));
  }
  return list;
}

std::vector<Posting> Decoded(const PostingStore& store, uint32_t gram_id) {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> tfs;
  const size_t n = store.Decode(gram_id, &rows, &tfs);
  std::vector<Posting> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back({rows[i], tfs[i]});
  return out;
}

void ExpectRoundTrip(const std::vector<Posting>& list) {
  std::vector<std::vector<Posting>> lists;
  lists.push_back(list);
  PostingStore store = PostingStore::Build(std::move(lists));
  ASSERT_EQ(store.gram_count(), 1u);
  EXPECT_EQ(store.Count(0), list.size());
  const std::vector<Posting> decoded = Decoded(store, 0);
  ASSERT_EQ(decoded.size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(decoded[i].row, list[i].row) << "at " << i;
    EXPECT_EQ(decoded[i].tf, list[i].tf) << "at " << i;
  }
}

TEST(PostingStoreTest, RoundTripAcrossBlockBoundaries) {
  // Exercise every block-boundary shape: single entry, one byte short of a
  // block, exactly one block, one over, several blocks, and a long list.
  for (size_t n : {1u, 2u, 127u, 128u, 129u, 255u, 256u, 257u, 1000u}) {
    SCOPED_TRACE(n);
    ExpectRoundTrip(MakeList(n, /*delta_span=*/3, /*tf_span=*/1, /*seed=*/n));
  }
}

TEST(PostingStoreTest, RoundTripWideDeltasAndTfs) {
  // Gaps > 255 force 2-byte deltas, > 65535 force 4-byte; tf spans force the
  // separate tf stream through each width too.
  for (uint32_t delta_span : {2u, 300u, 70000u}) {
    for (uint32_t tf_span : {1u, 2u, 300u, 70000u}) {
      SCOPED_TRACE(delta_span);
      SCOPED_TRACE(tf_span);
      ExpectRoundTrip(MakeList(500, delta_span, tf_span,
                               /*seed=*/delta_span * 7 + tf_span));
    }
  }
}

TEST(PostingStoreTest, RoundTripManyGramsSharedArena) {
  std::vector<std::vector<Posting>> lists;
  std::vector<std::vector<Posting>> expected;
  for (size_t id = 0; id < 50; ++id) {
    expected.push_back(MakeList(id * 13 % 300, /*delta_span=*/500,
                                /*tf_span=*/5, /*seed=*/id));
    lists.push_back(expected.back());
  }
  PostingStore store = PostingStore::Build(std::move(lists));
  ASSERT_EQ(store.gram_count(), expected.size());
  for (size_t id = 0; id < expected.size(); ++id) {
    SCOPED_TRACE(id);
    const std::vector<Posting> decoded =
        Decoded(store, static_cast<uint32_t>(id));
    ASSERT_EQ(decoded.size(), expected[id].size());
    for (size_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(decoded[i].row, expected[id][i].row);
      EXPECT_EQ(decoded[i].tf, expected[id][i].tf);
    }
  }
}

TEST(PostingStoreTest, AllOnesTfStreamIsElided) {
  // 200 postings with tf == 1 and unit deltas: one byte per delta and no tf
  // bytes at all, so the arena stays under 200 bytes + block overhead.
  std::vector<std::vector<Posting>> lists;
  lists.push_back(MakeList(200, /*delta_span=*/2, /*tf_span=*/1, /*seed=*/1));
  PostingStore store = PostingStore::Build(std::move(lists));
  EXPECT_LE(store.data_size(), 200u);
  const std::vector<Posting> decoded = Decoded(store, 0);
  ASSERT_EQ(decoded.size(), 200u);
  for (const Posting& p : decoded) EXPECT_EQ(p.tf, 1u);
}

TEST(DecodePostingBlockTest, RejectsMalformedMeta) {
  std::vector<uint8_t> data(64, 1);
  uint32_t rows[kPostingBlockSize];
  uint32_t tfs[kPostingBlockSize];
  PostingBlockMeta meta{};
  meta.first_row = 0;
  meta.last_row = 10;
  meta.offset = 0;
  meta.count = 8;
  meta.row_width = 1;
  meta.tf_width = 0;
  EXPECT_TRUE(DecodePostingBlock(meta, data.data(), data.size(), rows, tfs));

  PostingBlockMeta bad = meta;
  bad.count = 0;  // empty blocks are never emitted
  EXPECT_FALSE(DecodePostingBlock(bad, data.data(), data.size(), rows, tfs));
  bad = meta;
  bad.count = kPostingBlockSize + 1;
  EXPECT_FALSE(DecodePostingBlock(bad, data.data(), data.size(), rows, tfs));
  bad = meta;
  bad.row_width = 3;  // widths are 1/2/4 only
  EXPECT_FALSE(DecodePostingBlock(bad, data.data(), data.size(), rows, tfs));
  bad = meta;
  bad.tf_width = 5;
  EXPECT_FALSE(DecodePostingBlock(bad, data.data(), data.size(), rows, tfs));
  bad = meta;
  bad.offset = static_cast<uint32_t>(data.size());  // payload past the arena
  EXPECT_FALSE(DecodePostingBlock(bad, data.data(), data.size(), rows, tfs));
  bad = meta;
  bad.count = 40;
  bad.row_width = 2;  // 39 * 2 bytes > 64-byte arena
  EXPECT_FALSE(DecodePostingBlock(bad, data.data(), data.size(), rows, tfs));
  // Offset arithmetic must not wrap: a huge offset with a near-max size.
  bad = meta;
  bad.offset = 0xFFFFFFF0u;
  EXPECT_FALSE(DecodePostingBlock(bad, data.data(), data.size(), rows, tfs));
}

/// Reference intersection: candidates that appear as a row in `list`.
std::vector<uint32_t> ReferenceIntersect(const std::vector<uint32_t>& cand,
                                         const std::vector<Posting>& list) {
  std::vector<uint32_t> out;
  for (uint32_t c : cand) {
    for (const Posting& p : list) {
      if (p.row == c) {
        out.push_back(c);
        break;
      }
    }
  }
  return out;
}

TEST(PostingStoreTest, IntersectMatchesReference) {
  const std::vector<Posting> list =
      MakeList(700, /*delta_span=*/9, /*tf_span=*/1, /*seed=*/42);
  std::vector<std::vector<Posting>> lists;
  lists.push_back(list);
  PostingStore store = PostingStore::Build(std::move(lists));

  Rng rng(7);
  std::vector<uint32_t> cand;
  const uint32_t max_row = list.back().row + 10;
  for (uint32_t r = 0; r <= max_row; ++r) {
    if (rng.UniformInt(0, 3) == 0) cand.push_back(r);
  }
  const std::vector<uint32_t> expected = ReferenceIntersect(cand, list);
  store.Intersect(0, &cand);
  EXPECT_EQ(cand, expected);
}

TEST(PostingStoreTest, IntersectEmptyAndDisjoint) {
  std::vector<std::vector<Posting>> lists;
  lists.push_back({{10, 1}, {20, 1}, {30, 1}});
  lists.emplace_back();  // empty gram
  PostingStore store = PostingStore::Build(std::move(lists));

  std::vector<uint32_t> cand = {1, 2, 3};  // all below the list
  store.Intersect(0, &cand);
  EXPECT_TRUE(cand.empty());

  cand = {40, 50};  // all above
  store.Intersect(0, &cand);
  EXPECT_TRUE(cand.empty());

  cand = {10, 15, 20, 25, 30, 35};
  store.Intersect(0, &cand);
  EXPECT_EQ(cand, (std::vector<uint32_t>{10, 20, 30}));

  cand = {10, 20};
  store.Intersect(1, &cand);  // empty gram keeps nothing
  EXPECT_TRUE(cand.empty());

  cand = {10, 20};
  store.Intersect(99, &cand);  // out-of-range gram id
  EXPECT_TRUE(cand.empty());
}

TEST(PostingStoreTest, IntersectBudgetPassesTailUnfiltered) {
  // Two blocks. A budget that admits only the first block's decode must keep
  // the tail candidates unfiltered — callers verify exactly, so dropping
  // them would lose correctness, keeping them only costs work.
  std::vector<Posting> list;
  for (uint32_t r = 0; r < 128; ++r) list.push_back({r * 2, 1});  // 0..254
  for (uint32_t r = 300; r < 321; ++r) list.push_back({r, 1});    // 2nd block
  std::vector<std::vector<Posting>> lists;
  lists.push_back(list);
  PostingStore store = PostingStore::Build(std::move(lists));

  // Without a budget the second block is decoded and filters exactly.
  std::vector<uint32_t> cand = {1, 200, 290, 301, 310, 400};
  store.Intersect(0, &cand);
  EXPECT_EQ(cand, (std::vector<uint32_t>{200, 301, 310}));

  BudgetLimits limits;
  limits.max_postings_scanned = 128;  // first block fits, second trips
  RunBudget budget(limits);
  // 1 is absent (odd) and 200 present — both resolved by the first block's
  // decode; 301 and 310 fall inside the second block, whose decode the
  // budget refuses, so they pass through unfiltered.
  cand = {1, 200, 301, 310};
  store.Intersect(0, &cand, &budget);
  EXPECT_EQ(cand, (std::vector<uint32_t>{200, 301, 310}));
}

/// Intersect as it was before blocks were merged with their candidates: the
/// same gallop, then one binary search of the decoded block per candidate.
/// The merge must keep the same survivors and charge the same blocks, so
/// this copy is the model the property test holds it to. `charged`, when
/// given, receives the count of every block it charged, in order.
void PerCandidateIntersect(const PostingStore& store, uint32_t gram_id,
                           std::vector<uint32_t>* candidates,
                           RunBudget* budget,
                           std::vector<uint32_t>* charged = nullptr) {
  auto [cur, end] = store.Blocks(gram_id);
  if (cur == end) {
    candidates->clear();
    return;
  }
  std::vector<uint32_t> kept;
  uint32_t rows[kPostingBlockSize];
  const PostingBlockMeta* decoded = nullptr;
  size_t decoded_n = 0;
  const std::vector<uint32_t>& cand = *candidates;
  for (size_t i = 0; i < cand.size(); ++i) {
    const uint32_t c = cand[i];
    if (cur->last_row < c) {
      size_t step = 1;
      const PostingBlockMeta* probe = cur;
      while (static_cast<size_t>(end - probe) > step &&
             (probe + step)->last_row < c) {
        probe += step;
        step *= 2;
      }
      const PostingBlockMeta* hi =
          static_cast<size_t>(end - probe) > step ? probe + step + 1 : end;
      cur = std::lower_bound(probe + 1, hi, c,
                             [](const PostingBlockMeta& m, uint32_t row) {
                               return m.last_row < row;
                             });
      if (cur == end) break;
    }
    if (c < cur->first_row) continue;
    if (decoded != cur) {
      if (charged != nullptr) charged->push_back(cur->count);
      if (budget != nullptr && !budget->ChargePostings(cur->count)) {
        kept.insert(kept.end(), cand.begin() + static_cast<ptrdiff_t>(i),
                    cand.end());
        break;
      }
      if (!DecodePostingBlock(*cur, store.data(), store.data_size(), rows,
                              nullptr)) {
        kept.insert(kept.end(), cand.begin() + static_cast<ptrdiff_t>(i),
                    cand.end());
        break;
      }
      decoded = cur;
      decoded_n = cur->count;
    }
    if (std::binary_search(rows, rows + decoded_n, c)) kept.push_back(c);
  }
  *candidates = kept;
}

TEST(PostingStoreTest, IntersectMatchesPerCandidateModel) {
  Rng rng(2025);
  size_t cases = 0;
  size_t gap_candidates = 0;
  size_t budget_cuts = 0;
  std::vector<size_t> sizes = {1, 2, 127, 128, 129, 255, 256, 257, 1000};
  for (int extra = 0; extra < 24; ++extra) {
    sizes.push_back(static_cast<size_t>(rng.UniformInt(1, 1000)));
  }
  for (size_t n : sizes) {
    for (uint32_t delta_span : {1u, 3u, 40u, 300u}) {
      const std::vector<Posting> list =
          MakeList(n, delta_span, /*tf_span=*/2, /*seed=*/n * 31 + delta_span);
      std::vector<std::vector<Posting>> lists;
      lists.push_back(list);
      const PostingStore store = PostingStore::Build(std::move(lists));
      auto [blocks, blocks_end] = store.Blocks(0);
      const uint32_t universe = list.back().row + 50;
      for (double density : {0.001, 0.01, 0.1, 0.5, 1.0}) {
        std::vector<uint32_t> cand;
        for (uint32_t r = 0; r <= universe; ++r) {
          if (density >= 1.0 || rng.UniformDouble() < density) {
            cand.push_back(r);
          }
        }
        // Candidates in the gaps between blocks: their skip entries rule
        // them out without a decode.
        for (const PostingBlockMeta* b = blocks; b + 1 < blocks_end; ++b) {
          if (b->last_row + 1 < (b + 1)->first_row) {
            cand.push_back(b->last_row + 1);
            ++gap_candidates;
          }
        }
        std::sort(cand.begin(), cand.end());
        cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " delta_span=" << delta_span
                     << " density=" << density);

        std::vector<uint32_t> want = cand;
        std::vector<uint32_t> charged;
        PerCandidateIntersect(store, 0, &want, nullptr, &charged);
        std::vector<uint32_t> got = cand;
        store.Intersect(0, &got);
        ASSERT_EQ(got, want);
        ++cases;

        // A budget that runs out at each charged block in turn: one posting
        // is spent up front, so a limit of 1 refuses the first block.
        uint64_t admitted = 1;
        for (size_t k = 0; k <= charged.size(); ++k) {
          BudgetLimits limits;
          limits.max_postings_scanned = admitted;
          RunBudget want_budget(limits);
          RunBudget got_budget(limits);
          ASSERT_TRUE(want_budget.ChargePostings(1));
          ASSERT_TRUE(got_budget.ChargePostings(1));
          want = cand;
          PerCandidateIntersect(store, 0, &want, &want_budget);
          got = cand;
          store.Intersect(0, &got, &got_budget);
          ASSERT_EQ(got, want) << "budget cut at charged block " << k;
          ASSERT_EQ(got_budget.postings_scanned(),
                    want_budget.postings_scanned())
              << "budget cut at charged block " << k;
          ASSERT_EQ(got_budget.Exhausted(), k < charged.size());
          if (k < charged.size()) {
            admitted += charged[k];
            ++budget_cuts;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 600u);
  EXPECT_GT(gap_candidates, 1000u);
  EXPECT_GT(budget_cuts, 2000u);
}

TEST(PostingStoreTest, ApproxMemoryBytesCoversArena) {
  std::vector<std::vector<Posting>> lists;
  lists.push_back(MakeList(1000, /*delta_span=*/3, /*tf_span=*/1, 3));
  PostingStore store = PostingStore::Build(std::move(lists));
  EXPECT_GE(store.ApproxMemoryBytes(), store.data_size());
  // ~1 byte per posting plus 16-byte metas: far below the 8-byte Posting.
  EXPECT_LT(store.ApproxMemoryBytes(), 1000 * sizeof(Posting));
}

}  // namespace
}  // namespace mcsm::relational
