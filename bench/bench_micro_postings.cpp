// Micro-benchmarks (google-benchmark) for the block-compressed posting
// layer and the SIMD q-gram kernels behind it (DESIGN.md §11): building the
// store from Zipfian lists, whole-list block decoding, galloping
// intersection at several candidate densities and in the shape refinement
// runs it, frozen-dictionary batched
// lookups, and the rarest-first similarity retrieval they feed. Run with
// MCSM_SIMD_LEVEL=scalar|sse42|avx2 to compare dispatch tiers on the same
// binary.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relational/column_index.h"
#include "relational/postings.h"
#include "relational/table.h"
#include "text/qgram.h"
#include "text/simd.h"

namespace {

using namespace mcsm;
using relational::kPostingBlockSize;
using relational::Posting;
using relational::PostingStore;

/// Zipfian posting lists over `universe` rows: gram 0 is the most common
/// (appears in ~universe/2 rows), frequencies decay as 1/(rank+1). This is
/// the shape real bigram lists take on the paper's datasets.
std::vector<std::vector<Posting>> ZipfianLists(size_t grams, size_t universe,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Posting>> lists(grams);
  for (size_t g = 0; g < grams; ++g) {
    const double p = 0.5 / static_cast<double>(g + 1);
    std::vector<Posting>& list = lists[g];
    for (size_t row = 0; row < universe; ++row) {
      if (rng.UniformDouble() < p) {
        list.push_back({static_cast<uint32_t>(row),
                        rng.UniformInt(0, 9) == 0 ? 2u : 1u});
      }
    }
  }
  return lists;
}

void BM_PostingStoreBuild(benchmark::State& state) {
  const size_t universe = static_cast<size_t>(state.range(0));
  const auto lists = ZipfianLists(64, universe, 101);
  size_t postings = 0;
  for (const auto& l : lists) postings += l.size();
  for (auto _ : state) {
    auto copy = lists;
    PostingStore store = PostingStore::Build(std::move(copy));
    benchmark::DoNotOptimize(store.data_size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(postings) *
                          state.iterations());
}
BENCHMARK(BM_PostingStoreBuild)->Range(4096, 65536);

void BM_PostingStoreDecode(benchmark::State& state) {
  const size_t universe = static_cast<size_t>(state.range(0));
  PostingStore store = PostingStore::Build(ZipfianLists(64, universe, 102));
  std::vector<uint32_t> rows;
  std::vector<uint32_t> tfs;
  size_t postings = 0;
  for (auto _ : state) {
    postings = 0;
    for (uint32_t g = 0; g < 64; ++g) {
      postings += store.Decode(g, &rows, &tfs);
    }
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(postings) *
                          state.iterations());
}
BENCHMARK(BM_PostingStoreDecode)->Range(4096, 65536);

void BM_PostingStoreIntersect(benchmark::State& state) {
  // Intersect the rarest list's rows against a denser list — the
  // RowsMatchingPattern shape. range(0) controls the candidate density the
  // galloping search has to survive: sparse candidates skip whole blocks,
  // dense ones decode nearly all of them.
  const size_t universe = 65536;
  PostingStore store = PostingStore::Build(ZipfianLists(64, universe, 103));
  const size_t stride = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> seed_cand;
  for (size_t row = 0; row < universe; row += stride) {
    seed_cand.push_back(static_cast<uint32_t>(row));
  }
  std::vector<uint32_t> cand;
  for (auto _ : state) {
    cand = seed_cand;
    store.Intersect(0, &cand);  // gram 0: the densest list
    benchmark::DoNotOptimize(cand.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(seed_cand.size()) *
                          state.iterations());
}
BENCHMARK(BM_PostingStoreIntersect)->Arg(2)->Arg(16)->Arg(256);

void BM_Intersect(benchmark::State& state) {
  // Shaped like fullname refinement (200,000 rows): a call intersects about
  // 4,000 ascending candidates, the rows of the literal's rarest gram, with
  // a longer list. range(0) picks that list from the Zipfian set: gram g
  // holds about 200,000 * 0.5 / (g + 1) rows, so 1, 9 and 39 give lists of
  // about 50,000, 10,000 and 2,500 postings.
  const size_t universe = 200000;
  PostingStore store = PostingStore::Build(ZipfianLists(40, universe, 107));
  const uint32_t gram = static_cast<uint32_t>(state.range(0));
  Rng rng(108);
  std::vector<uint32_t> seed_cand;
  for (size_t row = 0; row < universe; ++row) {
    if (rng.UniformInt(0, 49) == 0) {
      seed_cand.push_back(static_cast<uint32_t>(row));
    }
  }
  std::vector<uint32_t> cand;
  for (auto _ : state) {
    cand = seed_cand;
    store.Intersect(gram, &cand);
    benchmark::DoNotOptimize(cand.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(seed_cand.size()) *
                          state.iterations());
}
BENCHMARK(BM_Intersect)->Arg(1)->Arg(9)->Arg(39);

/// A synthetic name column for the end-to-end retrieval benchmarks.
relational::Table NameTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> first = {"alice", "bob",   "carol", "dave",
                                          "erin",  "frank", "grace", "heidi"};
  const std::vector<std::string> last = {"smith", "jones",  "brown",
                                         "davis", "miller", "wilson"};
  relational::Table t = relational::Table::WithTextColumns({"name"});
  for (size_t i = 0; i < rows; ++i) {
    std::string v = rng.Choice(first);
    v += " ";
    v += rng.Choice(last);
    v += std::to_string(rng.UniformInt(0, 999));
    if (!t.AppendTextRow({v}).ok()) break;
  }
  return t;
}

void BM_FrozenFindIds(benchmark::State& state) {
  relational::Table t = NameTable(20000, 104);
  relational::ColumnIndex::Options o;
  o.build_postings = true;
  relational::ColumnIndex idx(t, 0, o);
  const text::QGramDictionary& dict = idx.tfidf().dictionary();
  const std::string key = "alice miller842";
  std::vector<uint32_t> ids;
  size_t grams = 0;
  for (auto _ : state) {
    ids.clear();
    dict.FindIds(key, &ids);
    grams += ids.size();
    benchmark::DoNotOptimize(ids.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(grams));
}
BENCHMARK(BM_FrozenFindIds);

void BM_SimilarRows(benchmark::State& state) {
  relational::Table t = NameTable(static_cast<size_t>(state.range(0)), 105);
  relational::ColumnIndex::Options o;
  o.build_postings = true;
  relational::ColumnIndex idx(t, 0, o);
  for (auto _ : state) {
    auto rows = idx.SimilarRows("carol jones17", 0.0, 10);
    benchmark::DoNotOptimize(rows.data());
  }
}
BENCHMARK(BM_SimilarRows)->Range(4096, 65536);

void BM_RowsMatchingPattern(benchmark::State& state) {
  relational::Table t = NameTable(static_cast<size_t>(state.range(0)), 106);
  relational::ColumnIndex::Options o;
  o.build_postings = true;
  relational::ColumnIndex idx(t, 0, o);
  const auto pattern = relational::SearchPattern::FromLikeString("%wilson%");
  for (auto _ : state) {
    auto matches = idx.RowsMatchingPattern(pattern);
    benchmark::DoNotOptimize(matches.rows().data());
  }
}
BENCHMARK(BM_RowsMatchingPattern)->Range(4096, 65536);

}  // namespace

BENCHMARK_MAIN();
