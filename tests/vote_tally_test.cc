// The structural vote tally against a reference model: a map from the
// rendered key "c<col>|" + ToString() to its votes, filled vote by vote in
// merge order, which is how votes were pooled before they were tallied by
// structure. Votes are spread over slots that are tallied separately and
// merged in slot order, as the search's workers do. The universe of formulas
// includes distinct structures that render alike, so the groups they form
// must merge at rendering, under the first-seen structure's formula.

#include "core/vote_tally.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"

namespace mcsm::core {

void PrintTo(const TranslationFormula& f, std::ostream* os) {
  *os << f.ToString();
}

namespace {

/// Formulas whose renderings collide in pairs, plus ordinary ones.
std::vector<TranslationFormula> Universe() {
  return {
      TranslationFormula({Region::Literal("x\"%\"y")}),
      TranslationFormula({Region::Literal("x"), Region::Unknown(),
                          Region::Literal("y")}),
      TranslationFormula({Region::Literal("a\"B1[1-1]\"b")}),
      TranslationFormula({Region::Literal("a"), Region::Span(0, 1, 1),
                          Region::Literal("b")}),
      TranslationFormula({Region::Span(0, 1, 2), Region::Unknown()}),
      TranslationFormula({Region::SpanToEnd(0, 1), Region::Unknown()}),
      TranslationFormula({Region::Unknown(), Region::Span(1, 2, 4)}),
      TranslationFormula({Region::SizedUnknown(2), Region::Span(1, 2, 4)}),
      TranslationFormula({Region::SizedUnknown(3), Region::Span(1, 2, 4)}),
      TranslationFormula({Region::Span(10, 1, 1), Region::Literal("-"),
                          Region::SpanToEnd(2, 3)}),
      TranslationFormula({Region::Span(2, 1, 1), Region::Literal("-"),
                          Region::SpanToEnd(10, 3)}),
  };
}

struct Vote {
  size_t column;
  size_t formula;  ///< index into Universe()
  double weight;
};

std::map<std::string, FormulaVotes> ReferenceTally(
    const std::vector<Vote>& votes,
    const std::vector<TranslationFormula>& universe) {
  std::map<std::string, FormulaVotes> map;
  for (const Vote& v : votes) {
    const TranslationFormula& f = universe[v.formula];
    const std::string key = StrFormat("c%zu|", v.column) + f.ToString();
    auto it = map.find(key);
    if (it == map.end()) {
      map.emplace(key, FormulaVotes{key, f, v.column, 1, v.weight});
    } else {
      ++it->second.count;
      it->second.weighted_count += v.weight;
    }
  }
  return map;
}

TEST(VoteTallyTest, PoolsAsTheRenderedKeyMapDoes) {
  const std::vector<TranslationFormula> universe = Universe();
  // The pairs really do render alike.
  ASSERT_EQ(universe[0].ToString(), universe[1].ToString());
  ASSERT_FALSE(universe[0] == universe[1]);
  ASSERT_EQ(universe[2].ToString(), universe[3].ToString());
  ASSERT_FALSE(universe[2] == universe[3]);

  const size_t columns[] = {0, 1, 2, 10, 11};
  Rng rng(25);
  size_t merged_groups = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t slots = 1 + rng.Uniform(12);
    std::vector<std::vector<Vote>> by_slot(slots);
    std::vector<Vote> all;
    for (size_t s = 0; s < slots; ++s) {
      const size_t n = rng.Uniform(20);
      for (size_t i = 0; i < n; ++i) {
        Vote v{columns[rng.Uniform(5)], rng.Uniform(universe.size()),
               static_cast<double>(1 + rng.Uniform(9))};
        by_slot[s].push_back(v);
        all.push_back(v);
      }
    }
    VoteTally tally;
    for (const std::vector<Vote>& slot : by_slot) {
      VoteTally local;
      for (const Vote& v : slot) {
        local.Add(v.column, universe[v.formula], v.weight);
      }
      tally.Merge(std::move(local));
    }
    const size_t structures = tally.size();
    const std::vector<FormulaVotes> got = std::move(tally).Ranked();
    const std::map<std::string, FormulaVotes> want =
        ReferenceTally(all, universe);
    merged_groups += structures - got.size();

    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    size_t i = 0;
    for (const auto& [key, w] : want) {
      const FormulaVotes& g = got[i++];
      ASSERT_EQ(g.key, key) << "trial " << trial;
      EXPECT_EQ(g.formula, w.formula) << key;
      EXPECT_EQ(g.column, w.column) << key;
      EXPECT_EQ(g.count, w.count) << key;
      EXPECT_EQ(g.weighted_count, w.weighted_count) << key;
      EXPECT_EQ(g.rendering(), w.formula.ToString()) << key;
    }
  }
  // Structures that render alike met in many trials.
  EXPECT_GT(merged_groups, 300u);
}

TEST(VoteTallyTest, KeyOrderIsByRenderingNotByColumnNumber) {
  VoteTally tally;
  const TranslationFormula f({Region::Span(2, 1, 2)});
  tally.Add(2, f, 1);
  tally.Add(10, f, 1);
  tally.Add(2, f, 3);
  const std::vector<FormulaVotes> ranked = std::move(tally).Ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].key, "c10|B3[1-2]");
  EXPECT_EQ(ranked[0].count, 1u);
  EXPECT_EQ(ranked[1].key, "c2|B3[1-2]");
  EXPECT_EQ(ranked[1].count, 2u);
  EXPECT_EQ(ranked[1].weighted_count, 4.0);
}

}  // namespace
}  // namespace mcsm::core
