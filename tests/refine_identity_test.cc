// Identity pins for refinement: four small discoveries whose refinement
// retrieves more pattern candidates than SearchOptions::max_pattern_rows
// admits, so the record-linkage ranking decides which candidates vote. Each
// case pins what the run produced when the pins were recorded: the formula,
// its coverage, the SearchStats counters, and FNV-1a hashes of the sorted
// canonical trace ids and of the explain text. A change to the ranking (or
// anything upstream of it) that moves any output fails here, at every
// thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace.h"
#include "core/explain.h"
#include "core/matcher.h"
#include "datagen/datasets.h"

namespace mcsm::core {
namespace {

uint64_t Fnv1a64(std::string_view bytes,
                 uint64_t hash = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct Pin {
  std::string name;
  datagen::Dataset (*make)();
  bool detect_separators;
  // Expected outputs.
  std::string formula;
  size_t matched_rows;
  size_t pairs_scored;
  size_t recipes_built;
  size_t formulas_considered;
  size_t postings_scanned;
  size_t iterations;
  size_t pattern_rows;       ///< pattern_candidates events
  size_t pattern_rows_over;  ///< ... whose value exceeds max_pattern_rows
  size_t trace_events;
  uint64_t trace_hash;
  uint64_t explain_hash;
};

datagen::Dataset Time1500() {
  datagen::TimeOptions o;
  o.rows = 1500;
  o.seed = 2;
  return datagen::MakeTimeDataset(o);
}

datagen::Dataset Part800() {
  datagen::PartNumberOptions o;
  o.rows = 800;
  o.seed = 3;
  return datagen::MakePartNumberDataset(o);
}

datagen::Dataset Date2000() {
  datagen::DateFormatOptions o;
  o.rows = 2000;
  o.seed = 2;
  return datagen::MakeDateFormatDataset(o);
}

// The family perfbench's fullname workload measures, at a size where most
// sampled rows retrieve more candidates than the cap admits.
datagen::Dataset MergedNames10000() {
  datagen::MergedNamesOptions o;
  o.rows = 10000;
  o.distinct_names = 300;
  o.seed = 7;
  return datagen::MakeMergedNamesDataset(o);
}

const std::vector<Pin>& Pins() {
  static const std::vector<Pin> pins = {
      {"time_1500_seed2", &Time1500, false, "hrs[1-2]mins[1-2]secs[1-2]",
       1500, 160, 11853, 14728, 45159, 2, 300, 150, 13709,
       0x2cc852039a868efeull, 0xca78391187516444ull},
      {"part_800_seed3", &Part800, true,
       "plant[1-3]\"-\"serial[1-5]\"-\"year[1-4]", 800, 96, 8872, 11007,
       156165, 2, 160, 80, 10367, 0x54bb61fd1120adbaull,
       0xca3b6ba35af8d20full},
      {"date_2000_seed2", &Date2000, true,
       "date[6-7]\"/\"date[9-10]\"/\"date[1-4]", 2000, 1560, 13027, 14488,
       513058, 1, 200, 5, 15004, 0xcdb7d204e48ec4b3ull,
       0x167a9e2a66ba7755ull},
      {"merged_names_10000_seed7", &MergedNames10000, false,
       "first[1-n]last[1-n]", 10000, 240, 77078, 84704, 1915654, 1, 1000, 641,
       84530, 0xf3f632254509ab93ull, 0x117a1000b29ace09ull},
  };
  return pins;
}

struct PinCase {
  size_t pin;
  size_t threads;
};

// Names each case by its values: ctest takes the test names from it.
void PrintTo(const PinCase& c, std::ostream* os) {
  *os << Pins()[c.pin].name << " at " << c.threads << " threads";
}

class RefineIdentityTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(RefineIdentityTest, MatchesRecordedRun) {
  const Pin& pin = Pins()[GetParam().pin];
  datagen::Dataset data = pin.make();
  InMemoryTraceSink sink;
  SearchOptions options;
  options.detect_separators = pin.detect_separators;
  options.num_threads = GetParam().threads;
  options.env.trace = &sink;
  auto d = DiscoverTranslation(data.source, data.target, data.target_column,
                               options);
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_FALSE(d->truncated());

  const std::vector<TraceEvent> events = sink.CanonicalEvents();
  uint64_t trace_hash = Fnv1a64("");
  size_t pattern_rows = 0;
  size_t pattern_rows_over = 0;
  for (const TraceEvent& event : events) {
    trace_hash = Fnv1a64(event.Id(), trace_hash);
    trace_hash = Fnv1a64("\n", trace_hash);
    if (event.phase == "refine" && event.name == "pattern_candidates") {
      ++pattern_rows;
      if (event.value > static_cast<double>(options.max_pattern_rows)) {
        ++pattern_rows_over;
      }
    }
  }
  const uint64_t explain_hash = Fnv1a64(ExplainText(events));
  const SearchStats& stats = d->search.stats;

  // The ranking must actually decide something in every pinned case.
  EXPECT_GT(pattern_rows_over, 0u);

  EXPECT_EQ(d->formula().ToString(data.source.schema()), pin.formula);
  EXPECT_EQ(d->coverage.matched_rows(), pin.matched_rows);
  EXPECT_EQ(stats.pairs_scored, pin.pairs_scored);
  EXPECT_EQ(stats.recipes_built, pin.recipes_built);
  EXPECT_EQ(stats.formulas_considered, pin.formulas_considered);
  EXPECT_EQ(stats.postings_scanned, pin.postings_scanned);
  EXPECT_EQ(stats.iteration_seconds.size(), pin.iterations);
  EXPECT_EQ(pattern_rows, pin.pattern_rows);
  EXPECT_EQ(pattern_rows_over, pin.pattern_rows_over);
  EXPECT_EQ(events.size(), pin.trace_events);
  EXPECT_EQ(trace_hash, pin.trace_hash);
  EXPECT_EQ(explain_hash, pin.explain_hash);
  if (HasFailure()) {
    ADD_FAILURE() << "observed: {\"" << pin.name << "\", ..., \""
                  << d->formula().ToString(data.source.schema()) << "\", "
                  << d->coverage.matched_rows() << ", " << stats.pairs_scored
                  << ", " << stats.recipes_built << ", "
                  << stats.formulas_considered << ", "
                  << stats.postings_scanned << ", "
                  << stats.iteration_seconds.size() << ", " << pattern_rows
                  << ", " << pattern_rows_over << ", " << events.size()
                  << ", 0x" << std::hex << trace_hash << "ull, 0x"
                  << explain_hash << "ull}";
  }
}

std::vector<PinCase> AllCases() {
  std::vector<PinCase> cases;
  for (size_t pin = 0; pin < Pins().size(); ++pin) {
    for (size_t threads : {1, 4}) cases.push_back({pin, threads});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Pins, RefineIdentityTest,
                         ::testing::ValuesIn(AllCases()));

}  // namespace
}  // namespace mcsm::core
