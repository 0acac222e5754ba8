#include "common/deadline.h"

#include <thread>

#include <gtest/gtest.h>

namespace mcsm {
namespace {

TEST(BudgetLimitsTest, DefaultIsUnlimited) {
  BudgetLimits limits;
  EXPECT_TRUE(limits.unlimited());
  limits.wall_ms = 5;
  EXPECT_FALSE(limits.unlimited());
}

TEST(RunBudgetTest, UnlimitedNeverTrips) {
  RunBudget budget;
  EXPECT_TRUE(budget.ChargePostings(1'000'000));
  EXPECT_TRUE(budget.ChargePairs(1'000'000));
  EXPECT_TRUE(budget.ChargeFormulas(1'000'000));
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_EQ(budget.trip(), BudgetTrip::kNone);
}

TEST(RunBudgetTest, CountersAccumulate) {
  RunBudget budget;
  budget.ChargePostings(10);
  budget.ChargePostings(5);
  budget.ChargePairs();
  budget.ChargeFormulas(3);
  EXPECT_EQ(budget.postings_scanned(), 15u);
  EXPECT_EQ(budget.pairs_aligned(), 1u);
  EXPECT_EQ(budget.candidate_formulas(), 3u);
}

TEST(RunBudgetTest, PostingsCapTrips) {
  BudgetLimits limits;
  limits.max_postings_scanned = 10;
  RunBudget budget(limits);
  EXPECT_TRUE(budget.ChargePostings(9));
  EXPECT_FALSE(budget.ChargePostings(5));
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_EQ(budget.trip(), BudgetTrip::kPostings);
}

TEST(RunBudgetTest, PairsCapTrips) {
  BudgetLimits limits;
  limits.max_pairs_aligned = 2;
  RunBudget budget(limits);
  EXPECT_TRUE(budget.ChargePairs(2));
  EXPECT_FALSE(budget.ChargePairs());
  EXPECT_EQ(budget.trip(), BudgetTrip::kPairs);
}

TEST(RunBudgetTest, FormulasCapTrips) {
  BudgetLimits limits;
  limits.max_candidate_formulas = 4;
  RunBudget budget(limits);
  EXPECT_TRUE(budget.ChargeFormulas(3));
  EXPECT_FALSE(budget.ChargeFormulas(3));
  EXPECT_EQ(budget.trip(), BudgetTrip::kFormulas);
}

TEST(RunBudgetTest, ExhaustionIsSticky) {
  BudgetLimits limits;
  limits.max_pairs_aligned = 1;
  RunBudget budget(limits);
  EXPECT_FALSE(budget.ChargePairs(5));
  // A later trip on another axis must not overwrite the first.
  limits.max_postings_scanned = 1;
  EXPECT_FALSE(budget.ChargePostings(5));
  EXPECT_EQ(budget.trip(), BudgetTrip::kPairs);
  EXPECT_TRUE(budget.Exhausted());
}

TEST(RunBudgetTest, WallClockDeadlineTrips) {
  RunBudget budget = RunBudget::ForMillis(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_EQ(budget.trip(), BudgetTrip::kWallClock);
}

TEST(RunBudgetTest, GenerousDeadlineDoesNotTrip) {
  RunBudget budget = RunBudget::ForMillis(60'000);
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.ChargePostings(1));
}

TEST(RunBudgetTest, ConcurrentChargingLosesNoWorkAndTripsOneAxis) {
  // The search's workers charge the shared budget concurrently: the relaxed
  // counters must still account for every unit, and the sticky CAS must
  // record exactly one tripped axis.
  BudgetLimits limits;
  limits.max_postings_scanned = 1000;
  RunBudget budget(limits);
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&budget] {
      for (int i = 0; i < kChargesPerThread; ++i) {
        (void)budget.ChargePostings(1);
        (void)budget.ChargePairs();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(budget.postings_scanned(),
            static_cast<uint64_t>(kThreads) * kChargesPerThread);
  EXPECT_EQ(budget.pairs_aligned(),
            static_cast<uint64_t>(kThreads) * kChargesPerThread);
  EXPECT_TRUE(budget.Exhausted());
  // Only the postings axis has a cap, so it must be the recorded trip no
  // matter which thread crossed it.
  EXPECT_EQ(budget.trip(), BudgetTrip::kPostings);
}

TEST(RunBudgetTest, TripNames) {
  EXPECT_STREQ(BudgetTripName(BudgetTrip::kNone), "none");
  EXPECT_STREQ(BudgetTripName(BudgetTrip::kWallClock), "wall-clock");
  EXPECT_STREQ(BudgetTripName(BudgetTrip::kPostings), "postings");
  EXPECT_STREQ(BudgetTripName(BudgetTrip::kPairs), "pairs");
  EXPECT_STREQ(BudgetTripName(BudgetTrip::kFormulas), "formulas");
}

TEST(BudgetPhaseTest, AdmitsSlotsInOrderThroughTheFirstCrossing) {
  // Slots finish in reverse order; each charges 2 pairs against a cap of 5.
  // In slot order the totals are 2, 4, 6: slot 2 crosses the cap, so slots
  // 0-2 are admitted and slot 3's work is dropped, whatever the order the
  // slots ran in.
  BudgetLimits limits;
  limits.max_pairs_aligned = 5;
  RunBudget budget(limits);
  BudgetPhase phase(&budget, 4);
  for (size_t slot = 4; slot-- > 0;) {
    phase.Run(slot, [](RunBudget* meter) {
      EXPECT_TRUE(meter->ChargePairs(2));  // alone, a slot fits the cap
    });
  }
  EXPECT_EQ(budget.pairs_aligned(), 0u);  // nothing charged before Commit
  EXPECT_EQ(phase.Commit(), 3u);
  EXPECT_EQ(budget.pairs_aligned(), 6u);
  EXPECT_EQ(budget.trip(), BudgetTrip::kPairs);
}

TEST(BudgetPhaseTest, MeterStartsFromTheRunAndSkipsDroppedSlots) {
  BudgetLimits limits;
  limits.max_candidate_formulas = 10;
  RunBudget budget(limits);
  ASSERT_TRUE(budget.ChargeFormulas(4));
  BudgetPhase phase(&budget, 3);
  // A meter starts from the run's counters: 4 + 7 crosses the cap of 10.
  phase.Run(0, [](RunBudget* meter) {
    EXPECT_EQ(meter->candidate_formulas(), 4u);
    EXPECT_FALSE(meter->ChargeFormulas(7));
    EXPECT_TRUE(meter->Exhausted());
    EXPECT_EQ(meter->trip(), BudgetTrip::kFormulas);
  });
  EXPECT_FALSE(budget.Exhausted());  // the run trips only at Commit
  // Slot 0 crossed the cap once every slot before it was done, so later
  // slots are dropped without running.
  bool ran = false;
  phase.Run(1, [&](RunBudget*) { ran = true; });
  phase.Run(2, [&](RunBudget*) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(phase.Commit(), 1u);
  EXPECT_EQ(budget.candidate_formulas(), 11u);
  EXPECT_EQ(budget.trip(), BudgetTrip::kFormulas);
}

TEST(BudgetPhaseTest, MetersSeeTheRunsCancellation) {
  RunBudget budget;
  BudgetPhase phase(&budget, 2);
  phase.Run(0, [&](RunBudget* meter) {
    EXPECT_FALSE(meter->Exhausted());
    budget.Cancel();
    EXPECT_TRUE(meter->Exhausted());
    EXPECT_FALSE(meter->ChargePostings(1));
  });
  bool ran = false;
  phase.Run(1, [&](RunBudget*) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(phase.Commit(), 2u);  // no cap crossed: both slots merge
  EXPECT_EQ(budget.trip(), BudgetTrip::kCancelled);
}

}  // namespace
}  // namespace mcsm
