// PlanMemo's two reuse proofs and its accounting (select/plan_memo.h):
// a cached plan is returned only for a bit-equal instance (exact hit) or
// through the dominance fix-up for a provably-empty optimum; every
// constructed near-miss — same key, different reachable set — must take
// the exact fallback. Hashes only route to buckets; these tests steer keys
// through geometry, never through hash values.
#include "select/plan_memo.h"

#include <gtest/gtest.h>

#include <vector>

namespace mcs::select {
namespace {

// One round's open tasks: three candidates clustered far in the upper-right
// of the area, so every start point inside the origin cell [0,250)^2 is
// "closer/farther" from all of them monotonically along the diagonal.
const std::vector<Candidate>& round_tasks() {
  static const std::vector<Candidate> tasks = {
      {TaskId{0}, {2000.0, 2000.0}, 2.0},
      {TaskId{1}, {2200.0, 1900.0}, 3.0},
      {TaskId{2}, {1900.0, 2300.0}, 1.5},
  };
  return tasks;
}

// An instance listing the given task rows, ascending — the simulator's
// candidate order.
SelectionInstance make_inst(const std::vector<std::size_t>& rows,
                            geo::Point start, Seconds budget) {
  SelectionInstance inst;
  inst.start = start;
  inst.travel = geo::TravelModel{2.0, 0.002};
  inst.time_budget = budget;
  for (const std::size_t row : rows) {
    inst.candidates.push_back(round_tasks()[row]);
  }
  return inst;
}

Selection make_plan() {
  Selection s;
  s.order = {TaskId{1}, TaskId{0}};
  s.distance = 3100.0;
  s.reward = 5.0;
  s.cost = 6.2;
  return s;
}

TEST(PlanMemo, ExactHitCopiesTheOwnersPlan) {
  PlanMemoParams p;
  p.enabled = true;
  PlanMemo memo(p);
  memo.begin_table();

  const SelectionInstance owner = make_inst({0, 1}, {100.0, 100.0},
                                            3000.0);
  const PlanMemo::Ticket t0 = memo.classify(owner, /*exact_limit=*/14);
  ASSERT_EQ(t0.outcome, PlanMemo::Outcome::kOwner);
  ASSERT_NE(t0.entry, PlanMemo::kNoEntry);
  EXPECT_EQ(memo.stats().misses, 1);

  memo.publish(t0, make_plan(), /*feasible=*/true);

  // A bit-equal instance (another user at the same POI, same budget, same
  // contributed set) gets the cached plan verbatim.
  const SelectionInstance probe = make_inst({0, 1}, {100.0, 100.0},
                                            3000.0);
  const PlanMemo::Ticket t1 = memo.classify(probe, 14);
  ASSERT_EQ(t1.outcome, PlanMemo::Outcome::kExactHit);
  const Selection& cached = memo.cached_plan(t1);
  EXPECT_EQ(cached.order, make_plan().order);
  EXPECT_EQ(cached.distance, make_plan().distance);
  EXPECT_EQ(cached.reward, make_plan().reward);
  EXPECT_EQ(cached.cost, make_plan().cost);
  EXPECT_TRUE(memo.cached_feasible(t1));
  EXPECT_EQ(memo.stats().exact_hits, 1);
  EXPECT_EQ(memo.stats().misses, 1);
}

TEST(PlanMemo, DifferentIncludedSubsetIsAMiss) {
  PlanMemo memo({});
  memo.begin_table();

  const PlanMemo::Ticket a =
      memo.classify(make_inst({0, 1}, {100.0, 100.0}, 3000.0), 14);
  memo.publish(a, make_plan(), true);
  // Same start, same budget — but this user already contributed to task 1,
  // so its included subset differs. Must not hit.
  const PlanMemo::Ticket b =
      memo.classify(make_inst({0, 2}, {100.0, 100.0}, 3000.0), 14);
  EXPECT_EQ(b.outcome, PlanMemo::Outcome::kOwner);
  EXPECT_EQ(memo.stats().exact_hits, 0);
  EXPECT_EQ(memo.stats().misses, 2);
}

TEST(PlanMemo, RepricedCandidateDegradesToAMiss) {
  PlanMemo memo({});
  memo.begin_table();

  const PlanMemo::Ticket a =
      memo.classify(make_inst({0, 1}, {100.0, 100.0}, 3000.0), 14);
  memo.publish(a, make_plan(), true);

  // Same geometry, different published reward: prices are part of the
  // verification, so the memo must refuse the cached plan.
  SelectionInstance repriced = make_inst({0, 1}, {100.0, 100.0},
                                         3000.0);
  repriced.candidates[0].reward = 99.0;
  const PlanMemo::Ticket b = memo.classify(repriced, 14);
  EXPECT_EQ(b.outcome, PlanMemo::Outcome::kOwner);
  EXPECT_EQ(memo.stats().exact_hits, 0);

  // Same candidates and rewards under a different travel model: the travel
  // cost is re-verified too.
  SelectionInstance pricier = make_inst({0, 1}, {100.0, 100.0}, 3000.0);
  pricier.travel.cost_per_meter = 0.004;
  const PlanMemo::Ticket c = memo.classify(pricier, 14);
  EXPECT_EQ(c.outcome, PlanMemo::Outcome::kOwner);
  EXPECT_EQ(memo.stats().exact_hits, 0);
}

TEST(PlanMemo, DominanceFixupProvesTheEmptyPlan) {
  PlanMemo memo({});
  memo.begin_table();

  // Owner at (240,240): the closest point of the origin cell to the
  // cluster. Tiny budget => exact solver returns the empty tour.
  const SelectionInstance owner =
      make_inst({0, 1, 2}, {240.0, 240.0}, 60.0);
  const PlanMemo::Ticket t0 = memo.classify(owner, 14);
  ASSERT_EQ(t0.outcome, PlanMemo::Outcome::kOwner);
  memo.publish(t0, Selection{}, /*feasible=*/true);

  // Prober at (10,10), same cell and budget bucket, strictly farther from
  // every candidate, budget no larger: every tour it could afford, the
  // owner could afford at no higher cost — its optimum is empty too.
  const SelectionInstance probe =
      make_inst({0, 1, 2}, {10.0, 10.0}, 60.0);
  PlanMemo::Ticket t1 = memo.classify(probe, 14);
  ASSERT_EQ(t1.outcome, PlanMemo::Outcome::kPending);
  const Selection* plan = nullptr;
  ASSERT_TRUE(memo.resolve(t1, &plan));
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->empty());
  EXPECT_EQ(memo.stats().fixup_hits, 1);
  EXPECT_EQ(memo.stats().fallbacks, 0);
}

TEST(PlanMemo, UnpublishedOwnerIsNeverADominanceTarget) {
  PlanMemo memo({});
  memo.begin_table();

  // Classify a second instance before the owner has published its plan.
  const PlanMemo::Ticket t0 =
      memo.classify(make_inst({0, 1, 2}, {240.0, 240.0}, 60.0), 14);
  ASSERT_EQ(t0.outcome, PlanMemo::Outcome::kOwner);

  // A dominated prober must not wait on a plan nobody knows yet: it owns
  // its own class, so its bit-equal class-mates exact-hit it instead of
  // each pending (and possibly falling back) on the first owner.
  const PlanMemo::Ticket t1 =
      memo.classify(make_inst({0, 1, 2}, {10.0, 10.0}, 60.0), 14);
  ASSERT_EQ(t1.outcome, PlanMemo::Outcome::kOwner);
  ASSERT_NE(t1.entry, PlanMemo::kNoEntry);
  const PlanMemo::Ticket t2 =
      memo.classify(make_inst({0, 1, 2}, {10.0, 10.0}, 60.0), 14);
  EXPECT_EQ(t2.outcome, PlanMemo::Outcome::kExactHit);
  EXPECT_EQ(t2.entry, t1.entry);
  EXPECT_EQ(memo.stats().misses, 2);
  EXPECT_EQ(memo.stats().fallbacks, 0);
}

TEST(PlanMemo, NearMissSameSignatureDifferentReachableSetFallsBack) {
  PlanMemo memo({});
  memo.begin_table();

  // Owner close enough (and funded enough) that its optimum is a real tour.
  const SelectionInstance owner =
      make_inst({0, 1, 2}, {240.0, 240.0}, 4000.0);
  const PlanMemo::Ticket t0 = memo.classify(owner, 14);
  ASSERT_EQ(t0.outcome, PlanMemo::Outcome::kOwner);
  memo.publish(t0, make_plan(), true);

  // Prober: same included subset (same signature, same budget bucket ⇒
  // same key), dominated start, smaller budget — its reachable set under
  // the travel budget is genuinely different, and the owner's optimum is
  // non-empty, so no fix-up argument applies. resolve() must send it to
  // the exact fallback.
  const SelectionInstance probe =
      make_inst({0, 1, 2}, {10.0, 10.0}, 3990.0);
  PlanMemo::Ticket t1 = memo.classify(probe, 14);
  ASSERT_EQ(t1.outcome, PlanMemo::Outcome::kPending);
  const Selection* plan = nullptr;
  EXPECT_FALSE(memo.resolve(t1, &plan));
  EXPECT_EQ(memo.stats().fixup_hits, 0);
  EXPECT_EQ(memo.stats().fallbacks, 1);
  // A fallback is a full solve: counted in misses too.
  EXPECT_EQ(memo.stats().misses, 2);
}

TEST(PlanMemo, HeuristicSelectorNeverTakesTheDominancePath) {
  PlanMemo memo({});
  memo.begin_table();

  const PlanMemo::Ticket t0 =
      memo.classify(make_inst({0, 1, 2}, {240.0, 240.0}, 60.0), 14);
  memo.publish(t0, Selection{}, true);

  // exact_candidate_limit = 0 (a heuristic): the empty-optimum dominance
  // argument needs exactness on both sides, so the dominated prober must
  // classify as a fresh owner, never as pending.
  const PlanMemo::Ticket t1 =
      memo.classify(make_inst({0, 1, 2}, {10.0, 10.0}, 60.0),
                    /*exact_limit=*/0);
  EXPECT_EQ(t1.outcome, PlanMemo::Outcome::kOwner);
}

TEST(PlanMemo, ProberWithLargerBudgetIsNotDominated) {
  PlanMemo memo({});
  memo.begin_table();

  const PlanMemo::Ticket t0 =
      memo.classify(make_inst({0, 1, 2}, {240.0, 240.0}, 60.0), 14);
  memo.publish(t0, Selection{}, true);

  // Farther start but a *larger* budget (same 60 s bucket): the prober
  // might afford a tour the owner could not — dominance must not trigger.
  const PlanMemo::Ticket t1 =
      memo.classify(make_inst({0, 1, 2}, {10.0, 10.0}, 110.0), 14);
  EXPECT_EQ(t1.outcome, PlanMemo::Outcome::kOwner);
}

TEST(PlanMemo, FullBucketStopsInsertionButStillSolves) {
  PlanMemoParams p;
  p.max_entries_per_key = 1;
  PlanMemo memo(p);
  memo.begin_table();

  const PlanMemo::Ticket a =
      memo.classify(make_inst({0, 1, 2}, {10.0, 10.0}, 3000.0), 14);
  ASSERT_EQ(a.outcome, PlanMemo::Outcome::kOwner);
  ASSERT_NE(a.entry, PlanMemo::kNoEntry);
  memo.publish(a, make_plan(), true);

  // Same key (same cell, same bucket, same subset) but a closer start (not
  // an exact hit, not dominated): the bucket is full, so this owner is not
  // cached — publish must be a harmless no-op.
  const PlanMemo::Ticket b =
      memo.classify(make_inst({0, 1, 2}, {200.0, 200.0}, 3000.0), 14);
  ASSERT_EQ(b.outcome, PlanMemo::Outcome::kOwner);
  EXPECT_EQ(b.entry, PlanMemo::kNoEntry);
  memo.publish(b, Selection{}, true);
  EXPECT_EQ(memo.stats().misses, 2);
}

TEST(PlanMemo, BeginRoundDropsEntriesButKeepsStats) {
  PlanMemo memo({});
  memo.begin_table();
  const PlanMemo::Ticket a =
      memo.classify(make_inst({0, 1}, {100.0, 100.0}, 3000.0), 14);
  memo.publish(a, make_plan(), true);
  (void)memo.classify(make_inst({0, 1}, {100.0, 100.0}, 3000.0), 14);
  EXPECT_EQ(memo.stats().exact_hits, 1);

  memo.count_round();

  memo.begin_table();
  // The identical instance is an owner again — last round's table is gone.
  const PlanMemo::Ticket c =
      memo.classify(make_inst({0, 1}, {100.0, 100.0}, 3000.0), 14);
  EXPECT_EQ(c.outcome, PlanMemo::Outcome::kOwner);
  memo.count_round();
  EXPECT_EQ(memo.stats().rounds, 2);
  EXPECT_EQ(memo.stats().exact_hits, 1);  // cumulative across rounds
  EXPECT_EQ(memo.stats().misses, 2);      // one owner per round
  EXPECT_EQ(memo.stats().lookups(),
            memo.stats().hits() + memo.stats().misses);
}

}  // namespace
}  // namespace mcs::select
