#include "core/local_search/neighborhood.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/local_search/heterogeneity.h"
#include "core/local_search/move.h"
#include "core/local_search/objective.h"
#include "test_util.h"

namespace emp {
namespace {

struct NeighborhoodSetup {
  NeighborhoodSetup(const AreaSet* areas_in, std::vector<Constraint> cs)
      : areas(areas_in),
        bound(std::move(BoundConstraints::Create(areas_in, std::move(cs)))
                  .value()),
        partition(&bound),
        connectivity(&areas_in->graph()) {}

  const AreaSet* areas;
  BoundConstraints bound;
  Partition partition;
  ConnectivityChecker connectivity;
};

/// Lists a neighborhood's resident candidates in canonical order, keeping
/// every one of them.
std::vector<CandidateMove> Dump(TabuNeighborhood* nbhd) {
  std::vector<CandidateMove> out;
  nbhd->VisitInOrder([&](const CandidateMove& mv) {
    out.push_back(mv);
    return CandidateVerdict::kKeep;
  });
  return out;
}

bool SameMove(const CandidateMove& a, const CandidateMove& b) {
  return a.area == b.area && a.from == b.from && a.to == b.to &&
         a.delta == b.delta;
}

/// Candidate sets must agree exactly: same moves in the same canonical
/// order with bit-identical deltas.
void ExpectSameCandidates(const std::vector<CandidateMove>& incremental,
                          const std::vector<CandidateMove>& fresh) {
  ASSERT_EQ(incremental.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(incremental[i].area, fresh[i].area) << "candidate " << i;
    EXPECT_EQ(incremental[i].from, fresh[i].from) << "candidate " << i;
    EXPECT_EQ(incremental[i].to, fresh[i].to) << "candidate " << i;
    // Bit-identical, not approximately equal: unaffected candidates must
    // keep their previously computed deltas verbatim.
    EXPECT_EQ(incremental[i].delta, fresh[i].delta) << "candidate " << i;
  }
}

TEST(TabuNeighborhoodTest, RebuildYieldsCanonicalOrder) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(3, 3), {{"s", {4, 4, 1, 4, 2, 2, 7, 7, 2}}});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 9)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  int32_t r2 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1, 2}) setup.partition.Assign(a, r0);
  for (int32_t a : {3, 4, 5}) setup.partition.Assign(a, r1);
  for (int32_t a : {6, 7, 8}) setup.partition.Assign(a, r2);

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective);
  const int64_t scored = nbhd.Rebuild();
  std::vector<CandidateMove> dump = Dump(&nbhd);
  EXPECT_EQ(static_cast<int64_t>(dump.size()), scored);
  EXPECT_EQ(nbhd.live_candidates(), scored);
  for (size_t i = 1; i < dump.size(); ++i) {
    EXPECT_TRUE(CandidateOrderLess(dump[i - 1], dump[i]))
        << "out of order at " << i;
  }
  // Every boundary area of every (size > 1) region contributes one
  // candidate per distinct adjacent foreign region.
  for (const CandidateMove& mv : dump) {
    EXPECT_EQ(setup.partition.RegionOf(mv.area), mv.from);
    EXPECT_NE(mv.from, mv.to);
    EXPECT_DOUBLE_EQ(mv.delta,
                     objective.MoveDelta(mv.area, mv.from, mv.to));
  }
}

TEST(TabuNeighborhoodTest, VisitingDoesNotConsumeCandidates) {
  AreaSet areas = test::PathAreaSet({1, 1, 1, 9, 9, 9});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 6)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1, 2}) setup.partition.Assign(a, r0);
  for (int32_t a : {3, 4, 5}) setup.partition.Assign(a, r1);

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective);
  nbhd.Rebuild();
  std::vector<CandidateMove> first = Dump(&nbhd);
  std::vector<CandidateMove> second = Dump(&nbhd);
  ExpectSameCandidates(second, first);

  // An early-stopping visit also leaves the structure intact.
  int visited = 0;
  nbhd.VisitInOrder([&](const CandidateMove&) {
    ++visited;
    return CandidateVerdict::kStop;
  });
  EXPECT_EQ(visited, 1);
  ExpectSameCandidates(Dump(&nbhd), first);
}

TEST(TabuNeighborhoodTest, IncrementalMatchesFreshRebuildAfterEachMove) {
  // Random-walk a 5x5 grid partition; after every applied move the
  // incrementally maintained candidate set must equal a from-scratch
  // rebuild, deltas bit-for-bit.
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"s", {12, 7, 9, 14, 6, 8, 11, 5, 13, 9, 10, 7, 12,
              6, 9, 11, 8, 14, 5, 10, 7, 13, 9, 6, 12}}});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 25)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  int32_t r2 = setup.partition.CreateRegion();
  for (int32_t a = 0; a < 25; ++a) {
    setup.partition.Assign(a, a % 5 < 2 ? r0 : (a < 13 ? r1 : r2));
  }

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective);
  nbhd.Rebuild();

  Rng rng(123);
  int applied = 0;
  for (int step = 0; step < 200 && applied < 40; ++step) {
    // Sample any candidate, keep it only if it is a legal Tabu move.
    std::vector<CandidateMove> all = Dump(&nbhd);
    ASSERT_FALSE(all.empty());
    const CandidateMove mv = all[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(all.size()) - 1))];
    if (!ConstraintPreservingMove(setup.partition, &setup.connectivity,
                                  mv.area, mv.from, mv.to)) {
      continue;
    }
    objective.ApplyMove(mv.area, mv.from, mv.to);
    setup.partition.Move(mv.area, mv.to);
    nbhd.OnMoveApplied(mv.area, mv.from, mv.to);
    ++applied;

    TabuNeighborhood fresh(&setup.partition, &objective);
    fresh.Rebuild();
    ExpectSameCandidates(Dump(&nbhd), Dump(&fresh));
    EXPECT_EQ(nbhd.live_candidates(), fresh.live_candidates());
  }
  EXPECT_GE(applied, 20);
}

TEST(TabuNeighborhoodTest, DonorCapabilityTransitions) {
  // Moving the donor's penultimate member away kills the last member's
  // candidates (size-1 regions cannot donate); moving one back revives
  // them. Both transitions must match a fresh rebuild. 2x2 grid
  // (0 1 / 2 3): area 0 always borders r1 through area 2.
  AreaSet areas = test::MakeAreaSet(test::GridGraph(2, 2),
                                    {{"s", {1, 2, 3, 4}}});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 4)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1}) setup.partition.Assign(a, r0);
  for (int32_t a : {2, 3}) setup.partition.Assign(a, r1);

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective);
  nbhd.Rebuild();

  auto apply = [&](int32_t area, int32_t from, int32_t to) {
    objective.ApplyMove(area, from, to);
    setup.partition.Move(area, to);
    nbhd.OnMoveApplied(area, from, to);
    TabuNeighborhood fresh(&setup.partition, &objective);
    fresh.Rebuild();
    ExpectSameCandidates(Dump(&nbhd), Dump(&fresh));
  };

  apply(1, r0, r1);  // r0 = {0}: area 0 must lose its candidate.
  for (const CandidateMove& mv : Dump(&nbhd)) EXPECT_NE(mv.area, 0);
  apply(1, r1, r0);  // r0 = {0, 1}: area 0's candidate returns.
  bool area0_present = false;
  for (const CandidateMove& mv : Dump(&nbhd)) {
    if (mv.area == 0) area0_present = true;
  }
  EXPECT_TRUE(area0_present);
}

TEST(TabuNeighborhoodTest, RetiredCandidatesStayOutUntilRescored) {
  AreaSet areas = test::PathAreaSet({1, 1, 1, 9, 9, 9});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 6)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1, 2}) setup.partition.Assign(a, r0);
  for (int32_t a : {3, 4, 5}) setup.partition.Assign(a, r1);

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective);
  nbhd.Rebuild();
  const std::vector<CandidateMove> all = Dump(&nbhd);
  ASSERT_EQ(all.size(), 2u);  // area 2 -> r1 and area 3 -> r0

  // Retiring the first candidate removes it from later visits but not from
  // the live set.
  nbhd.VisitInOrder([&](const CandidateMove&) {
    return CandidateVerdict::kRetire;
  });
  EXPECT_TRUE(Dump(&nbhd).empty());
  EXPECT_EQ(nbhd.live_candidates(), 2);

  // A move between the two regions re-scores both frontier areas, which
  // re-admits every candidate the move could have made valid again.
  objective.ApplyMove(2, r0, r1);
  setup.partition.Move(2, r1);
  nbhd.OnMoveApplied(2, r0, r1);
  TabuNeighborhood fresh(&setup.partition, &objective);
  fresh.Rebuild();
  ExpectSameCandidates(Dump(&nbhd), Dump(&fresh));
}

TEST(TabuNeighborhoodTest, RetiringVisitFindsTheCanonicalFirstAdmissible) {
  // Random admissible walks on a SUM-constrained grid. At every step the
  // retiring visit (invalid -> kRetire, pseudo-tabu -> kKeep) must select
  // exactly the canonical minimum among the admissible, non-tabu moves of a
  // brute-force scan over a fresh rebuild, which retires nothing.
  std::vector<double> values;
  for (int32_t a = 0; a < 64; ++a) {
    values.push_back(static_cast<double>(1 + (a * 37) % 11));
  }
  AreaSet areas = test::MakeAreaSet(test::GridGraph(8, 8), {{"s", values}});
  NeighborhoodSetup setup(&areas,
                          {Constraint::Sum("s", 75, kNoUpperBound)});
  std::vector<int32_t> rids;
  for (int32_t i = 0; i < 4; ++i) {
    rids.push_back(setup.partition.CreateRegion());
  }
  for (int32_t a = 0; a < 64; ++a) {
    const int32_t row = a / 8;
    const int32_t col = a % 8;
    setup.partition.Assign(a, rids[static_cast<size_t>((row / 4) * 2 +
                                                        col / 4)]);
  }
  for (int32_t rid : rids) {
    ASSERT_TRUE(setup.partition.region(rid).stats.SatisfiesAll());
  }

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective);
  nbhd.Rebuild();
  Rng rng(2024);
  int64_t retiring_tried = 0;
  int64_t brute_tried = 0;
  int applied = 0;
  for (int step = 0; step < 120; ++step) {
    // A few areas are pseudo-tabu this step; kKeep must re-check them.
    std::vector<bool> tabu(64, false);
    for (int k = 0; k < 3; ++k) {
      tabu[static_cast<size_t>(rng.UniformInt(0, 63))] = true;
    }
    auto admissible = [&](const CandidateMove& mv) {
      return ConstraintPreservingMove(setup.partition, &setup.connectivity,
                                      mv.area, mv.from, mv.to);
    };

    std::optional<CandidateMove> picked;
    nbhd.VisitInOrder([&](const CandidateMove& mv) {
      ++retiring_tried;
      if (tabu[static_cast<size_t>(mv.area)]) return CandidateVerdict::kKeep;
      if (!admissible(mv)) return CandidateVerdict::kRetire;
      picked = mv;
      return CandidateVerdict::kStop;
    });

    TabuNeighborhood fresh(&setup.partition, &objective);
    fresh.Rebuild();
    // The unretired scan tries candidates up to the first admissible,
    // non-tabu one; it also collects every admissible move for the walk.
    std::vector<CandidateMove> valid;
    std::optional<CandidateMove> expected;
    for (const CandidateMove& mv : Dump(&fresh)) {
      const bool ok = admissible(mv);
      if (ok) valid.push_back(mv);
      if (expected.has_value()) continue;
      ++brute_tried;
      if (ok && !tabu[static_cast<size_t>(mv.area)]) expected = mv;
    }
    ASSERT_EQ(picked.has_value(), expected.has_value()) << "step " << step;
    if (!picked.has_value()) break;
    EXPECT_TRUE(SameMove(*picked, *expected))
        << "step " << step << ": area " << picked->area << " vs "
        << expected->area;

    // Walk on with a random admissible move, not always the first one.
    const CandidateMove mv = valid[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(valid.size()) - 1))];
    objective.ApplyMove(mv.area, mv.from, mv.to);
    setup.partition.Move(mv.area, mv.to);
    nbhd.OnMoveApplied(mv.area, mv.from, mv.to);
    ++applied;
  }
  EXPECT_GE(applied, 60);
  // Retirement must actually have skipped work for the check to mean much.
  EXPECT_LT(retiring_tried, brute_tried);
}

TEST(ArticulationCacheTest, AgreesWithBfsOnEveryQuery) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(4, 4),
      {{"s", {4, 9, 1, 7, 2, 8, 5, 3, 9, 1, 6, 4, 7, 3, 8, 2}}});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 16)});
  // An L-shaped region (articulated at the corner) plus the rest.
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a : {0, 4, 8, 12, 13, 14}) setup.partition.Assign(a, r0);
  for (int32_t a : {1, 2, 3, 5, 6, 7, 9, 10, 11, 15}) {
    setup.partition.Assign(a, r1);
  }

  ArticulationCache cache(&setup.partition, &setup.connectivity);
  for (int32_t rid : setup.partition.AliveRegionIds()) {
    for (int32_t member : setup.partition.region(rid).areas) {
      EXPECT_EQ(cache.DonorKeepsContiguity(rid, member),
                setup.connectivity.IsConnectedWithout(
                    setup.partition.region(rid).areas, member))
          << "region " << rid << " area " << member;
    }
  }
  // One Tarjan pass per region; every further query is a cache hit.
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 16 - 2);
}

TEST(ArticulationCacheTest, InvalidateForcesRecomputation) {
  AreaSet areas = test::PathAreaSet({1, 2, 3, 4});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 4)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1, 2}) setup.partition.Assign(a, r0);
  setup.partition.Assign(3, r1);

  ArticulationCache cache(&setup.partition, &setup.connectivity);
  // Middle of a path is a cut vertex; the ends are not.
  EXPECT_TRUE(cache.DonorKeepsContiguity(r0, 0));
  EXPECT_FALSE(cache.DonorKeepsContiguity(r0, 1));
  EXPECT_TRUE(cache.DonorKeepsContiguity(r0, 2));
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 2);

  // Mutate r0 (2 leaves for r1) and invalidate: the stale answer for
  // area 1 (a cut vertex of {0,1,2} but not of {0,1}) must be recomputed.
  setup.partition.Move(2, r1);
  cache.Invalidate(r0);
  cache.Invalidate(r1);
  EXPECT_TRUE(cache.DonorKeepsContiguity(r0, 1));
  EXPECT_EQ(cache.misses(), 2);
}

TEST(ArticulationCacheTest, TwoMemberRegionsAlwaysSurviveDonation) {
  AreaSet areas = test::PathAreaSet({1, 2, 3});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 3)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1}) setup.partition.Assign(a, r0);
  setup.partition.Assign(2, r1);

  ArticulationCache cache(&setup.partition, &setup.connectivity);
  EXPECT_TRUE(cache.DonorKeepsContiguity(r0, 0));
  EXPECT_TRUE(cache.DonorKeepsContiguity(r0, 1));
  EXPECT_TRUE(cache.DonorKeepsContiguity(r1, 2));  // singleton -> empty
}

TEST(ArticulationCacheTest, RandomizedAgreementUnderMutation) {
  // Random walk with invalidation after every move; every (region, member)
  // query must keep matching the exact BFS throughout.
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"s", {12, 7, 9, 14, 6, 8, 11, 5, 13, 9, 10, 7, 12,
              6, 9, 11, 8, 14, 5, 10, 7, 13, 9, 6, 12}}});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 25)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a = 0; a < 25; ++a) {
    setup.partition.Assign(a, a < 13 ? r0 : r1);
  }

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective);
  nbhd.Rebuild();
  ArticulationCache cache(&setup.partition, &setup.connectivity);
  Rng rng(7);
  for (int step = 0; step < 60; ++step) {
    for (int32_t rid : setup.partition.AliveRegionIds()) {
      for (int32_t member : setup.partition.region(rid).areas) {
        ASSERT_EQ(cache.DonorKeepsContiguity(rid, member),
                  setup.connectivity.IsConnectedWithout(
                      setup.partition.region(rid).areas, member))
            << "step " << step << " region " << rid << " area " << member;
      }
    }
    std::vector<CandidateMove> all = Dump(&nbhd);
    if (all.empty()) break;
    const CandidateMove mv = all[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(all.size()) - 1))];
    if (!ConstraintPreservingMove(setup.partition, &setup.connectivity,
                                  mv.area, mv.from, mv.to)) {
      continue;
    }
    objective.ApplyMove(mv.area, mv.from, mv.to);
    setup.partition.Move(mv.area, mv.to);
    nbhd.OnMoveApplied(mv.area, mv.from, mv.to);
    cache.Invalidate(mv.from);
    cache.Invalidate(mv.to);
  }
}

}  // namespace
}  // namespace emp
