// R^d geometry primitives (geom/geom.hpp) and the synchronous vector
// baseline that recombines scalar lock-step runs through them.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/sync_engine.hpp"
#include "geom/geom.hpp"

namespace apxa::geom {
namespace {

const std::vector<std::vector<double>> kPoints{
    {0.0, 2.0}, {1.0, -1.0}, {0.5, 4.0}};

std::vector<std::vector<double>> ramp_inputs() {
  return {{0.0, 1.0, 2.0}, {1.0, 2.0, 3.0}, {2.0, 3.0, 4.0},
          {3.0, 4.0, 5.0}, {4.0, 5.0, 6.0}};
}

TEST(Geom, BoxHullIsPerCoordinate) {
  const Box box = box_hull(kPoints);
  ASSERT_EQ(box.dim(), 2u);
  EXPECT_DOUBLE_EQ(box.lo[0], 0.0);
  EXPECT_DOUBLE_EQ(box.hi[0], 1.0);
  EXPECT_DOUBLE_EQ(box.lo[1], -1.0);
  EXPECT_DOUBLE_EQ(box.hi[1], 4.0);
  EXPECT_DOUBLE_EQ(box.max_side(), 5.0);
}

TEST(Geom, BoxContainsWithSlack) {
  const Box box = box_hull(kPoints);
  EXPECT_TRUE(box.contains(std::vector<double>{0.5, 0.0}));
  // A box point that is OUTSIDE the convex hull of the inputs: box validity
  // is strictly weaker than convex validity — the documented byzantine gap.
  EXPECT_TRUE(box.contains(std::vector<double>{0.0, 4.0}));
  EXPECT_FALSE(box.contains(std::vector<double>{1.1, 0.0}));
  EXPECT_TRUE(box.contains(std::vector<double>{1.0 + 1e-12, 0.0}));
  EXPECT_THROW(static_cast<void>(box.contains(std::vector<double>{0.0})),
               std::invalid_argument);
}

TEST(Geom, BoxExcludesNonFiniteCoordinates) {
  // NaN compares false against both bounds, so a plain "below lo or above
  // hi" test used to call a NaN output box-valid.
  const Box box = box_hull(kPoints);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(box.contains(std::vector<double>{nan, 0.0}));
  EXPECT_FALSE(box.contains(std::vector<double>{0.5, nan}));
  EXPECT_FALSE(box.contains(std::vector<double>{0.5, inf}));
  EXPECT_TRUE(all_finite(std::vector<double>{0.5, -1e300}));
  EXPECT_FALSE(all_finite(std::vector<double>{0.5, -inf}));
  EXPECT_FALSE(all_finite(std::vector<double>{nan}));
}

TEST(Geom, BoxHullRejectsBadInput) {
  EXPECT_THROW(box_hull(std::vector<std::vector<double>>{}),
               std::invalid_argument);
  const std::vector<std::vector<double>> mixed{{1.0, 2.0}, {1.0}};
  EXPECT_THROW(box_hull(mixed), std::invalid_argument);
}

TEST(Geom, Distances) {
  const std::vector<double> a{0.0, 3.0}, b{4.0, 0.0};
  EXPECT_DOUBLE_EQ(linf_dist(a, b), 4.0);
  EXPECT_DOUBLE_EQ(l2_dist(a, b), 5.0);
  EXPECT_DOUBLE_EQ(l2_dist(a, a), 0.0);
  EXPECT_THROW(linf_dist(a, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Geom, Spreads) {
  EXPECT_DOUBLE_EQ(linf_spread(kPoints), 5.0);  // the y-range dominates
  // Worst pair in L2 is {1,-1} vs {0.5,4}: sqrt(0.25 + 25).
  EXPECT_DOUBLE_EQ(l2_spread(kPoints), std::sqrt(25.25));
  EXPECT_DOUBLE_EQ(linf_spread(std::vector<std::vector<double>>{}), 0.0);
  const std::vector<std::vector<double>> one{{7.0, 7.0}};
  EXPECT_DOUBLE_EQ(linf_spread(one), 0.0);
  EXPECT_DOUBLE_EQ(l2_spread(one), 0.0);
}

TEST(Geom, LinfL2SandwichInequality) {
  // linf <= l2 <= sqrt(d) * linf for every pair, hence for the spreads.
  const auto pts = kPoints;
  const double linf = linf_spread(pts);
  const double l2 = l2_spread(pts);
  EXPECT_LE(linf, l2 + 1e-12);
  EXPECT_LE(l2, std::sqrt(2.0) * linf + 1e-12);
}

TEST(Geom, CoordinateExtraction) {
  const auto col = coordinate(kPoints, 1);
  EXPECT_EQ(col, (std::vector<double>{2.0, -1.0, 4.0}));
  EXPECT_THROW(coordinate(kPoints, 2), std::invalid_argument);
}

TEST(Geom, AveragePerCoordinateIsColumnwise) {
  const std::vector<std::vector<double>> view{
      {0.0, 10.0}, {2.0, 20.0}, {4.0, 60.0}};
  const auto mean = average_per_coordinate(core::Averager::kMean, view, 2, 1);
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 30.0);

  // reduce_1 then midpoint: each column keeps only its middle element.
  const auto launder =
      average_per_coordinate(core::Averager::kReduceMidpoint, view, 2, 1);
  EXPECT_DOUBLE_EQ(launder[0], 2.0);
  EXPECT_DOUBLE_EQ(launder[1], 20.0);
}

// --- synchronous vector baseline -------------------------------------------

TEST(SyncVector, MatchesScalarRunsPerCoordinate) {
  core::SyncVectorConfig cfg;
  cfg.params = {6, 1};
  cfg.dim = 2;
  cfg.rounds = 3;
  cfg.inputs = {{0.0, 5.0}, {1.0, 4.0}, {2.0, 3.0},
                {3.0, 2.0}, {4.0, 1.0}, {5.0, 0.0}};
  const auto rep = core::run_sync_vector(cfg);

  core::SyncConfig s0;
  s0.params = cfg.params;
  s0.inputs = geom::coordinate(cfg.inputs, 0);
  s0.rounds = cfg.rounds;
  const auto scalar = core::run_sync(s0);

  EXPECT_EQ(rep.messages, scalar.messages);
  ASSERT_EQ(rep.linf_spread_by_round.size(), scalar.spread_by_round.size());
  // Mirror-symmetric inputs: both coordinates shrink identically, so the
  // L-infinity spread IS the scalar spread.
  for (std::size_t r = 0; r < rep.linf_spread_by_round.size(); ++r) {
    EXPECT_DOUBLE_EQ(rep.linf_spread_by_round[r], scalar.spread_by_round[r]);
  }
  for (ProcessId p = 0; p < cfg.params.n; ++p) {
    ASSERT_TRUE(rep.final_values[p].has_value());
    EXPECT_DOUBLE_EQ((*rep.final_values[p])[0], *scalar.final_values[p]);
  }
  EXPECT_TRUE(rep.box_validity_ok);
}

TEST(SyncVector, SurvivesCrashes) {
  core::SyncVectorConfig cfg;
  cfg.params = {5, 1};
  cfg.dim = 3;
  cfg.rounds = 4;
  cfg.inputs = ramp_inputs();
  core::SyncCrash c;
  c.who = 4;
  c.round = 1;
  c.receivers = {0, 1};
  cfg.crashes = {c};
  const auto rep = core::run_sync_vector(cfg);
  EXPECT_FALSE(rep.final_values[4].has_value());
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_LT(rep.final_linf_gap, rep.linf_spread_by_round.front());
}

TEST(SyncVector, RejectsBadShapes) {
  core::SyncVectorConfig cfg;
  cfg.params = {4, 1};
  cfg.dim = 2;
  cfg.inputs = {{0.0, 1.0}, {1.0, 0.0}, {0.5}};  // ragged + wrong row count
  EXPECT_THROW(core::run_sync_vector(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace apxa::geom
