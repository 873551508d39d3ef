// geom/safe_area unit coverage: the LP point-in-hull test, removal
// robustness, Vaidya-Garg safe-area membership, Tverberg/Radon partition
// points, support certification and the safe-area midpoint averaging rule —
// including the degenerate cases the protocol relies on (d = 1 reducing to
// the trimmed-range midpoint, collinear point sets, t = 0 identities).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/multiset_ops.hpp"
#include "geom/safe_area.hpp"

namespace apxa::geom {
namespace {

using Points = std::vector<std::vector<double>>;

// --- in_convex_hull ---------------------------------------------------------

TEST(InConvexHull, TriangleInteriorAndExterior) {
  const Points tri = {{0.0, 0.0}, {4.0, 0.0}, {0.0, 4.0}};
  EXPECT_TRUE(in_convex_hull(std::vector<double>{1.0, 1.0}, tri));
  EXPECT_TRUE(in_convex_hull(std::vector<double>{2.0, 2.0}, tri));  // edge
  EXPECT_FALSE(in_convex_hull(std::vector<double>{2.1, 2.1}, tri));
  EXPECT_FALSE(in_convex_hull(std::vector<double>{-0.5, 1.0}, tri));
  // Vertices are in the hull.
  for (const auto& v : tri) EXPECT_TRUE(in_convex_hull(v, tri));
}

TEST(InConvexHull, CollinearPoints) {
  // Degenerate hull: a segment in R^2.  Points on the segment are inside,
  // points off the line or beyond the ends are not.
  const Points seg = {{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  EXPECT_TRUE(in_convex_hull(std::vector<double>{1.5, 1.5}, seg));
  EXPECT_TRUE(in_convex_hull(std::vector<double>{3.0, 3.0}, seg));
  EXPECT_FALSE(in_convex_hull(std::vector<double>{3.5, 3.5}, seg));
  EXPECT_FALSE(in_convex_hull(std::vector<double>{1.5, 1.6}, seg));
}

TEST(InConvexHull, OneDimension) {
  const Points pts = {{1.0}, {3.0}, {2.0}};
  EXPECT_TRUE(in_convex_hull(std::vector<double>{2.5}, pts));
  EXPECT_FALSE(in_convex_hull(std::vector<double>{0.9}, pts));
  EXPECT_FALSE(in_convex_hull(std::vector<double>{3.1}, pts));
}

TEST(InConvexHull, DuplicatedPoints) {
  // Duplicates must not break the LP (degenerate columns).
  const Points pts = {{1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}, {2.0, 2.0}};
  EXPECT_TRUE(in_convex_hull(std::vector<double>{1.5, 1.5}, pts));
  EXPECT_FALSE(in_convex_hull(std::vector<double>{1.5, 1.4}, pts));
}

// --- removal robustness and the safe area -----------------------------------

TEST(RemovalRobustness, ReplaySkipMatchesFreshSolves) {
  // removal_robustness reuses the full-set LP answer for removal sets whose
  // columns never entered its basis (safe_area.hpp, "Exact replay skip").
  // The reference below solves every subset afresh through in_convex_hull;
  // the two must agree exactly on every view shape the protocol produces:
  // uniform, duplicate clusters, near-converged clusters and coplanar views.
  const auto reference = [](const std::vector<double>& p, const Points& pts,
                            std::uint32_t t) {
    const auto m = static_cast<std::uint32_t>(pts.size());
    const auto without = [&](std::uint32_t a, std::uint32_t b) {
      Points kept;
      for (std::uint32_t i = 0; i < m; ++i) {
        if (i != a && i != b) kept.push_back(pts[i]);
      }
      return kept;
    };
    if (!in_convex_hull(p, pts)) return -1;
    for (std::uint32_t a = 0; a < m; ++a) {
      if (!in_convex_hull(p, without(a, m))) return 0;
    }
    if (t < 2) return 1;
    for (std::uint32_t a = 0; a < m; ++a) {
      for (std::uint32_t b = a + 1; b < m; ++b) {
        if (!in_convex_hull(p, without(a, b))) return 1;
      }
    }
    return 2;
  };

  Rng rng(2024);
  int views = 0, certified = 0;
  for (int kind = 0; kind < 4; ++kind) {
    for (const std::uint32_t n : {7u, 10u, 13u, 16u}) {
      for (const std::uint32_t d : {2u, 3u, 4u}) {
        for (const std::uint32_t t : {1u, 2u}) {
          for (int rep = 0; rep < 21; ++rep, ++views) {
            Points pts(n, std::vector<double>(d));
            for (std::uint32_t i = 0; i < n; ++i) {
              for (std::uint32_t c = 0; c < d; ++c) {
                switch (kind) {
                  case 0:  // uniform
                    pts[i][c] = rng.next_double(-5.0, 5.0);
                    break;
                  case 1:  // clusters of three duplicates
                    pts[i][c] = i % 3 == 0 ? rng.next_double(-5.0, 5.0)
                                           : pts[i - i % 3][c];
                    break;
                  case 2:  // near-converged: spread 1e-4
                    pts[i][c] = 1.5 + 1e-4 * rng.next_double(-1.0, 1.0);
                    break;
                  default:  // coplanar: last coordinate affine in the rest
                    pts[i][c] = c + 1 < d ? rng.next_double(-5.0, 5.0)
                                          : 0.5 * pts[i][0] - 0.25 * pts[i][c - 1];
                    break;
                }
              }
            }
            std::vector<std::vector<double>> cands = {centroid(pts),
                                                      coordinate_median(pts)};
            for (int r = 0; r < 2; ++r) {
              // Random convex combination of three view points.
              std::vector<double> q(d, 0.0);
              double w[3], sum = 0.0;
              for (double& x : w) sum += (x = rng.next_double());
              for (int j = 0; j < 3; ++j) {
                const auto& v = pts[rng.next_below(n)];
                for (std::uint32_t c = 0; c < d; ++c) q[c] += w[j] / sum * v[c];
              }
              cands.push_back(std::move(q));
            }
            for (const auto& p : cands) {
              const int got = removal_robustness(p, pts, t);
              ASSERT_EQ(got, reference(p, pts, t))
                  << "kind " << kind << " n " << n << " d " << d << " t " << t
                  << " rep " << rep;
              if (got == static_cast<int>(t)) ++certified;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(views, 2016);
  EXPECT_GT(certified, 0);  // the comparison reaches the subset solves
}

TEST(RemovalRobustness, CentroidOfSquareSurvivesOneRemoval) {
  const Points sq = {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
  const std::vector<double> c{0.5, 0.5};
  // Removing any single corner keeps the center in the remaining triangle;
  // removing two opposite corners leaves a segment that misses it only when
  // the two REMAINING corners are adjacent — {(0,0),(1,0)} say — so level 2
  // fails.
  EXPECT_EQ(removal_robustness(c, sq, 1), 1);
  EXPECT_EQ(removal_robustness(c, sq, 2), 1);
  // A vertex is not robust to its own removal.
  EXPECT_EQ(removal_robustness(sq[0], sq, 1), 0);
  // A point outside the hull reports -1.
  EXPECT_EQ(removal_robustness(std::vector<double>{2.0, 2.0}, sq, 1), -1);
}

TEST(RemovalRobustness, ReplaySkipKeepsScalesAndPrefilter) {
  // Two removals the replay skip must NOT take, although the removed point
  // never enters the full-set basis.  Both hinge on the last point u.
  //
  // Row scales: u stretches the y row's scale, so the full LP forgives the
  // 1e-6 gap between p and the edge (0,0)-(2,2) while the LP without u
  // does not.  The duplicates keep every other removal feasible.
  const Points stretched = {{0.0, 0.0}, {0.0, 0.0}, {2.0, 2.0},
                            {2.0, 2.0}, {2.0, 0.0}, {1.0, -60.0}};
  const std::vector<double> near_edge{1.0 - 1e-6, 1.0 + 1e-6};
  ASSERT_TRUE(in_convex_hull(near_edge, stretched));
  ASSERT_FALSE(in_convex_hull(
      near_edge, Points(stretched.begin(), stretched.end() - 1)));
  EXPECT_EQ(removal_robustness(near_edge, stretched, 1), 0);
  // Prefilter: p sits 1.5e-6 past the x range of the points other than u,
  // beyond the prefilter's slack but within the LP's scaled tolerance.
  const Points wide = {{10.0, 0.0}, {-10.0, 1.0}, {-10.0, -1.0}, {11.0, 0.0}};
  const std::vector<double> past_edge{10.0 + 1.5e-6, 0.0};
  ASSERT_TRUE(in_convex_hull(past_edge, wide));
  EXPECT_EQ(removal_robustness(past_edge, wide, 1), 0);
}

TEST(SafeArea, TZeroIsPlainHullMembership) {
  const Points tri = {{0.0, 0.0}, {4.0, 0.0}, {0.0, 4.0}};
  EXPECT_TRUE(in_safe_area(std::vector<double>{1.0, 1.0}, tri, 0));
  EXPECT_FALSE(in_safe_area(std::vector<double>{3.0, 3.0}, tri, 0));
}

TEST(SafeArea, MatchesRemovalRobustnessWhenEnumerable) {
  // 3x3 grid, t = 1: the safe area is the intersection of all 8-subset
  // hulls; the grid center is in every one of them.
  Points grid;
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      grid.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  EXPECT_TRUE(in_safe_area(std::vector<double>{1.0, 1.0}, grid, 1));
  // A corner leaves the hull as soon as it is removed itself.
  EXPECT_FALSE(in_safe_area(std::vector<double>{0.0, 0.0}, grid, 1));
}

// --- Tverberg / Radon partition points --------------------------------------

TEST(TverbergPoint, RIsOneReturnsCentroid) {
  const Points pts = {{0.0, 0.0}, {2.0, 0.0}, {1.0, 3.0}};
  const auto tv = tverberg_point(pts, 1);
  ASSERT_TRUE(tv.has_value());
  EXPECT_NEAR((*tv)[0], 1.0, 1e-12);
  EXPECT_NEAR((*tv)[1], 1.0, 1e-12);
}

TEST(TverbergPoint, GridPartitionPointIsRobust) {
  Points grid;
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      grid.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  // m = 9 >= (d+1)t + 1 with t = 1, d = 2: a 2-partition (Radon) point
  // exists, and a point in the hulls of 2 disjoint groups survives any
  // single removal.
  const auto tv = tverberg_point(grid, 2);
  ASSERT_TRUE(tv.has_value());
  EXPECT_GE(removal_robustness(*tv, grid, 1), 1);
}

TEST(TverbergPoint, TinyPivotViewStaysInsideHull) {
  // A near-converged view (every point within 1e-3 of one center) on which
  // the LP once accepted a 2.3e-11 pivot: the degenerate tableau still
  // reported a residual optimum <= tol while its lambda broke the system
  // (group 0 summed to 0.9973), and the returned point lay 7e-3 outside the
  // view.  lp_feasible now checks lambda against the system as built.
  const Points view = {
      {-2.6936767102817223, -2.4234484285483866, 0.83692090681900988},
      {-2.6935889753070192, -2.4228145204924196, 0.83670092333541546},
      {-2.6937159026353448, -2.4233004418785509, 0.83709819805394869},
      {-2.693343082757242, -2.4231260821337717, 0.83705471475697057},
      {-2.6937398465356459, -2.4233848675183043, 0.83716067781604508},
      {-2.6930935382133301, -2.4225127068148247, 0.83690952329387858},
      {-2.6930313593948982, -2.4225774983920174, 0.83658827546364689},
      {-2.6930337571914817, -2.4230413010174048, 0.83711381637376137},
      {-2.6932079982875941, -2.4229257792186418, 0.83651126810730914},
      {-2.693206724341366, -2.4232834403017209, 0.83742040773048543},
      {-2.693552605313263, -2.4225385561860016, 0.83689045201989776}};
  const auto tv = tverberg_point(view, 3);
  ASSERT_TRUE(tv.has_value());
  EXPECT_TRUE(in_convex_hull(*tv, view));
  EXPECT_EQ(removal_robustness(*tv, view, 2), 2);
  const auto sp = safe_midpoint(view, 2);
  EXPECT_TRUE(in_convex_hull(sp.point, view));
}

TEST(RadonPoint, CertifiesLevelOneByConstruction) {
  const Points pts = {{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}, {2.0, 2.0},
                      {1.0, 1.0}, {5.0, 5.0}};
  const auto rp = radon_point(pts);
  ASSERT_TRUE(rp.has_value());
  EXPECT_GE(removal_robustness(*rp, pts, 1), 1);
}

TEST(RadonPoint, TooFewPointsIsNullopt) {
  const Points pts = {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};  // m = 3 < d+2
  EXPECT_FALSE(radon_point(pts).has_value());
}

// --- support counts ---------------------------------------------------------

TEST(SupportCounts, CountsNearDuplicates) {
  const Points pts = {{1.0, 1.0}, {1.0, 1.0}, {1.0 + 1e-12, 1.0},
                      {2.0, 2.0}};
  const auto s = support_counts(pts);
  EXPECT_EQ(s[0], 3u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(s[2], 3u);
  EXPECT_EQ(s[3], 1u);
}

// --- trimmed centroid -------------------------------------------------------

TEST(TrimmedCentroid, TZeroIsCentroid) {
  const Points pts = {{0.0, 0.0}, {2.0, 0.0}, {1.0, 3.0}};
  const auto c = trimmed_centroid(pts, 0);
  EXPECT_NEAR(c[0], 1.0, 1e-12);
  EXPECT_NEAR(c[1], 1.0, 1e-12);
}

TEST(TrimmedCentroid, DropsFarOutlier) {
  // Five clustered points plus one at 1e3: the outlier must not survive.
  const Points pts = {{0.0, 0.0}, {0.1, 0.0},     {0.0, 0.1},
                      {0.1, 0.1}, {0.05, 0.05},   {1e3, 1e3}};
  const auto c = trimmed_centroid(pts, 1);
  EXPECT_LE(c[0], 0.2);
  EXPECT_LE(c[1], 0.2);
}

TEST(TrimmedCentroid, TrustedPointsNeverDrop) {
  // The trusted far point survives both drop stages; the untrusted copy of
  // it does not have to.
  const Points pts = {{0.0, 0.0}, {0.1, 0.0}, {0.0, 0.1},
                      {0.1, 0.1}, {10.0, 10.0}};
  const std::vector<std::uint8_t> trusted = {0, 0, 0, 0, 1};
  const auto c = trimmed_centroid(pts, 1, trusted);
  // 10.0 contributes to the kept average.
  EXPECT_GT(c[0], 1.0);
}

TEST(TrimmedCentroid, DegenerateViewKeepsCertifiedOnly) {
  // m = 3 points in R^2 (m <= d + 1): a simplex with no interior.  Only the
  // trusted entry is kept.
  const Points pts = {{1.0, 2.0}, {7.0, -1.0}, {-4.0, 5.0}};
  const std::vector<std::uint8_t> trusted = {1, 0, 0};
  const auto c = trimmed_centroid(pts, 1, trusted);
  EXPECT_NEAR(c[0], 1.0, 1e-12);
  EXPECT_NEAR(c[1], 2.0, 1e-12);
}

// --- safe midpoint ----------------------------------------------------------

TEST(SafeMidpoint, OneDimensionIsTrimmedRangeMidpoint) {
  // d = 1 closed form: midpoint of [v_(t), v_(m-1-t)] — exactly the
  // byzantine halving rule midpoint(reduce_t(V)).
  const Points pts = {{5.0}, {-100.0}, {1.0}, {2.0}, {100.0}};
  const auto sp = safe_midpoint(pts, 1);
  EXPECT_TRUE(sp.exact);
  EXPECT_EQ(sp.level, 1u);
  const double expected = core::apply_averager(
      core::Averager::kReduceMidpoint, {5.0, -100.0, 1.0, 2.0, 100.0}, 1);
  EXPECT_DOUBLE_EQ(sp.point[0], expected);
}

TEST(SafeMidpoint, TZeroReturnsCentroid) {
  const Points pts = {{0.0, 0.0}, {2.0, 0.0}, {1.0, 3.0}};
  const auto sp = safe_midpoint(pts, 0);
  EXPECT_TRUE(sp.exact);
  EXPECT_EQ(sp.level, 0u);
  EXPECT_NEAR(sp.point[0], 1.0, 1e-12);
  EXPECT_NEAR(sp.point[1], 1.0, 1e-12);
}

TEST(SafeMidpoint, CertifiesOnWellSpreadView) {
  // 3x3 grid plus a forged far corner, t = 1: m = 10 >= (d+2)t + 1, so a
  // certified safe-area point exists and must be found and certified.
  Points view;
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      view.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  view.push_back({10.0, 10.0});
  const auto sp = safe_midpoint(view, 1);
  EXPECT_TRUE(sp.exact);
  EXPECT_EQ(sp.level, 1u);
  EXPECT_TRUE(in_safe_area(sp.point, view, 1));
}

TEST(SafeMidpoint, SupportedEchoIsAdopted) {
  // A value echoed by t+1 = 2 entries has an honest contributor; with the
  // rest of the view scattered, the rule adopts (an average involving) it
  // and reports the adoption as certified.
  const Points view = {{1.0, 1.0}, {1.0, 1.0}, {4.0, -3.0}, {-2.0, 5.0},
                       {0.0, 0.0}};
  const auto sp = safe_midpoint(view, 1);
  EXPECT_TRUE(sp.exact);
  EXPECT_EQ(sp.level, 1u);
  // The supported echo is among the certified points averaged; with the
  // grid above it is the only supported cluster, and any certified result
  // stays inside the view hull.
  EXPECT_TRUE(in_convex_hull(sp.point, view));
}

TEST(SafeMidpoint, FallbackStaysInViewHull) {
  // m = 5 < (d+2)t + 1 for d = 2, t = 2: certification is out of reach and
  // the rule falls back to the trimmed centroid — a convex combination of
  // the view, reported as inexact.
  const Points view = {{0.0, 0.0}, {1.0, 0.2}, {0.2, 1.0}, {0.9, 0.9},
                       {0.5, 0.4}};
  const auto sp = safe_midpoint(view, 2);
  EXPECT_FALSE(sp.exact);
  EXPECT_TRUE(in_convex_hull(sp.point, view));
}

}  // namespace
}  // namespace apxa::geom
