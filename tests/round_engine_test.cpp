// RoundCollector semantics: quorum freezing, buffering, duplicates, and
// dim-wide points (the vector domain's entries).
#include <gtest/gtest.h>

#include <limits>

#include "core/round_engine.hpp"

namespace apxa::core {
namespace {

std::vector<double> values(std::span<const double> view) {
  return {view.begin(), view.end()};
}

/// A dim-wide point with coordinates x, x + 0.25, x + 0.5, ...: every
/// coordinate differs, so a wrong stride or a lost coordinate shows.
std::vector<double> point(std::uint32_t dim, double x) {
  std::vector<double> p(dim);
  for (std::uint32_t c = 0; c < dim; ++c) p[c] = x + 0.25 * c;
  return p;
}

/// The points concatenated: what a frozen view of them must read.
std::vector<double> flat(std::uint32_t dim, std::initializer_list<double> xs) {
  std::vector<double> out;
  for (const double x : xs) {
    const auto p = point(dim, x);
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

TEST(RoundCollector, FreezesAtQuorum) {
  {
    RoundCollector c(SystemParams{5, 1});  // quorum 4
    c.add_own(0, 10.0);
    EXPECT_FALSE(c.ready(0));
    c.add_remote(1, 0, 11.0);
    c.add_remote(2, 0, 12.0);
    EXPECT_FALSE(c.ready(0));
    c.add_remote(3, 0, 13.0);
    EXPECT_TRUE(c.ready(0));
    EXPECT_EQ(c.view(0).size(), 4u);
    EXPECT_EQ(values(c.view(0)), (std::vector<double>{10.0, 11.0, 12.0, 13.0}));
  }
  // The same through the point overloads, at d = 1 and d = 3.
  for (const std::uint32_t dim : {1u, 3u}) {
    RoundCollector c(SystemParams{5, 1}, kNoRound, kNoRound, dim);  // quorum 4
    c.add_own(0, point(dim, 10.0));
    EXPECT_FALSE(c.ready(0));
    c.add_remote(1, 0, point(dim, 11.0));
    c.add_remote(2, 0, point(dim, 12.0));
    EXPECT_FALSE(c.ready(0));
    c.add_remote(3, 0, point(dim, 13.0));
    EXPECT_TRUE(c.ready(0));
    // Point i of the view is coordinates [i * dim, (i + 1) * dim).
    EXPECT_EQ(c.view(0).size(), 4u * dim);
    EXPECT_EQ(values(c.view(0)), flat(dim, {10.0, 11.0, 12.0, 13.0})) << dim;
    EXPECT_EQ(c.contributors(0).size(), 4u);
  }
}

TEST(RoundCollector, LateArrivalsIgnoredAfterFreeze) {
  RoundCollector c(SystemParams{4, 1});  // quorum 3
  c.add_own(0, 1.0);
  c.add_remote(1, 0, 2.0);
  c.add_remote(2, 0, 3.0);
  ASSERT_TRUE(c.ready(0));
  c.add_remote(3, 0, 99.0);  // too late
  EXPECT_EQ(values(c.view(0)), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(RoundCollector, DuplicateSenderDropped) {
  RoundCollector c(SystemParams{4, 1});
  c.add_own(0, 1.0);
  c.add_remote(1, 0, 2.0);
  c.add_remote(1, 0, 50.0);  // byzantine duplicate: first value kept
  EXPECT_FALSE(c.ready(0));
  c.add_remote(2, 0, 3.0);
  ASSERT_TRUE(c.ready(0));
  EXPECT_EQ(values(c.view(0)), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(RoundCollector, OwnValueAlwaysInView) {
  // Remote values race ahead of add_own; the view must still contain the
  // party's own value.
  RoundCollector c(SystemParams{4, 1});  // quorum 3
  c.add_remote(1, 0, 2.0);
  c.add_remote(2, 0, 3.0);
  c.add_remote(3, 0, 4.0);  // would exceed the room reserved for own value
  EXPECT_FALSE(c.ready(0));
  c.add_own(0, 1.0);
  ASSERT_TRUE(c.ready(0));
  const auto v = c.view(0);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_NE(std::find(v.begin(), v.end(), 1.0), v.end());
}

TEST(RoundCollector, FutureRoundsBuffered) {
  RoundCollector c(SystemParams{4, 1});
  c.add_remote(1, 5, 7.0);
  c.add_remote(2, 5, 8.0);
  EXPECT_FALSE(c.ready(5));
  c.add_own(5, 6.0);
  EXPECT_TRUE(c.ready(5));
}

TEST(RoundCollector, IndependentRounds) {
  RoundCollector c(SystemParams{4, 1});
  c.add_own(0, 1.0);
  c.add_own(1, 10.0);
  c.add_remote(1, 0, 2.0);
  c.add_remote(1, 1, 20.0);
  c.add_remote(2, 1, 30.0);
  EXPECT_FALSE(c.ready(0));
  EXPECT_TRUE(c.ready(1));
}

TEST(RoundCollector, ForgetBeforeDropsState) {
  RoundCollector c(SystemParams{4, 1});
  c.add_own(0, 1.0);
  c.add_remote(1, 0, 2.0);
  c.add_remote(2, 0, 3.0);
  ASSERT_TRUE(c.ready(0));
  c.forget_before(1);
  EXPECT_FALSE(c.ready(0));
  EXPECT_THROW(static_cast<void>(c.view(0)), std::invalid_argument);
}

TEST(RoundCollector, DoubleOwnThrows) {
  RoundCollector c(SystemParams{4, 1});
  c.add_own(0, 1.0);
  EXPECT_THROW(c.add_own(0, 2.0), std::invalid_argument);
}

TEST(RoundCollector, SenderOutOfRangeThrows) {
  RoundCollector c(SystemParams{4, 1});
  EXPECT_THROW(c.add_remote(9, 0, 1.0), std::invalid_argument);
}

TEST(RoundCollector, MinimalSystem) {
  // n=3, t=1: quorum 2 — own plus one remote.
  RoundCollector c(SystemParams{3, 1});
  c.add_own(0, 5.0);
  EXPECT_FALSE(c.ready(0));
  c.add_remote(2, 0, 6.0);
  EXPECT_TRUE(c.ready(0));
}

TEST(RoundCollector, FarFutureRoundsSurviveRingGrowth) {
  // Rounds buffered well ahead of the current one widen the ring; each
  // keeps its values, in arrival order, through every later growth.
  {
    RoundCollector c(SystemParams{4, 1});
    for (Round r = 0; r < 10; ++r) {
      c.add_remote(1, 9 - r, 10.0 * (9 - r) + 1);
      c.add_remote(2, 9 - r, 10.0 * (9 - r) + 2);
    }
    for (Round r = 0; r < 10; ++r) {
      c.add_own(r, -1.0);
      ASSERT_TRUE(c.ready(r)) << r;
      EXPECT_EQ(values(c.view(r)), (std::vector<double>{10.0 * r + 1, 10.0 * r + 2, -1.0}));
      c.forget_before(r + 1);
    }
  }
  // The same through the point overloads, at d = 1 and d = 3: every
  // coordinate of a buffered point survives the growth.
  for (const std::uint32_t dim : {1u, 3u}) {
    RoundCollector c(SystemParams{4, 1}, kNoRound, kNoRound, dim);
    for (Round r = 0; r < 10; ++r) {
      c.add_remote(1, 9 - r, point(dim, 10.0 * (9 - r) + 1));
      c.add_remote(2, 9 - r, point(dim, 10.0 * (9 - r) + 2));
    }
    for (Round r = 0; r < 10; ++r) {
      c.add_own(r, point(dim, -1.0));
      ASSERT_TRUE(c.ready(r)) << r;
      EXPECT_EQ(values(c.view(r)),
                flat(dim, {10.0 * r + 1, 10.0 * r + 2, -1.0}))
          << "dim " << dim << ", round " << r;
      c.forget_before(r + 1);
    }
  }
}

TEST(RoundCollector, MalformedPointsAreDroppedAndCounted) {
  // Wrong width or a non-finite coordinate: dropped and counted, whatever the
  // round (the check runs before the bound), and the sender's first
  // well-formed point still counts.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RoundCollector c(SystemParams{4, 1}, /*end=*/4, kNoRound, /*dim=*/3);
  c.add_own(0, point(3, 0.0));
  c.add_remote(1, 0, point(2, 1.0));  // too narrow
  c.add_remote(1, 0, point(4, 1.0));  // too wide
  c.add_remote(2, 0, std::vector<double>{2.0, kNan, 2.0});  // NaN coordinate
  c.add_remote(2, 9, std::vector<double>{2.0, 2.0, -kInf});  // past the end
  EXPECT_EQ(c.malformed(), 4u);
  EXPECT_FALSE(c.ready(0));
  EXPECT_EQ(c.contributors(0).size(), 1u);
  c.add_remote(1, 0, point(3, 1.0));
  c.add_remote(2, 0, point(3, 2.0));
  ASSERT_TRUE(c.ready(0));
  EXPECT_EQ(values(c.view(0)), flat(3, {0.0, 1.0, 2.0}));
  EXPECT_EQ(c.malformed(), 4u);
  EXPECT_THROW(c.add_own(1, point(2, 0.0)), std::invalid_argument);
}

TEST(RoundCollector, RoundsPastTheEndAreDropped) {
  RoundCollector c(SystemParams{4, 1}, /*end=*/2);
  c.add_remote(1, 2, 5.0);
  c.add_remote(1, 1'000'000, 5.0);
  EXPECT_THROW(c.add_own(2, 1.0), std::invalid_argument);
  c.add_own(1, 1.0);
  c.add_remote(2, 1, 2.0);
  c.add_remote(3, 1, 3.0);
  EXPECT_TRUE(c.ready(1));
}

TEST(RoundCollector, LookaheadDropsOnlyUntilTheRoundComesNear) {
  RoundCollector c(SystemParams{4, 1}, kNoRound, /*lookahead=*/2);
  c.add_remote(1, 2, 5.0);  // 2 rounds ahead of round 0: dropped
  c.forget_before(1);
  c.add_remote(3, 2, 7.0);  // 1 round ahead of round 1: kept
  c.add_own(2, 1.0);
  EXPECT_FALSE(c.ready(2));
  c.add_remote(1, 2, 5.0);
  ASSERT_TRUE(c.ready(2));
  EXPECT_EQ(values(c.view(2)), (std::vector<double>{7.0, 1.0, 5.0}));
}

TEST(RoundCollector, ForgottenRoundsStayForgotten) {
  RoundCollector c(SystemParams{4, 1});
  c.forget_before(5);
  c.add_remote(1, 4, 1.0);  // below the oldest live round
  EXPECT_FALSE(c.ready(4));
  EXPECT_THROW(static_cast<void>(c.contributors(4)), std::invalid_argument);
  EXPECT_TRUE(c.contributors(5).empty());
}

}  // namespace
}  // namespace apxa::core
