// Multidimensional (coordinate-wise) approximate agreement in R^d.
#include <gtest/gtest.h>

#include <cmath>

#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "core/codec.hpp"
#include "core/multidim.hpp"
#include "harness/harness.hpp"

namespace apxa::core {
namespace {

using harness::SchedKind;

/// A coordinate-wise crash-model run on the simulator.
harness::VectorRunConfig base(std::uint32_t n, std::uint32_t t,
                              std::uint32_t dim, double eps = 1e-3) {
  harness::VectorRunConfig cfg;
  cfg.params = {n, t};
  cfg.protocol = harness::ProtocolKind::kVectorCrash;
  cfg.backend = harness::BackendKind::kSim;
  cfg.dim = dim;
  cfg.epsilon = eps;
  return cfg;
}

std::vector<std::vector<double>> grid_inputs(std::uint32_t n, std::uint32_t dim,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n, std::vector<double>(dim));
  for (auto& row : rows) {
    for (auto& x : row) x = rng.next_double(-5.0, 5.0);
  }
  return rows;
}

TEST(VecCodec, RoundTrip) {
  const std::vector<double> v{1.5, -2.25, 0.0};
  const auto bytes = encode_vec_round(9, v);
  const auto d = decode_vec_round(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->first, 9u);
  EXPECT_EQ(d->second, v);
}

TEST(VecCodec, RejectsScalarRoundMessages) {
  // The scalar ROUND codec and the vector codec must not cross-decode.
  const auto scalar = encode_round(RoundMsg{1, 2.0, 0});
  EXPECT_FALSE(decode_vec_round(scalar).has_value());
  const auto vec = encode_vec_round(1, {2.0});
  EXPECT_FALSE(decode_round(vec).has_value());
}

TEST(VecCodec, TruncationRejected) {
  auto bytes = encode_vec_round(1, {1.0, 2.0});
  bytes.pop_back();
  EXPECT_FALSE(decode_vec_round(bytes).has_value());
}

TEST(MultiDim, ConvergesIn2D) {
  auto cfg = base(7, 2, 2, 1e-4);
  cfg.inputs = grid_inputs(7, 2, 3);
  cfg.fixed_rounds = rounds_for_bound(5.0, cfg.epsilon, Averager::kMean, cfg.params);
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_linf_gap;
  ASSERT_FALSE(rep.outputs.empty());
  EXPECT_EQ(rep.outputs[0].size(), 2u);
}

TEST(MultiDim, HighDimension) {
  auto cfg = base(5, 1, 16, 1e-2);
  cfg.inputs = grid_inputs(5, 16, 7);
  cfg.fixed_rounds = rounds_for_bound(5.0, cfg.epsilon, Averager::kMean, cfg.params);
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_linf_gap;
}

TEST(MultiDim, MessageCountIndependentOfDimension) {
  // One message carries all coordinates: msgs identical for d=1 and d=8,
  // bits scale ~linearly in d.
  auto cfg1 = base(6, 1, 1);
  cfg1.inputs = grid_inputs(6, 1, 9);
  cfg1.fixed_rounds = 4;
  const auto rep1 = harness::run(cfg1);

  auto cfg8 = base(6, 1, 8);
  cfg8.inputs = grid_inputs(6, 8, 9);
  cfg8.fixed_rounds = 4;
  const auto rep8 = harness::run(cfg8);

  EXPECT_EQ(rep1.metrics.messages_sent, rep8.metrics.messages_sent);
  EXPECT_GT(rep8.metrics.payload_bytes, 6 * rep1.metrics.payload_bytes);
}

TEST(MultiDim, SurvivesCrashes) {
  auto cfg = base(9, 3, 3, 1e-3);
  cfg.inputs = grid_inputs(9, 3, 11);
  cfg.fixed_rounds = rounds_for_bound(5.0, cfg.epsilon, Averager::kMean, cfg.params);
  Rng rng(13);
  cfg.crashes = adversary::random_crashes(rng, cfg.params, 3, cfg.fixed_rounds);
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_linf_gap;
}

TEST(MultiDim, AdversarialSchedulers) {
  for (const SchedKind sched :
       {SchedKind::kGreedySplit, SchedKind::kClique, SchedKind::kFifo}) {
    auto cfg = base(8, 2, 2, 1e-3);
    cfg.sched = sched;
    cfg.inputs = grid_inputs(8, 2, 21);
    cfg.fixed_rounds =
        rounds_for_bound(5.0, cfg.epsilon, Averager::kMean, cfg.params);
    const auto rep = harness::run(cfg);
    EXPECT_TRUE(rep.all_output) << static_cast<int>(sched);
    EXPECT_TRUE(rep.box_validity_ok);
    EXPECT_TRUE(rep.agreement_ok) << rep.worst_linf_gap;
  }
}

TEST(MultiDim, CoordinatesShrinkInLockstep) {
  // Each coordinate is a 1-D instance: after R rounds each coordinate's
  // spread obeys the 1-D bound independently.
  auto cfg = base(10, 3, 2, 1.0);
  cfg.inputs.assign(10, {0.0, 0.0});
  for (std::uint32_t i = 0; i < 10; ++i) {
    cfg.inputs[i] = {static_cast<double>(i), static_cast<double>(9 - i)};
  }
  cfg.fixed_rounds = 3;
  const auto rep = harness::run(cfg);
  const double k = predicted_factor_crash_async_mean(10, 3);
  const double bound = 9.0 / std::pow(k, 3);
  EXPECT_LE(rep.worst_linf_gap, bound + 1e-9);
}

TEST(MultiDim, ZeroRoundsOutputsInputs) {
  auto cfg = base(4, 1, 2);
  cfg.inputs = grid_inputs(4, 2, 5);
  cfg.fixed_rounds = 0;
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_EQ(rep.outputs, cfg.inputs);
}

TEST(MultiDim, ValidatesConfig) {
  auto cfg = base(4, 1, 2);
  cfg.inputs = grid_inputs(4, 3, 5);  // wrong dim
  cfg.fixed_rounds = 1;
  EXPECT_THROW(harness::run(cfg), std::invalid_argument);

  auto cfg2 = base(4, 2, 2);  // n = 2t
  cfg2.inputs = grid_inputs(4, 2, 5);
  cfg2.fixed_rounds = 1;
  EXPECT_THROW(harness::run(cfg2), std::invalid_argument);
}

}  // namespace
}  // namespace apxa::core
