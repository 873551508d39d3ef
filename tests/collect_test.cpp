// The view-equalized collect layer (core/collect.hpp) end to end:
// ProtocolKind::kVectorConvexRB routes convex-AA rounds through vector
// Bracha reliable broadcast plus an AAD'04-style witness phase, so
//
//   (a) every honest party's frozen round-r view holds at most one value
//       per origin, and any two honest parties agree on every origin they
//       share (RB uniqueness + agreement) — even against an attacker that
//       equivocates its RB SENDs per receiver;
//   (b) any two honest round-r views overlap in >= n - t common entries
//       drawn from a common pool (the witness-overlap property);
//   (c) plain quorum collect (kVectorConvex) provably lacks (b): the same
//       equivocation drives the measured overlap below n - t — the pinned
//       contrast that separates the two protocol kinds.
//
// (a) and (b) are asserted on BOTH backends (the parity suite runs in the
// TSan lane); the quorum contrast is pinned on the deterministic simulator.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <set>

#include "adversary/byzantine.hpp"
#include "adversary/crash_plan.hpp"
#include "harness/build.hpp"
#include "harness/harness.hpp"
#include "harness/run_many.hpp"

namespace apxa::harness {
namespace {

using namespace std::chrono_literals;

VectorRunConfig rb_base(SystemParams p, std::uint32_t dim, Round rounds,
                        std::uint64_t seed) {
  VectorRunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kVectorConvexRB;
  cfg.dim = dim;
  cfg.fixed_rounds = rounds;
  cfg.epsilon = 1e-2;
  Rng rng(seed);
  cfg.inputs = random_vector_inputs(rng, p.n, dim, -5.0, 5.0);
  return cfg;
}

void add_equivocators(VectorRunConfig& cfg, std::uint32_t count) {
  for (std::uint32_t b = 0; b < count; ++b) {
    adversary::ByzSpec s;
    s.who = b;
    s.kind = adversary::ByzKind::kEquivocate;
    s.lo = -5.0;
    s.hi = 5.0;
    s.seed = b + 1;
    cfg.byz.push_back(s);
  }
}

class CollectParity : public ::testing::TestWithParam<BackendKind> {
 protected:
  VectorRunReport run_on_backend(VectorRunConfig cfg) {
    cfg.backend = GetParam();
    cfg.thread_timeout = 60s;
    return run(cfg);
  }
};

TEST_P(CollectParity, FaultFreeConvergesConvexValid) {
  const SystemParams p{7, 1};
  const auto rep = run_on_backend(rb_base(p, 2, 10, 11));
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.convex_validity_ok);
  EXPECT_TRUE(rep.view_overlap_measured);
  EXPECT_TRUE(rep.view_overlap_ok)
      << "min overlap " << rep.view_overlap_min << " < " << p.quorum();
  ASSERT_GE(rep.linf_spread_by_round.size(), 2u);
  EXPECT_LT(rep.linf_spread_by_round.back(),
            0.5 * rep.linf_spread_by_round.front());
}

TEST_P(CollectParity, EquivocatorNeutralized) {
  // t RB-SEND equivocators (adversary::VectorWire::kRbVec): the RB layer
  // must deliver at most one of their per-receiver values — and the witness
  // phase must keep every honest pair's views overlapping in >= n - t
  // entries regardless.
  const SystemParams p{10, 2};
  auto cfg = rb_base(p, 2, 12, 23);
  add_equivocators(cfg, p.t);
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - p.t);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.convex_validity_ok)
      << rep.outputs_outside_hull << " outputs escaped the honest hull";
  EXPECT_TRUE(rep.view_overlap_measured);
  EXPECT_TRUE(rep.view_overlap_ok)
      << "min overlap " << rep.view_overlap_min << " < " << p.quorum();
}

TEST_P(CollectParity, RbDeliversAtMostOnePerSenderAndRound) {
  // Stage the scenario by hand to capture every honest party's frozen views,
  // then check RB uniqueness/agreement pointwise: within one view at most
  // one entry per origin; across any two correct parties' round-r views,
  // entries sharing an origin are bitwise equal.  The equivocator makes
  // this non-vacuous: its per-receiver SEND values differ, so any leak of
  // un-equalized values shows up as an origin with two values.
  SystemParams p{7, 1};
  auto cfg = rb_base(p, 2, 8, 37);
  add_equivocators(cfg, p.t);
  cfg.backend = GetParam();
  cfg.thread_timeout = 60s;

  std::map<Round, std::map<ProcessId, std::vector<core::CollectEntry>>> views;
  std::mutex mu;
  core::ViewTraceFn view_fn =
      [&](ProcessId party, Round r, const std::vector<core::CollectEntry>& v) {
        std::scoped_lock lock(mu);
        views[r][party] = v;
      };
  const auto backend = make_backend(cfg);
  stage(cfg, {}, *backend, view_fn);
  exec::ExecOptions opts;
  opts.timeout = 60s;
  const auto res = backend->run(opts);
  EXPECT_TRUE(res.all_correct_output);

  ASSERT_FALSE(views.empty());
  for (const auto& [round, by_party] : views) {
    for (const auto& [party, view] : by_party) {
      EXPECT_GE(view.size(), p.quorum());
      std::set<ProcessId> origins;
      bool own_present = false;
      for (const auto& e : view) {
        EXPECT_TRUE(origins.insert(e.origin).second)
            << "round " << round << ": party " << party
            << " holds two values for origin " << e.origin;
        own_present |= e.origin == party;
      }
      EXPECT_TRUE(own_present)
          << "round " << round << ": party " << party << " lost its own entry";
    }
    for (auto a = by_party.begin(); a != by_party.end(); ++a) {
      for (auto b = std::next(a); b != by_party.end(); ++b) {
        for (const auto& ea : a->second) {
          for (const auto& eb : b->second) {
            if (ea.origin != eb.origin) continue;
            EXPECT_EQ(ea.value, eb.value)
                << "round " << round << ": parties " << a->first << " and "
                << b->first << " delivered different values for origin "
                << ea.origin << " — RB agreement broken";
          }
        }
      }
    }
  }
}

TEST_P(CollectParity, CrashFaultsStayLiveAndConvexValid) {
  const SystemParams p{8, 2};
  auto cfg = rb_base(p, 3, 8, 41);
  cfg.crashes = {adversary::partial_multicast_crash(p, 7, /*full_rounds=*/1,
                                                    {0, 1, 2})};
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - 1);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.convex_validity_ok);
  EXPECT_TRUE(rep.view_overlap_ok);
}

TEST_P(CollectParity, ZeroRoundsOutputsInputs) {
  const auto rep = run_on_backend(rb_base({7, 1}, 2, 0, 43));
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), 7u);
  EXPECT_EQ(rep.metrics.messages_sent, 0u);
  EXPECT_TRUE(rep.convex_validity_ok);
}

INSTANTIATE_TEST_SUITE_P(Backends, CollectParity,
                         ::testing::Values(BackendKind::kSim,
                                           BackendKind::kThread),
                         [](const auto& info) {
                           return info.param == BackendKind::kSim ? "sim"
                                                                  : "thread";
                         });

// --- simulator-only properties ---------------------------------------------

// The separation the equalized collect layer exists for, pinned to one
// deterministic scenario: the SAME inputs and the SAME equivocation strategy
// drive plain quorum collect below the n - t view-overlap bound, while the
// RB collect keeps the bound, stays convex-valid, and still reaches
// eps-agreement within the round budget.  Mirrors the acceptance gate on
// bench/f6_multidim's convex_rb_vs_quorum section.
TEST(CollectSim, EquivocationSeparatesQuorumFromRbCollect) {
  const SystemParams p{10, 2};
  auto cfg = rb_base(p, 2, 12, 23);
  add_equivocators(cfg, p.t);

  auto quorum = cfg;
  quorum.protocol = ProtocolKind::kVectorConvex;
  const auto quorum_rep = run(quorum);
  EXPECT_TRUE(quorum_rep.view_overlap_measured);
  EXPECT_FALSE(quorum_rep.view_overlap_ok)
      << "quorum collect unexpectedly equalized (min overlap "
      << quorum_rep.view_overlap_min << "); the contrast regressed";
  EXPECT_LT(quorum_rep.view_overlap_min, p.quorum());

  const auto rb_rep = run(cfg);
  EXPECT_TRUE(rb_rep.view_overlap_ok);
  EXPECT_TRUE(rb_rep.convex_validity_ok);
  EXPECT_TRUE(rb_rep.reached_eps);
  EXPECT_LE(rb_rep.rounds_to_eps, 12u);
  // The equalization price: RB traffic dominates and total messages grow by
  // roughly a factor n over the quorum collect's one-multicast-per-round.
  EXPECT_GT(rb_rep.msgs_rb_echo, 0u);
  EXPECT_GT(rb_rep.msgs_report, 0u);
  EXPECT_GT(rb_rep.metrics.messages_sent, 3 * quorum_rep.metrics.messages_sent);
}

TEST(CollectSim, AllSchedulersKeepOverlapAndValidity) {
  const SystemParams p{8, 1};
  for (const SchedKind sched :
       {SchedKind::kRandom, SchedKind::kFifo, SchedKind::kGreedySplit,
        SchedKind::kTargeted, SchedKind::kClique}) {
    auto cfg = rb_base(p, 2, 6, 53);
    add_equivocators(cfg, p.t);
    cfg.sched = sched;
    const auto rep = run(cfg);
    EXPECT_TRUE(rep.all_output) << "scheduler " << static_cast<int>(sched);
    EXPECT_TRUE(rep.view_overlap_ok)
        << "scheduler " << static_cast<int>(sched) << ": min overlap "
        << rep.view_overlap_min;
    EXPECT_TRUE(rep.convex_validity_ok);
  }
}

TEST(CollectSim, RunManyMatchesSerialRuns) {
  std::vector<VectorRunConfig> grid;
  for (std::uint32_t d : {2u, 3u}) {
    auto cfg = rb_base({7, 1}, d, 6, 60 + d);
    add_equivocators(cfg, 1);
    grid.push_back(std::move(cfg));
  }
  const auto sweep = run_many(grid);
  ASSERT_EQ(sweep.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto serial = run(grid[i]);
    EXPECT_EQ(sweep[i].outputs, serial.outputs);
    EXPECT_EQ(sweep[i].view_overlap_min, serial.view_overlap_min);
    EXPECT_EQ(sweep[i].metrics.messages_sent, serial.metrics.messages_sent);
  }
}

TEST(CollectSim, PhaseCountersAttributeTheEqualizationCost) {
  // Quorum collect: all traffic is direct value messages.  Equalized
  // collect: no direct value messages at all — everything is RB + reports,
  // and the per-round counters attribute every send to a round.
  const SystemParams p{7, 1};
  auto quorum = rb_base(p, 2, 4, 71);
  quorum.protocol = ProtocolKind::kVectorConvex;
  const auto q = run(quorum);
  EXPECT_GT(q.msgs_value, 0u);
  EXPECT_EQ(q.msgs_rb_send + q.msgs_rb_echo + q.msgs_rb_ready + q.msgs_report,
            0u);

  const auto r = run(rb_base(p, 2, 4, 71));
  EXPECT_EQ(r.msgs_value, 0u);
  EXPECT_GT(r.msgs_rb_send, 0u);
  EXPECT_GT(r.msgs_rb_echo, r.msgs_rb_send);  // echoes are n-fold per SEND
  EXPECT_GT(r.msgs_report, 0u);
  const auto total = r.msgs_rb_send + r.msgs_rb_echo + r.msgs_rb_ready +
                     r.msgs_report;
  EXPECT_EQ(total, r.metrics.messages_sent);
  std::uint64_t by_round = 0;
  for (const auto c : r.metrics.sent_by_round) by_round += c;
  EXPECT_EQ(by_round, r.metrics.messages_sent);
}

TEST(CollectSim, ByzantineWireGarbageIsDiscardedNotFatal) {
  // A byzantine peer floods RB SENDs under instances far beyond the round
  // budget (each would otherwise cost every honest party a permanent hub
  // slot and a Theta(n^2) echo wave), reports for absurd iterations, and RB
  // messages claiming an out-of-range origin (which once hit an ENSURE and
  // would have crashed every honest party).  All of it must be silently
  // discarded: the run stays live, valid and equalized.
  class WireGarbageAttacker final : public net::Process {
   public:
    void on_start(net::Context& ctx) override {
      const auto n = ctx.params().n;
      for (ProcessId to = 0; to < n; ++to) {
        if (to == ctx.self()) continue;
        for (std::uint32_t k = 0; k < 32; ++k) {
          ctx.send(to, core::encode_rb_vec(core::RbVecMsg{
                           core::MsgType::kRbVecSend, 1'000'000 + k,
                           ctx.self(), {1.0, 2.0}}));
        }
        ctx.send(to, core::encode_rb_vec(core::RbVecMsg{
                         core::MsgType::kRbVecSend, 0, /*origin=*/n + 7,
                         {0.0, 0.0}}));
        ctx.send(to, core::encode_report(
                         core::ReportMsg{2'000'000,
                                         std::vector<bool>(n, true)}));
      }
    }
    void on_message(net::Context&, ProcessId, BytesView) override {}
  };

  SystemParams p{7, 1};
  auto cfg = rb_base(p, 2, 6, 91);
  cfg.byz = {};  // the garbage attacker takes the byzantine slot by hand

  const auto backend = make_backend(cfg);
  std::map<Round, std::map<ProcessId, std::vector<core::CollectEntry>>> views;
  std::mutex mu;
  core::ViewTraceFn view_fn =
      [&](ProcessId party, Round r, const std::vector<core::CollectEntry>& v) {
        std::scoped_lock lock(mu);
        views[r][party] = v;
      };
  for (ProcessId id = 0; id < p.n; ++id) {
    if (id == 0) {
      backend->add_process(std::make_unique<WireGarbageAttacker>());
      continue;
    }
    core::VectorAaConfig cc;
    cc.params = p;
    cc.dim = 2;
    cc.input = cfg.inputs[id];
    cc.fixed_rounds = cfg.fixed_rounds;
    cc.rule = geom::SafeAreaOptions{};
    cc.collect = core::CollectMode::kEqualized;
    cc.view_trace = view_fn;
    backend->add_process(std::make_unique<core::VectorAaProcess>(cc));
  }
  backend->mark_byzantine(0);
  const auto res = backend->run({});
  EXPECT_TRUE(res.all_correct_output);
  ASSERT_EQ(res.vector_outputs.size(), p.n - 1);
  // No forged instance/origin content may reach any frozen view.
  for (const auto& [round, by_party] : views) {
    EXPECT_LT(round, cfg.fixed_rounds);
    for (const auto& [party, view] : by_party) {
      for (const auto& e : view) EXPECT_LT(e.origin, p.n);
    }
  }
}

TEST(CollectSim, ValidatesResilience) {
  auto cfg = rb_base({6, 2}, 2, 4, 83);
  EXPECT_THROW(run(cfg), std::invalid_argument);
  auto no_faults = rb_base({4, 0}, 2, 4, 83);
  EXPECT_THROW(run(no_faults), std::invalid_argument);
}

}  // namespace
}  // namespace apxa::harness
