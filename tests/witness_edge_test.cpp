// Witness-protocol edge cases: malformed/undersized reports, laggards fed by
// buffered future-iteration traffic, RB hub state growth, determinism, and
// the protocol running on real threads.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "adversary/byzantine.hpp"
#include "core/bounds.hpp"
#include "core/codec.hpp"
#include "harness/harness.hpp"
#include "net/sim.hpp"
#include "runtime/thread_net.hpp"
#include "sched/clique_scheduler.hpp"
#include "sched/random_scheduler.hpp"
#include "witness/aad04.hpp"

namespace apxa {
namespace {

using namespace core;
using namespace harness;

/// Byzantine party that sends well-formed but malicious REPORT messages:
/// undersized sets (must be rejected) and sets claiming undelivered origins
/// (must never be accepted).
class ReportForger final : public net::Process {
 public:
  void on_start(net::Context& ctx) override {
    const auto n = ctx.params().n;
    // Undersized report: fewer than n - t origins listed.
    ReportMsg small;
    small.iter = 0;
    small.have.assign(n, false);
    small.have[0] = true;
    // Overclaiming report: everything delivered (before anything happened).
    ReportMsg big;
    big.iter = 0;
    big.have.assign(n, true);
    // Wrong-size report.
    ReportMsg bad;
    bad.iter = 0;
    bad.have.assign(n + 3, true);
    for (ProcessId to = 0; to < n; ++to) {
      if (to == ctx.self()) continue;
      ctx.send(to, encode_report(small));
      ctx.send(to, encode_report(big));
      ctx.send(to, encode_report(bad));
    }
  }
  void on_message(net::Context&, ProcessId, BytesView) override {}
};

TEST(WitnessEdge, ForgedReportsHarmless) {
  const SystemParams p{7, 2};
  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(5));
  for (ProcessId i = 0; i < 6; ++i) {
    witness::WitnessConfig wc;
    wc.params = p;
    wc.input = static_cast<double>(i) / 5.0;
    wc.iterations = 6;
    net.add_process(std::make_unique<witness::WitnessAaProcess>(wc));
  }
  net.add_process(std::make_unique<ReportForger>());
  net.mark_byzantine(6);
  net.start();
  net.run_until([&net] { return net.inbox().all_correct_output(); });
  EXPECT_TRUE(net.inbox().all_correct_output());
  for (double y : net.inbox().correct_outputs()) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
  }
}

TEST(WitnessEdge, LaggardCatchesUpUnderCliqueScheduling) {
  // The clique scheduler makes the last t parties permanent stragglers; the
  // buffered-iteration machinery must still carry them to the output.
  RunConfig cfg;
  cfg.params = {7, 2};
  cfg.protocol = ProtocolKind::kWitness;
  cfg.epsilon = 1e-2;
  cfg.inputs = linear_inputs(7, 0.0, 1.0);
  cfg.fixed_rounds = 8;
  cfg.sched = SchedKind::kClique;
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
}

TEST(WitnessEdge, DeterministicReplay) {
  auto run_once = [] {
    RunConfig cfg;
    cfg.params = {7, 2};
    cfg.protocol = ProtocolKind::kWitness;
    cfg.inputs = linear_inputs(7, -1.0, 1.0);
    cfg.fixed_rounds = 6;
    cfg.seed = 1234;
    return run(cfg);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.metrics.messages_sent, b.metrics.messages_sent);
  EXPECT_EQ(a.finish_time, b.finish_time);
}

TEST(WitnessEdge, HubStateBounded) {
  // After a full run, the RB hub holds one slot per (iteration, origin) —
  // not per message.
  const SystemParams p{4, 1};
  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(2));
  std::vector<witness::WitnessAaProcess*> procs;
  for (ProcessId i = 0; i < 4; ++i) {
    witness::WitnessConfig wc;
    wc.params = p;
    wc.input = static_cast<double>(i);
    wc.iterations = 5;
    auto proc = std::make_unique<witness::WitnessAaProcess>(wc);
    procs.push_back(proc.get());
    net.add_process(std::move(proc));
  }
  net.start();
  net.run_until([&net] { return net.inbox().all_correct_output(); });
  ASSERT_TRUE(net.inbox().all_correct_output());
  for (const auto* proc : procs) {
    EXPECT_EQ(proc->phase().live_slots(), std::size_t{5} * p.n);
  }
}

TEST(WitnessEdge, RunsOnRealThreads) {
  const SystemParams p{4, 1};
  rt::ThreadNetwork net(p);
  const double inputs[] = {0.0, 0.25, 0.75, 1.0};
  const Round iters =
      std::max<Round>(1, rounds_needed(2.0, 1e-3, predicted_factor_witness()));
  for (ProcessId i = 0; i < 4; ++i) {
    witness::WitnessConfig wc;
    wc.params = p;
    wc.input = inputs[i];
    wc.iterations = iters;
    net.add_process(std::make_unique<witness::WitnessAaProcess>(wc));
  }
  ASSERT_TRUE(net.run(std::chrono::seconds(20)));
  const auto outs = net.inbox().correct_outputs();
  ASSERT_EQ(outs.size(), 4u);
  const auto [mn, mx] = std::minmax_element(outs.begin(), outs.end());
  EXPECT_LE(*mx - *mn, 1e-3);
  EXPECT_GE(*mn, 0.0);
  EXPECT_LE(*mx, 1.0);
}

TEST(WitnessEdge, SingleIterationIsOneHalving) {
  RunConfig cfg;
  cfg.params = {7, 2};
  cfg.protocol = ProtocolKind::kWitness;
  cfg.inputs = split_inputs(7, 3, 0.0, 1.0);
  cfg.fixed_rounds = 1;
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  // One iteration: outputs within the hull, spread at most half.
  EXPECT_LE(rep.worst_pair_gap, 0.5 + 1e-9);
  EXPECT_TRUE(rep.validity_ok);
}

/// Test double: counts what a process sends, never delivers.
class CountingContext final : public net::Context {
 public:
  explicit CountingContext(SystemParams p) : params_(p) {}
  void send(ProcessId, net::Payload) override { ++sends; }
  void multicast(net::Payload) override { ++multicasts; }
  [[nodiscard]] ProcessId self() const override { return 0; }
  [[nodiscard]] SystemParams params() const override { return params_; }
  int sends = 0, multicasts = 0;

 private:
  SystemParams params_;
};

TEST(WitnessEdge, OutOfBudgetInstancesGetNoReply) {
  // No honest party broadcasts or reports at an iteration >= the budget, so
  // SEND/ECHO/READY and REPORT traffic there is forged: a correct party must
  // not echo it into Theta(n^2) honest messages (or keep state for it).
  const SystemParams p{4, 1};
  const std::uint32_t iterations = 3;
  witness::WitnessConfig wc;
  wc.params = p;
  wc.input = 0.5;
  wc.iterations = iterations;
  witness::WitnessAaProcess proc(wc);
  CountingContext ctx(p);
  proc.on_start(ctx);
  const int sends0 = ctx.sends, multicasts0 = ctx.multicasts;

  const std::vector<bool> all(p.n, true);
  for (const std::uint32_t inst : {iterations, std::uint32_t{1'000'000}}) {
    proc.on_message(ctx, 1, encode_rb(RbMsg{MsgType::kRbSend, inst, 1, 7.0}));
    for (ProcessId voter = 1; voter < p.n; ++voter) {
      proc.on_message(ctx, voter, encode_rb(RbMsg{MsgType::kRbEcho, inst, 2, 7.0}));
      proc.on_message(ctx, voter, encode_rb(RbMsg{MsgType::kRbReady, inst, 2, 7.0}));
      proc.on_message(ctx, voter, encode_report(ReportMsg{inst, all}));
    }
  }
  EXPECT_EQ(ctx.sends, sends0);
  EXPECT_EQ(ctx.multicasts, multicasts0);
  EXPECT_FALSE(proc.has_output());

  // Control: the same SEND inside the budget is echoed.
  proc.on_message(ctx, 1, encode_rb(RbMsg{MsgType::kRbSend, iterations - 1, 1, 7.0}));
  EXPECT_GT(ctx.sends + ctx.multicasts, sends0 + multicasts0);
}

TEST(WitnessEdge, OutOfBudgetTrafficIsOnlyTheAttackersOwn) {
  // n = 16, t = 5 equivocators, 10 iterations: the attackers escalate to
  // their max_instances cap, but every message tagged at an iteration >= 10
  // must be one of their own SENDs — honest parties add nothing there.
  RunConfig cfg;
  cfg.params = {16, 5};
  cfg.protocol = ProtocolKind::kWitness;
  cfg.inputs = linear_inputs(16, 0.0, 1.0);
  cfg.fixed_rounds = 10;
  cfg.seed = 2;
  for (ProcessId b = 11; b < 16; ++b) {
    adversary::ByzSpec spec;
    spec.who = b;
    spec.kind = adversary::ByzKind::kEquivocate;
    cfg.byz.push_back(spec);
  }
  const auto rep = run(cfg);
  ASSERT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  std::uint64_t above = 0;
  const auto& by_round = rep.metrics.sent_by_round;
  for (std::size_t r = cfg.fixed_rounds; r < by_round.size(); ++r) above += by_round[r];
  const std::uint64_t attackers = cfg.byz.size();
  const std::uint64_t cap = adversary::ByzSpec{}.max_instances;
  EXPECT_EQ(above, attackers * (cfg.params.n - 1) * (cap - cfg.fixed_rounds));
}

}  // namespace
}  // namespace apxa
