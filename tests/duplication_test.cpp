// Link-level duplication: the model's links are reliable but not at-most-
// once; every protocol in the library must be idempotent under duplicated
// deliveries (collectors dedupe senders per round, RB voter sets dedupe,
// witness report acceptance is per-reporter).
#include <gtest/gtest.h>

#include <memory>

#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"
#include "net/sim.hpp"
#include "rb/bracha.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/random_scheduler.hpp"
#include "witness/aad04.hpp"

namespace apxa {
namespace {

using namespace core;
using namespace harness;

TEST(Duplication, DeliveriesExceedSendsAtHighProbability) {
  const SystemParams p{5, 1};
  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(1));
  net.enable_duplication(1.0, 7);  // every message duplicated
  for (ProcessId i = 0; i < 5; ++i) {
    net.add_process(std::make_unique<RoundAaProcess>(
        crash_aa_config(p, static_cast<double>(i), 2)));
  }
  net.start();
  net.run();  // drain fully so every duplicate lands
  EXPECT_TRUE(net.inbox().all_correct_output());
  EXPECT_EQ(net.metrics().messages_delivered, 2 * net.metrics().messages_sent);
}

TEST(Duplication, CrashProtocolSafetyUnchanged) {
  for (const double prob : {0.3, 1.0}) {
    const SystemParams p{7, 2};
    net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(3));
    net.enable_duplication(prob, 11);
    const Round rounds = rounds_for_bound(1.0, 1e-3, Averager::kMean, p);
    for (ProcessId i = 0; i < 7; ++i) {
      net.add_process(std::make_unique<RoundAaProcess>(
          crash_aa_config(p, static_cast<double>(i) / 6.0, rounds)));
    }
    net.crash_after_sends(0, 10);
    net.start();
    net.run_until([&net] { return net.inbox().all_correct_output(); });
    ASSERT_TRUE(net.inbox().all_correct_output());
    const auto outs = net.inbox().correct_outputs();
    std::vector<double> sorted = outs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_LE(sorted.back() - sorted.front(), 1e-3 + 1e-12);
    EXPECT_GE(sorted.front(), 0.0);
    EXPECT_LE(sorted.back(), 1.0);
  }
}

TEST(Duplication, OutputsIdenticalToDedupedRun) {
  // Duplication must not change the *result*, only the traffic: the round
  // collector freezes on the first quorum regardless of replays.  (Delays
  // differ between the runs, so we assert invariants, not bit-equality.)
  const SystemParams p{5, 1};
  auto run_with_dup = [&](bool dup) {
    net::SimNetwork net(p, std::make_unique<sched::FifoScheduler>());
    if (dup) net.enable_duplication(1.0, 5);
    for (ProcessId i = 0; i < 5; ++i) {
      net.add_process(std::make_unique<RoundAaProcess>(
          crash_aa_config(p, static_cast<double>(i), 3)));
    }
    net.start();
    net.run_until([&net] { return net.inbox().all_correct_output(); });
    return net.inbox().correct_outputs();
  };
  // Under the constant-delay FIFO schedule the duplicate arrives together
  // with the original and is dropped by the dedupe logic: identical outputs.
  EXPECT_EQ(run_with_dup(false), run_with_dup(true));
}

TEST(Duplication, BrachaDeliversExactlyOnce) {
  const SystemParams p{4, 1};

  /// Minimal RB harness counting deliveries.
  class Party final : public net::Process {
   public:
    explicit Party(SystemParams params, bool is_origin)
        : is_origin_(is_origin),
          hub_(params, [this](net::Context&, std::uint32_t, ProcessId, double) {
            ++deliveries_;
          }) {}
    void on_start(net::Context& ctx) override {
      if (is_origin_) hub_.broadcast(ctx, 0, 3.25);
    }
    void on_message(net::Context& ctx, ProcessId from, BytesView payload) override {
      hub_.handle(ctx, from, payload);
    }
    bool is_origin_;
    int deliveries_ = 0;
    rb::BrachaHub hub_;
  };

  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(9));
  net.enable_duplication(1.0, 13);
  std::vector<Party*> parties;
  for (ProcessId i = 0; i < 4; ++i) {
    auto party = std::make_unique<Party>(p, i == 0);
    parties.push_back(party.get());
    net.add_process(std::move(party));
  }
  net.start();
  net.run();
  for (const auto* q : parties) EXPECT_EQ(q->deliveries_, 1);
}

TEST(Duplication, WitnessProtocolUnaffected) {
  RunConfig cfg;  // driver has no duplication knob; use the network directly
  const SystemParams p{7, 2};
  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(21));
  net.enable_duplication(0.5, 17);
  for (ProcessId i = 0; i < 7; ++i) {
    witness::WitnessConfig wc;
    wc.params = p;
    wc.input = static_cast<double>(i) / 6.0;
    wc.iterations = 8;
    net.add_process(std::make_unique<witness::WitnessAaProcess>(wc));
  }
  net.start();
  net.run_until([&net] { return net.inbox().all_correct_output(); });
  ASSERT_TRUE(net.inbox().all_correct_output());
  const auto outs = net.inbox().correct_outputs();
  std::vector<double> sorted = outs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_LE(sorted.back() - sorted.front(), 1.0 / 256.0 + 1e-12);
  (void)cfg;
}

TEST(Duplication, ValidatesProbability) {
  net::SimNetwork net({3, 1}, std::make_unique<sched::RandomScheduler>(1));
  EXPECT_THROW(net.enable_duplication(1.5, 1), std::invalid_argument);
  EXPECT_THROW(net.enable_duplication(-0.1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace apxa
