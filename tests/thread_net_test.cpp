// Threaded runtime: the same protocol objects under real concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "core/multiset_ops.hpp"
#include "runtime/thread_net.hpp"

namespace apxa::rt {
namespace {

using namespace std::chrono_literals;

TEST(ThreadNet, CrashAaConvergesFaultFree) {
  const SystemParams p{5, 1};
  ThreadNetwork net(p);
  const std::vector<double> inputs{0.0, 0.25, 0.5, 0.75, 1.0};
  const double eps = 1e-3;
  const Round rounds =
      core::rounds_for_bound(1.0, eps, core::Averager::kMean, p);
  for (ProcessId i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(p, inputs[i], rounds)));
  }
  ASSERT_TRUE(net.run(10s));
  const auto outs = net.inbox().correct_outputs();
  ASSERT_EQ(outs.size(), p.n);
  const auto [mn, mx] = std::minmax_element(outs.begin(), outs.end());
  EXPECT_LE(*mx - *mn, eps);
  EXPECT_GE(*mn, 0.0);
  EXPECT_LE(*mx, 1.0);
}

TEST(ThreadNet, SurvivesCrashedParty) {
  const SystemParams p{5, 1};
  ThreadNetwork net(p);
  const Round rounds = 6;
  for (ProcessId i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(p, static_cast<double>(i), rounds)));
  }
  net.crash(4);  // crashed before start: silent the whole run
  ASSERT_TRUE(net.run(10s));
  const auto outs = net.inbox().correct_outputs();
  EXPECT_EQ(outs.size(), 4u);
  for (double y : outs) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 4.0);
  }
}

TEST(ThreadNet, AdaptiveModeTerminates) {
  const SystemParams p{7, 2};
  ThreadNetwork net(p);
  for (ProcessId i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_adaptive_config(p, static_cast<double>(i) * 3.0, 1e-2)));
  }
  ASSERT_TRUE(net.run(20s));
  EXPECT_EQ(net.inbox().correct_outputs().size(), p.n);
}

TEST(ThreadNet, MetricsAccumulate) {
  const SystemParams p{4, 1};
  ThreadNetwork net(p);
  for (ProcessId i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(p, static_cast<double>(i), 3)));
  }
  ASSERT_TRUE(net.run(10s));
  // 3 rounds of 4 * 3 messages each (all parties run all rounds).
  EXPECT_EQ(net.metrics().messages_sent, 36u);
  EXPECT_GT(net.metrics().payload_bytes, 0u);
}

TEST(ThreadNet, RepeatedRunsAreIndependent) {
  for (int rep = 0; rep < 3; ++rep) {
    const SystemParams p{4, 1};
    ThreadNetwork net(p);
    for (ProcessId i = 0; i < p.n; ++i) {
      net.add_process(std::make_unique<core::RoundAaProcess>(
          core::crash_aa_config(p, 1.0, 2)));
    }
    ASSERT_TRUE(net.run(10s));
    for (double y : net.inbox().correct_outputs()) EXPECT_EQ(y, 1.0);
  }
}

TEST(ThreadNet, ValidatesUsage) {
  ThreadNetwork net(SystemParams{2, 0});
  EXPECT_THROW(net.run(1s), std::invalid_argument);  // processes missing
}

TEST(ThreadNet, CrashAfterSendsStopsMidMulticast) {
  // Simulator-parity semantics: the victim's first k sends go out, the
  // (k+1)-th is dropped and the party stops receiving.
  const SystemParams p{5, 1};
  ThreadNetwork net(p);
  const Round rounds = 4;
  for (ProcessId i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(p, static_cast<double>(i), rounds)));
  }
  // Victim 4's round-0 multicast reaches only parties {0, 1}: the third
  // send fires the crash and the fourth finds the party already crashed.
  // Both happen inside on_start, so the drop count is deterministic even
  // under OS scheduling (and matches the simulator's accounting exactly).
  net.set_multicast_order(4, {0, 1, 2, 3});
  net.crash_after_sends(4, 2);
  ASSERT_TRUE(net.run(20s));
  EXPECT_FALSE(net.inbox().is_correct(4));
  const auto outs = net.inbox().correct_outputs();
  ASSERT_EQ(outs.size(), 4u);
  for (double y : outs) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 4.0);
  }
  EXPECT_EQ(net.metrics().sent_by[4], 2u);
  EXPECT_EQ(net.metrics().messages_dropped, 2u);
}

TEST(ThreadNet, CrashExactlyAtSendBudgetStopsReceiving) {
  // Simulator parity for the boundary case: a limit that lands exactly on a
  // send the party makes takes effect immediately — even if the party never
  // attempts another send, it must stop receiving and be reported crashed.
  const SystemParams p{5, 1};
  ThreadNetwork net(p);
  const Round rounds = 3;
  for (ProcessId i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(p, static_cast<double>(i), rounds)));
  }
  // The budget covers every multicast of the full run: the crash fires on
  // the last send the party would ever make.
  net.crash_after_sends(4, static_cast<std::uint64_t>(rounds) * (p.n - 1));
  ASSERT_TRUE(net.run(20s));
  EXPECT_FALSE(net.inbox().is_correct(4));
  // Crashed right after its final-round multicast, before receiving the
  // final-round quorum: it must not produce an output.
  EXPECT_FALSE(net.inbox().process(4).has_output());
  EXPECT_EQ(net.inbox().correct_outputs().size(), 4u);
}

TEST(ThreadNet, CrashAfterSendsCountsLogicalSendsUnderBatching) {
  // Send batching must not change crash semantics: the budget counts LOGICAL
  // sends (frames), not packets, and pre-crash buffered frames still flush.
  // Same scenario as CrashAfterSendsStopsMidMulticast, so the observable
  // outcome must be identical with batching on.
  const SystemParams p{5, 1};
  ThreadNetwork net(p);
  const Round rounds = 4;
  for (ProcessId i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(p, static_cast<double>(i), rounds)));
  }
  net.enable_batching(8);
  net.set_multicast_order(4, {0, 1, 2, 3});
  net.crash_after_sends(4, 2);
  ASSERT_TRUE(net.run(20s));
  EXPECT_FALSE(net.inbox().is_correct(4));
  const auto outs = net.inbox().correct_outputs();
  ASSERT_EQ(outs.size(), 4u);
  for (double y : outs) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 4.0);
  }
  // Frames 1 and 2 of the victim's round-0 multicast were buffered before
  // the crash; both must still reach the wire and be counted as its sends.
  EXPECT_EQ(net.metrics().sent_by[4], 2u);
  EXPECT_EQ(net.metrics().messages_dropped, 2u);
}

TEST(ThreadNet, BatchingPreservesResultAndLogicalCounts) {
  // The batched run converges to the same kind of verdict as unbatched, with
  // identical LOGICAL message counts and strictly fewer-or-equal packets.
  auto run_once = [](std::uint32_t batch) {
    const SystemParams p{4, 1};
    ThreadNetwork net(p);
    for (ProcessId i = 0; i < p.n; ++i) {
      net.add_process(std::make_unique<core::RoundAaProcess>(
          core::crash_aa_config(p, static_cast<double>(i), 3)));
    }
    if (batch > 0) net.enable_batching(batch);
    EXPECT_TRUE(net.run(10s));
    EXPECT_EQ(net.inbox().correct_outputs().size(), p.n);
    return net.metrics();
  };
  const auto plain = run_once(0);
  const auto batched = run_once(8);
  EXPECT_EQ(plain.messages_sent, 36u);
  EXPECT_EQ(batched.messages_sent, 36u);
  EXPECT_LE(batched.packets_sent, batched.messages_sent);
  EXPECT_EQ(plain.packets_sent, plain.messages_sent);
}

TEST(ThreadNet, ShardedDeliveryConvergesWithFewShards) {
  // More parties than delivery shards: the sharded mailbox must still give
  // every party a single-threaded upcall stream and reach agreement.
  const SystemParams p{7, 2};
  ThreadNetwork net(p);
  net.set_shards(2);
  EXPECT_EQ(net.shards(), 2u);
  const std::vector<double> inputs{0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  for (ProcessId i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(p, inputs[i], 5)));
  }
  ASSERT_TRUE(net.run(20s));
  EXPECT_EQ(net.inbox().correct_outputs().size(), p.n);
}

TEST(ThreadNet, CrashAfterZeroSendsIsStartupCrash) {
  const SystemParams p{5, 1};
  ThreadNetwork net(p);
  for (ProcessId i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(p, static_cast<double>(i), 3)));
  }
  net.crash_after_sends(0, 0);
  ASSERT_TRUE(net.run(20s));
  EXPECT_EQ(net.inbox().correct_outputs().size(), 4u);
  // A startup-crashed party never sends.
  EXPECT_EQ(net.metrics().sent_by[0], 0u);
}

namespace {
/// A party that never sends and never outputs.
class InertProcess final : public net::Process {
 public:
  void on_start(net::Context&) override {}
  void on_message(net::Context&, ProcessId, BytesView) override {}
};
}  // namespace

TEST(ThreadNet, ExternalCrashOfLastBlockerEndsRun) {
  const SystemParams p{4, 1};
  ThreadNetwork net(p);
  for (ProcessId i = 0; i + 1 < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(p, static_cast<double>(i), 3)));
  }
  net.add_process(std::make_unique<InertProcess>());  // correct, never outputs
  // Each honest party counts once, when its probe first holds (a latched
  // party is never probed again); then party 3 alone blocks, and another
  // thread crashes it while run() waits.
  std::atomic<int> honest_done{0};
  std::jthread crasher([&] {
    for (int seen = 0; seen < 3; seen = honest_done.load()) {
      honest_done.wait(seen);
    }
    net.crash(3);
  });
  const bool completed = net.run(60s, [&honest_done](const net::Process& proc) {
    if (!proc.has_output()) return false;
    ++honest_done;
    honest_done.notify_one();
    return true;
  });
  honest_done = 3;  // releases the crasher if run() timed out
  honest_done.notify_one();
  crasher.join();
  ASSERT_TRUE(completed);
  EXPECT_FALSE(net.inbox().is_correct(3));
  EXPECT_EQ(net.inbox().correct_outputs().size(), 3u);
}

TEST(ThreadNet, ByzantinePartyExcludedFromCompletionWait) {
  const SystemParams p{4, 1};
  ThreadNetwork net(p);
  for (ProcessId i = 0; i + 1 < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(p, static_cast<double>(i), 3)));
  }
  net.add_process(std::make_unique<InertProcess>());
  net.mark_byzantine(3);
  // Honest parties wait for n - t = 3 values per round (self + two peers),
  // so they terminate without the silent byzantine party — and run() must
  // not wait for its (never-appearing) output either.
  ASSERT_TRUE(net.run(20s));
  EXPECT_FALSE(net.inbox().is_correct(3));
  EXPECT_EQ(net.inbox().correct_outputs().size(), 3u);
}

}  // namespace
}  // namespace apxa::rt
