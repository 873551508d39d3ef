// Work-stealing executor: correctness under deliberately skewed load.
//
// The stealing ThreadNetwork lets idle workers claim runnable parties from
// other shards, so one hot party no longer serializes its home worker's
// whole shard.  The contract that must survive stealing is the transport's
// single-threaded upcall guarantee: a party's on_start/on_message run on at
// most one thread at a time, however many workers fight over it.  These
// tests hammer that guarantee with a token storm aimed at half the parties
// (per-party reentrancy guards count violations), and pin down the
// simulator-parity crash budgets and the set_shards validation surface
// under worker counts both far below and far above n.
//
// Runs in the TSan lane (name matched by the CI regex) — the ownership
// token handoff is exactly the code a data race would corrupt.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/bytes.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "runtime/thread_net.hpp"

namespace apxa::rt {
namespace {

using namespace std::chrono_literals;

// Token-storm process for the stealing stress: party 0 seeds tokens that
// hop deterministically, concentrating on EVEN parties (all homed on shard
// 0 when set_shards(2)) so progress requires shard 1's worker to steal.
// Every upcall enters a per-party reentrancy guard; any concurrent entry is
// a violation of the single-threaded-per-process contract.
class TokenStormProcess final : public net::Process {
 public:
  struct Shared {
    std::atomic<std::uint32_t> overlap_violations{0};
    std::atomic<std::uint64_t> hops{0};
  };

  TokenStormProcess(ProcessId self, std::uint32_t n, std::uint64_t quota,
                    Shared* shared)
      : self_(self), n_(n), quota_(quota), shared_(shared) {}

  void on_start(net::Context& ctx) override {
    Guard g(this);
    if (self_ != 0) return;
    // One multicast so every party is reachable even if no token lands on
    // it, then the storm: 64 tokens aimed at the even parties.
    ctx.multicast(encode_ttl(0));
    for (std::uint32_t i = 0; i < 64; ++i) {
      // Even parties other than the seeder itself.
      ctx.send(2 * (1 + i % (n_ / 2 - 1)), encode_ttl(40));
    }
  }

  void on_message(net::Context& ctx, ProcessId /*from*/,
                  BytesView payload) override {
    Guard g(this);
    shared_->hops.fetch_add(1, std::memory_order_relaxed);
    received_.fetch_add(1, std::memory_order_relaxed);
    // Widen the window a concurrent second owner would need to hit.
    for (int spin = 0; spin < 64; ++spin) {
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
    const std::uint64_t ttl = decode_ttl(payload);
    if (ttl == 0) return;
    // Every 8th hop visits an odd party; the rest cycle through the evens.
    const ProcessId next = (ttl % 8 == 0)
                               ? static_cast<ProcessId>(((self_ + 2) | 1u) % n_)
                               : static_cast<ProcessId>(((self_ + 2) % n_) & ~1u);
    ctx.send(next, encode_ttl(ttl - 1));
  }

  // Completion = absorbed `quota` messages; monotone, as the transport's
  // done-probe contract requires.
  [[nodiscard]] bool has_output() const override {
    return received_.load(std::memory_order_relaxed) >= quota_;
  }

 private:
  struct Guard {
    explicit Guard(TokenStormProcess* p) : p_(p) {
      if (p_->in_upcall_.exchange(true, std::memory_order_acq_rel)) {
        p_->shared_->overlap_violations.fetch_add(1,
                                                  std::memory_order_relaxed);
      }
    }
    ~Guard() { p_->in_upcall_.store(false, std::memory_order_release); }
    TokenStormProcess* p_;
  };

  static Bytes encode_ttl(std::uint64_t ttl) {
    ByteWriter w;
    w.put_varint(ttl);
    return std::move(w).take();
  }
  static std::uint64_t decode_ttl(BytesView payload) {
    ByteReader r(payload);
    return r.get_varint();
  }

  ProcessId self_;
  std::uint32_t n_;
  std::uint64_t quota_;
  Shared* shared_;
  std::atomic<std::uint64_t> received_{0};
  std::atomic<bool> in_upcall_{false};
};

TEST(ThreadSteal, SkewedStormKeepsUpcallsSingleThreaded) {
  // 8 parties, 2 shards: evens home on shard 0, odds on shard 1.  The storm
  // quota forces the even parties through hundreds of upcalls while the odd
  // parties finish almost immediately — shard 1's worker spends the run
  // stealing hot even parties.  Zero guard violations or the ownership
  // token is broken.
  const SystemParams p{8, 0};
  TokenStormProcess::Shared shared;
  ThreadNetwork net(p);
  net.set_shards(2);
  for (ProcessId i = 0; i < p.n; ++i) {
    const std::uint64_t quota = (i % 2 == 0) ? 40 : 1;
    net.add_process(std::make_unique<TokenStormProcess>(i, p.n, quota, &shared));
  }
  ASSERT_TRUE(net.run(30s));
  EXPECT_EQ(shared.overlap_violations.load(), 0u);
  // The storm really ran: well beyond the single seeding multicast.
  EXPECT_GE(shared.hops.load(), 64u);
}

TEST(ThreadSteal, StormSurvivesManyWorkersPerParty) {
  // Workers far beyond n: every party is permanently contested, so any
  // claim/release bug shows up as a guard violation or a lost wakeup hang.
  const SystemParams p{4, 0};
  TokenStormProcess::Shared shared;
  ThreadNetwork net(p);
  net.set_shards(16);
  for (ProcessId i = 0; i < p.n; ++i) {
    const std::uint64_t quota = (i % 2 == 0) ? 40 : 1;
    net.add_process(std::make_unique<TokenStormProcess>(i, p.n, quota, &shared));
  }
  ASSERT_TRUE(net.run(30s));
  EXPECT_EQ(shared.overlap_violations.load(), 0u);
}

TEST(ThreadSteal, CrashBudgetExactUnderStealing) {
  // Simulator-parity crash accounting must not depend on which worker runs
  // the victim: with 2 shards (constant stealing on a 5-party protocol) the
  // victim's third send still fires the crash mid-multicast.
  for (const std::uint32_t shards : {2u, 7u}) {
    SCOPED_TRACE(shards);
    const SystemParams p{5, 1};
    ThreadNetwork net(p);
    net.set_shards(shards);
    for (ProcessId i = 0; i < p.n; ++i) {
      net.add_process(std::make_unique<core::RoundAaProcess>(
          core::crash_aa_config(p, static_cast<double>(i), 4)));
    }
    net.set_multicast_order(4, {0, 1, 2, 3});
    net.crash_after_sends(4, 2);
    ASSERT_TRUE(net.run(30s));
    EXPECT_FALSE(net.inbox().is_correct(4));
    const auto outs = net.inbox().correct_outputs();
    ASSERT_EQ(outs.size(), 4u);
    for (double y : outs) {
      EXPECT_GE(y, 0.0);
      EXPECT_LE(y, 4.0);
    }
  }
}

TEST(ThreadSteal, ConvergesWithSingleWorker) {
  // shards == 1 degenerates to a cooperative single-threaded executor — the
  // stealing path never fires and the run must still converge.
  const SystemParams p{5, 1};
  ThreadNetwork net(p);
  net.set_shards(1);
  const double eps = 1e-3;
  const Round rounds = core::rounds_for_bound(4.0, eps, core::Averager::kMean, p);
  for (ProcessId i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(p, static_cast<double>(i), rounds)));
  }
  ASSERT_TRUE(net.run(30s));
  const auto outs = net.inbox().correct_outputs();
  ASSERT_EQ(outs.size(), p.n);
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_LE(std::abs(outs[i] - outs[0]), eps);
  }
}

TEST(ThreadSteal, ValidatesShardCount) {
  ThreadNetwork net(SystemParams{3, 0});
  EXPECT_THROW(net.set_shards(0), std::invalid_argument);
  EXPECT_THROW(net.set_shards(4097), std::invalid_argument);  // > kMaxShards
  net.set_shards(9);  // more workers than parties is legal
  EXPECT_EQ(net.shards(), 9u);
}

}  // namespace
}  // namespace apxa::rt
