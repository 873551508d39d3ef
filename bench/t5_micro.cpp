// T5 — Substrate microbenchmarks (google-benchmark).
//
// Raw costs of the building blocks: averaging rules, codec, simulator event
// loop and its per-message dispatch, reliable broadcast (end to end and the Bracha hub alone), the
// safe-area geometry of convex-valid vector AA, and the analytic worst-case
// search.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <memory>

#include "analysis/worst_case.hpp"
#include "common/rng.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "core/codec.hpp"
#include "core/epsilon_driver.hpp"
#include "core/multiset_ops.hpp"
#include "geom/safe_area.hpp"
#include "net/sim.hpp"
#include "obs/trace.hpp"
#include "rb/bracha.hpp"
#include "runtime/thread_net.hpp"
#include "sched/random_scheduler.hpp"

namespace {

using namespace apxa;
using namespace apxa::core;

void BM_ApplyAverager(benchmark::State& state) {
  const auto avg = static_cast<Averager>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  Rng rng(1);
  std::vector<double> values(m);
  for (auto& v : values) v = rng.next_double();
  for (auto _ : state) {
    auto copy = values;
    benchmark::DoNotOptimize(apply_averager(avg, std::move(copy), 3));
  }
}
BENCHMARK(BM_ApplyAverager)
    ->Args({static_cast<int>(Averager::kMean), 64})
    ->Args({static_cast<int>(Averager::kMean), 1024})
    ->Args({static_cast<int>(Averager::kDlpswAsync), 64})
    ->Args({static_cast<int>(Averager::kDlpswAsync), 1024});

void BM_CodecRoundTrip(benchmark::State& state) {
  const RoundMsg m{123456, 0.123456789, 42};
  for (auto _ : state) {
    const auto bytes = encode_round(m);
    benchmark::DoNotOptimize(decode_round(bytes));
  }
}
BENCHMARK(BM_CodecRoundTrip);

void BM_SimRoundProtocol(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t t = std::max(1u, (n - 1) / 3);
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.params = {n, t};
    cfg.protocol = ProtocolKind::kCrashRound;
    cfg.inputs = linear_inputs(n, 0.0, 1.0);
    cfg.fixed_rounds = 4;
    const auto rep = run_async(cfg);
    msgs += rep.metrics.messages_sent;
    benchmark::DoNotOptimize(rep.outputs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.SetLabel("items = messages simulated");
}
BENCHMARK(BM_SimRoundProtocol)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

/// Relay for BM_SimDelivery: starts `tokens` tokens with a hop budget,
/// forwards every token it receives while budget remains, and decides after
/// its first delivery — except the last party, which never decides, so the
/// run ends by draining the queue with all other parties already done.
class RelayProcess final : public net::Process {
 public:
  RelayProcess(std::uint32_t tokens, std::uint32_t hops)
      : tokens_(tokens), hops_(hops) {}

  void on_start(net::Context& ctx) override {
    for (std::uint32_t i = 0; i < tokens_; ++i) forward(ctx, hops_);
  }

  void on_message(net::Context& ctx, ProcessId, BytesView payload) override {
    ByteReader r(payload);
    r.get_u8();
    const auto left = static_cast<std::uint32_t>(r.get_varint());
    if (ctx.self() + 1 < ctx.params().n) decided_ = true;
    if (left > 0) forward(ctx, left - 1);
  }

  [[nodiscard]] bool has_output() const override { return decided_; }

 private:
  static void forward(net::Context& ctx, std::uint32_t left) {
    const auto n = ctx.params().n;
    ByteWriter w(1 + varint_size(left));
    w.put_u8(0xF0);  // not a protocol tag: metrics file it as unknown
    w.put_varint(left);
    ctx.send((ctx.self() + 1 + left % (n - 1)) % n, std::move(w).take());
  }

  std::uint32_t tokens_;
  std::uint32_t hops_;
  bool decided_ = false;
};

void BM_SimDelivery(benchmark::State& state) {
  // The simulator's per-message dispatch cost ("dispatch" in the per-layer
  // breakdown): heap pop, delivery accounting, the upcall's one send and
  // the completion checks, with a protocol that does almost nothing.  The
  // same 64 tokens are in flight and 16,384 messages are delivered per run
  // whatever n is, so only per-event work that scales with n can make
  // ns_per_msg grow with n.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint32_t kTokens = 64;
  constexpr std::uint32_t kHops = (1u << 14) / kTokens - 1;
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    net::SimNetwork net({n, (n - 1) / 3},
                        std::make_unique<sched::RandomScheduler>(1));
    for (ProcessId p = 0; p < n; ++p) {
      net.add_process(std::make_unique<RelayProcess>(kTokens / n, kHops));
    }
    net.start();
    benchmark::DoNotOptimize(net.run_until_done({}));
    msgs += net.metrics().messages_delivered;
  }
  if (msgs != static_cast<std::uint64_t>(state.iterations()) * kTokens * (kHops + 1)) {
    state.SkipWithError("a token was lost or duplicated");
  }
  state.counters["ns_per_msg"] = benchmark::Counter(
      static_cast<double>(msgs) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.SetLabel("items = messages delivered");
}
BENCHMARK(BM_SimDelivery)->ArgName("n")->Arg(4)->Arg(16)->Arg(64);

void BM_WitnessIteration(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t t = std::max(1u, (n - 1) / 3);
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.params = {n, t};
    cfg.protocol = ProtocolKind::kWitness;
    cfg.inputs = linear_inputs(n, 0.0, 1.0);
    cfg.fixed_rounds = 1;
    const auto rep = run_async(cfg);
    msgs += rep.metrics.messages_sent;
    benchmark::DoNotOptimize(rep.outputs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.SetLabel("items = messages simulated");
}
BENCHMARK(BM_WitnessIteration)->Arg(8)->Arg(16)->Arg(32);

/// Test double for the hub benches: counts outgoing messages, sends
/// nothing anywhere.
class CountingContext final : public net::Context {
 public:
  explicit CountingContext(SystemParams p) : params_(p) {}
  void send(ProcessId, Bytes) override { ++sends; }
  void multicast(const Bytes&) override { ++sends; }
  [[nodiscard]] ProcessId self() const override { return 0; }
  [[nodiscard]] SystemParams params() const override { return params_; }
  std::uint64_t sends = 0;

 private:
  SystemParams params_;
};

/// One full Bracha wave per (instance, origin 1) as party 0 sees it: the
/// origin's SEND, then ECHO and READY from every other party, fed straight
/// to hub.handle() with no simulator.  Inputs are encoded up front, so the
/// time is the hub alone: decode, vote tally, and encoding the hub's own
/// ECHO/READY.  A fresh hub every kWaves waves keeps state bounded, and its
/// teardown is charged to the waves as it would be in a run.
template <class Hub, class Value, class Encode>
void hub_wave(benchmark::State& state, const Value& value, Encode encode) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const SystemParams p{n, (n - 1) / 3};
  constexpr std::uint32_t kWaves = 64;
  std::vector<std::array<Bytes, 3>> wire(kWaves);
  for (std::uint32_t i = 0; i < kWaves; ++i) {
    wire[i] = {encode(MsgType::kRbSend, i, value),
               encode(MsgType::kRbEcho, i, value),
               encode(MsgType::kRbReady, i, value)};
  }
  CountingContext ctx(p);
  std::uint64_t msgs = 0, deliveries = 0;
  auto on_deliver = [&deliveries](net::Context&, std::uint32_t, ProcessId,
                                  const Value&) { ++deliveries; };
  for (auto _ : state) {
    Hub hub(p, on_deliver);
    for (const auto& [send, echo, ready] : wire) {
      benchmark::DoNotOptimize(hub.handle(ctx, 1, send));
      for (ProcessId q = 1; q < n; ++q) {
        benchmark::DoNotOptimize(hub.handle(ctx, q, echo));
      }
      for (ProcessId q = 1; q < n; ++q) {
        benchmark::DoNotOptimize(hub.handle(ctx, q, ready));
      }
      msgs += 1 + 2 * (n - 1);
    }
  }
  const auto waves = kWaves * static_cast<std::uint64_t>(state.iterations());
  if (deliveries != waves || ctx.sends != 2 * waves) {
    state.SkipWithError("a wave did not echo, ready and deliver once each");
  }
  state.counters["ns_per_msg"] = benchmark::Counter(
      static_cast<double>(msgs) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.SetLabel("items = messages through hub.handle()");
}

void BM_BrachaHubWave(benchmark::State& state) {
  // d = 0 is the scalar hub (the AAD'04 witness transport); d = 3 the
  // vector hub (the equalized-collect transport, RBVEC wire tags).
  if (state.range(1) == 0) {
    hub_wave<rb::BrachaHub>(
        state, 0.25, [](MsgType type, std::uint32_t inst, double v) {
          return encode_rb(RbMsg{type, inst, 1, v});
        });
    return;
  }
  hub_wave<rb::VecBrachaHub>(
      state, std::vector<double>{0.25, -1.5, 3.0},
      [](MsgType type, std::uint32_t inst, const std::vector<double>& v) {
        const MsgType vec = type == MsgType::kRbSend   ? MsgType::kRbVecSend
                            : type == MsgType::kRbEcho ? MsgType::kRbVecEcho
                                                       : MsgType::kRbVecReady;
        return encode_rb_vec(RbVecMsg{vec, inst, 1, v});
      });
}
BENCHMARK(BM_BrachaHubWave)
    ->ArgNames({"n", "d"})
    ->ArgsProduct({{4, 16, 64}, {0, 3}});

void BM_SafeMidpoint(benchmark::State& state) {
  // One geom::safe_midpoint call, the geometry a convex-valid party runs
  // per view freeze: a view of n - t entries in R^3 with n = 13.  Spread
  // views are uniform in [-5, 5)^3; near-converged views scatter 1e-4
  // around a random center.  The calls cycle over 16 seeded views.
  constexpr std::uint32_t kN = 13, kDim = 3, kViews = 16;
  const auto t = static_cast<std::uint32_t>(state.range(0));
  const bool converged = state.range(1) != 0;
  Rng rng(kN + t);
  std::vector<std::vector<std::vector<double>>> views(kViews);
  for (auto& view : views) {
    std::vector<double> center(kDim);
    for (double& c : center) c = rng.next_double(-5.0, 5.0);
    view.assign(kN - t, center);
    for (auto& p : view) {
      for (std::size_t c = 0; c < kDim; ++c) {
        p[c] = converged ? center[c] + 1e-4 * rng.next_double(-1.0, 1.0)
                         : rng.next_double(-5.0, 5.0);
      }
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::safe_midpoint(views[i++ % kViews], t));
  }
  state.SetLabel(converged ? "near-converged views" : "spread views");
}
BENCHMARK(BM_SafeMidpoint)
    ->ArgNames({"t", "converged"})
    ->ArgsProduct({{1, 2}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_ThreadStealExecutor(benchmark::State& state) {
  // Steal/claim overhead of the work-stealing executor end to end: the same
  // 8-party round protocol under 1 worker (no stealing possible), 2 and 4
  // (constant contention on the per-party ownership tokens).  The spread
  // between the Arg(1) and Arg(4) rows is the claim/steal + wakeup cost.
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const SystemParams p{8, 2};
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    rt::ThreadNetwork net(p);
    net.set_shards(shards);
    for (ProcessId i = 0; i < p.n; ++i) {
      net.add_process(std::make_unique<RoundAaProcess>(
          crash_aa_config(p, static_cast<double>(i), 4)));
    }
    benchmark::DoNotOptimize(net.run(std::chrono::seconds(30)));
    msgs += net.metrics().messages_delivered;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.SetLabel("items = messages through the stealing executor");
}
BENCHMARK(BM_ThreadStealExecutor)->Arg(1)->Arg(2)->Arg(4);

void BM_TraceSinkRecord(benchmark::State& state) {
  // Hot-path cost of one enabled record(): thread-local ring lookup, one
  // relaxed fetch_add for the merge ticket, a wall-clock read, and seven
  // stores into the ring slot.  This is the per-event price every traced
  // transport send/deliver pays; the macro-level budget it must fit under
  // is f7's trace_overhead section (< 5% on the K=256 thread row).
  obs::TraceSink sink;
  std::uint64_t n = 0;
  for (auto _ : state) {
    sink.record(obs::EventKind::kSend, 1, 2, static_cast<std::int64_t>(n),
                0.5, 1.0);
    ++n;
  }
  benchmark::DoNotOptimize(sink.recorded());
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
  state.SetLabel("items = events recorded");
}
BENCHMARK(BM_TraceSinkRecord);

void BM_TraceSinkDisabled(benchmark::State& state) {
  // The disabled path as every call site compiles it: a null-pointer test
  // and nothing else.  Pair with BM_TraceSinkRecord — the delta is the
  // whole cost tracing adds when it is off, and it must stay branch-only.
  obs::TraceSink* sink = nullptr;
  benchmark::DoNotOptimize(sink);
  std::uint64_t n = 0;
  for (auto _ : state) {
    if (sink) {
      sink->record(obs::EventKind::kSend, 1, 2, static_cast<std::int64_t>(n),
                   0.5, 1.0);
    }
    benchmark::DoNotOptimize(n);
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
  state.SetLabel("items = disabled-path branches");
}
BENCHMARK(BM_TraceSinkDisabled);

void BM_WorstCaseSearch(benchmark::State& state) {
  analysis::WorstCaseQuery q;
  q.params = {static_cast<std::uint32_t>(state.range(0)),
              std::max(1u, static_cast<std::uint32_t>(state.range(0)) / 4)};
  q.averager = Averager::kMean;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::worst_one_round_factor(q));
  }
}
BENCHMARK(BM_WorstCaseSearch)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
