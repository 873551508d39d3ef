// T5 — Substrate microbenchmarks (google-benchmark).
//
// Raw costs of the building blocks: averaging rules, the round collector
// (scalar and the vector quorum engine), codec, simulator event loop and its
// per-message dispatch, the transport send path (net::Outbox),
// the socket backend's perfect link (netio::PeerLink), reliable broadcast
// (end to end and the Bracha hub alone), the safe-area geometry of
// convex-valid vector AA, and the analytic worst-case search.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <memory>

#include "analysis/worst_case.hpp"
#include "common/rng.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "core/codec.hpp"
#include "core/collect.hpp"
#include "core/multiset_ops.hpp"
#include "core/round_engine.hpp"
#include "geom/safe_area.hpp"
#include "harness/harness.hpp"
#include "net/envelope.hpp"
#include "net/outbox.hpp"
#include "net/sim.hpp"
#include "netio/link.hpp"
#include "obs/trace.hpp"
#include "rb/bracha.hpp"
#include "runtime/thread_net.hpp"
#include "sched/random_scheduler.hpp"

namespace {

using namespace apxa;
using namespace apxa::core;
using namespace apxa::harness;

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

void BM_RoundCollectorRound(benchmark::State& state) {
  // The round-based protocols' per-round bookkeeping (the scalar "view
  // freeze"): the own value, a value from every other party (those past the
  // quorum are dropped), the frozen view read once, and the old round
  // forgotten.  Averaging is BM_ApplyAverager's.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  RoundCollector c(SystemParams{n, (n - 1) / 3});
  Round r = 0;
  for (auto _ : state) {
    c.add_own(r, 0.5);
    for (ProcessId p = 1; p < n; ++p) c.add_remote(p, r, static_cast<double>(p));
    const auto& view = c.view(r);
    benchmark::DoNotOptimize(view.data());
    c.forget_before(++r);
  }
  state.counters["ns_per_round"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("items = rounds collected");
}
BENCHMARK(BM_RoundCollectorRound)->ArgName("n")->Arg(4)->Arg(16)->Arg(64);

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
    const auto rep = run(cfg);
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
  // the completion checks, with a protocol that does almost nothing.
  // `tokens` messages are in flight and 16,384 are delivered per run
  // whatever n is, so only per-event work that scales with n can make
  // ns_per_msg grow with n.  64 tokens are ~3 levels of the 4-ary event
  // heap; 2,048 match the queue depth of an n = 16 witness run with five
  // equivocators (~1,400 events on average, ~5,000 at peak), where the
  // heap's levels cost most.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto tokens = static_cast<std::uint32_t>(state.range(1));
  constexpr std::uint32_t kMessages = 1u << 14;
  const std::uint32_t hops = kMessages / tokens - 1;
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    net::SimNetwork net({n, (n - 1) / 3},
                        std::make_unique<sched::RandomScheduler>(1));
    for (ProcessId p = 0; p < n; ++p) {
      net.add_process(std::make_unique<RelayProcess>(tokens / n, hops));
    }
    net.start();
    benchmark::DoNotOptimize(net.run_until_done({}));
    msgs += net.metrics().messages_delivered;
  }
  if (msgs != static_cast<std::uint64_t>(state.iterations()) * kMessages) {
    state.SkipWithError("a token was lost or duplicated");
  }
  state.counters["ns_per_msg"] = benchmark::Counter(
      static_cast<double>(msgs) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.SetLabel("items = messages delivered");
}
BENCHMARK(BM_SimDelivery)
    ->ArgNames({"n", "tokens"})
    ->Args({4, 64})
    ->Args({16, 64})
    ->Args({64, 64})
    ->Args({16, 2048});

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
    const auto rep = run(cfg);
    msgs += rep.metrics.messages_sent;
    benchmark::DoNotOptimize(rep.outputs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.SetLabel("items = messages simulated");
}
BENCHMARK(BM_WitnessIteration)->Arg(8)->Arg(16)->Arg(32);

void BM_OutboxMulticast(benchmark::State& state) {
  // The transport send path every backend shares ("send path" in the
  // per-layer breakdown): crash-budget checks, batch buffering, send
  // accounting and, per multicast, the one shared buffer and the flush after
  // the upcall.  The wire is a no-op, so no transport cost is included; the
  // payload copy handed to multicast stands for the protocol's encode.  In
  // the threaded rows thread i multicasts as sender i on one shared Outbox,
  // as the threaded transports' parties do: a send should then cost what it
  // costs on one thread, since no sender writes another's memory.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto cap = static_cast<std::uint32_t>(state.range(1));
  static std::unique_ptr<net::Outbox> out;
  if (state.thread_index() == 0) {
    out = std::make_unique<net::Outbox>(
        SystemParams{n, (n - 1) / 3}, [](ProcessId, ProcessId, net::Payload packet) {
          benchmark::DoNotOptimize(packet.view().data());
        });
    if (cap > 0) out->enable_batching(cap);
  }
  const auto self = static_cast<ProcessId>(state.thread_index());
  const Bytes frame = net::encode_envelope(
      static_cast<std::uint32_t>(state.range(0)), encode_round(RoundMsg{3, 0.5, 0}));
  std::uint64_t sends = 0;
  for (auto _ : state) {  // every thread waits here until `out` is built
    out->multicast(self, net::Payload(frame));
    out->flush(self);
    sends += n - 1;
  }
  if (state.thread_index() == 0) out.reset();  // after every thread's loop
  state.counters["ns_per_send"] = benchmark::Counter(
      static_cast<double>(sends) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(sends));
  state.SetLabel("items = logical sends");
}
BENCHMARK(BM_OutboxMulticast)
    ->ArgNames({"n", "cap"})
    ->ArgsProduct({{4, 16, 64}, {0, 8}});
BENCHMARK(BM_OutboxMulticast)
    ->ArgNames({"n", "cap"})
    ->ArgsProduct({{4}, {0, 8}})
    ->Threads(4);

void BM_PeerLinkRoundTrip(benchmark::State& state) {
  // The socket backend's perfect link without the socket: frame a loop
  // pass's packets to one peer as one DATA frame, receive and dedup it,
  // walk its packets as the receive path does, ack it back (an RTT sample
  // for the sender's retransmit timeout) and run the sender's retransmit
  // scan.  Time enters as an explicit clock stepping 100 us per frame, about
  // a loopback RTT.
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const auto per_frame = static_cast<std::size_t>(state.range(1));
  const std::vector<Bytes> packets(per_frame, Bytes(bytes, std::byte{0x5a}));
  const std::vector<BytesView> views(packets.begin(), packets.end());
  netio::PeerLink sender, receiver;
  std::vector<netio::Delivered> got;
  std::vector<Bytes> resends;
  auto now = netio::PeerLink::TimePoint{} + std::chrono::hours(1);
  std::uint64_t frames = 0;
  std::size_t walked = 0;
  for (auto _ : state) {
    const Bytes dgram = sender.make_data(views, now);
    now += std::chrono::microseconds(100);
    got.clear();
    receiver.on_datagram(dgram, now, got);
    netio::for_each_packet(got.front().packets,
                           [&walked](BytesView p) { walked += p.size(); });
    const auto ack = receiver.take_ack_frame();
    sender.on_datagram(*ack, now, got);
    sender.collect_retransmits(now, resends);
    benchmark::DoNotOptimize(got.data());
    benchmark::DoNotOptimize(resends.data());
    ++frames;
  }
  benchmark::DoNotOptimize(walked);
  state.counters["ns_per_frame"] = benchmark::Counter(
      static_cast<double>(frames) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["ns_per_packet"] = benchmark::Counter(
      static_cast<double>(frames * per_frame) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(frames * per_frame));
  state.SetLabel("items = packets");
}
BENCHMARK(BM_PeerLinkRoundTrip)
    ->ArgNames({"bytes", "per_frame"})
    ->ArgsProduct({{32, 512}, {1, 8}});

/// Test double for the hub benches: counts outgoing messages, sends
/// nothing anywhere.
class CountingContext final : public net::Context {
 public:
  explicit CountingContext(SystemParams p) : params_(p) {}
  void send(ProcessId, net::Payload) override { ++sends; }
  void multicast(net::Payload) override { ++sends; }
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

void BM_VectorQuorumCollect(benchmark::State& state) {
  // The vector collect engine's view freeze (the quorum engine that
  // kVectorCrash, kVectorByz and kVectorConvex run on), as party 0 sees
  // each round: begin_round (own point, the VEC multicast), then a
  // pre-encoded VEC frame from every other party through handle() — those
  // past the quorum are dropped — and the frozen view handed to the ViewFn.
  // A fresh engine every kRounds rounds (its round budget) keeps state
  // bounded; its setup and teardown are charged to those rounds.  The rule
  // applied to the view is BM_SafeMidpoint's.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t d = 3;
  const SystemParams p{n, (n - 1) / 3};
  constexpr Round kRounds = 64;
  std::vector<std::vector<Bytes>> wire(kRounds);
  for (Round r = 0; r < kRounds; ++r) {
    for (ProcessId q = 1; q < n; ++q) {
      wire[r].push_back(encode_vec_round(
          r, {0.25 * q, -1.5 + r, 3.0 / static_cast<double>(q)}));
    }
  }
  const std::vector<double> own{0.5, -0.5, 1.0};
  CountingContext ctx(p);
  std::uint64_t views = 0;
  for (auto _ : state) {
    const auto engine = make_collector(
        CollectMode::kQuorum, p, d, kRounds,
        [&views](net::Context&, Round, const std::vector<CollectEntry>& view) {
          benchmark::DoNotOptimize(view.data());
          ++views;
        });
    for (Round r = 0; r < kRounds; ++r) {
      engine->begin_round(ctx, r, own);
      for (ProcessId q = 1; q < n; ++q) {
        benchmark::DoNotOptimize(engine->handle(ctx, q, wire[r][q - 1]));
      }
    }
  }
  const auto rounds = kRounds * static_cast<std::uint64_t>(state.iterations());
  if (views != rounds) state.SkipWithError("a round's view did not fire once");
  state.counters["ns_per_round"] = benchmark::Counter(
      static_cast<double>(rounds) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
  state.SetLabel("items = rounds collected");
}
BENCHMARK(BM_VectorQuorumCollect)->ArgName("n")->Arg(4)->Arg(13);

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
