// Allocation budget of the per-message hot path, counted by a replacement
// global operator new: frame iteration, metrics accounting and the round
// collector allocate nothing, each encoder allocates exactly its output
// buffer once, and a multicast — enveloped or not — allocates its one shared
// buffer whatever the number of receivers.  Frees are counted too, so a
// byzantine message storm can be shown to leave nothing behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/bytes.hpp"
#include "core/async_crash.hpp"
#include "core/codec.hpp"
#include "core/multidim.hpp"
#include "core/round_engine.hpp"
#include "net/envelope.hpp"
#include "net/metrics.hpp"
#include "net/outbox.hpp"

namespace {

// Only allocations made while `g_counting` is set are counted, so gtest's
// own bookkeeping between measurements stays out of the numbers.
bool g_counting = false;
std::size_t g_allocs = 0;
std::size_t g_frees = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (g_counting && p != nullptr) ++g_frees;
  std::free(p);
}

/// Runs `fn()` with the counters reset and counting on.
template <class F>
void run_counted(F&& fn) {
  g_allocs = 0;
  g_frees = 0;
  g_counting = true;
  fn();
  g_counting = false;
}

/// Allocations made by `fn()`.
template <class F>
std::size_t allocations(F&& fn) {
  run_counted(fn);
  return g_allocs;
}

/// Allocations made by `fn()` and not freed by it.
template <class F>
std::ptrdiff_t live_allocations(F&& fn) {
  run_counted(fn);
  return static_cast<std::ptrdiff_t>(g_allocs) - static_cast<std::ptrdiff_t>(g_frees);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace apxa {
namespace {

using namespace core;

Bytes raw(std::initializer_list<int> bytes) {
  Bytes out;
  for (int b : bytes) out.push_back(static_cast<std::byte>(b));
  return out;
}

/// Packets a transport sees: honest ones and byzantine forgeries.
std::vector<Bytes> sample_packets() {
  const Bytes bare = encode_rb(RbMsg{MsgType::kRbEcho, 3, 2, 0.25});
  const Bytes env = net::encode_envelope(300, encode_round(RoundMsg{4, 1.5, 0}));
  std::vector<Bytes> frames;
  for (std::uint32_t i = 0; i < net::kMaxBatchFrames; ++i) {
    frames.push_back(i % 2 == 0 ? net::encode_envelope(i, bare) : bare);
  }
  const Bytes batch = net::encode_batch(frames);
  const Bytes truncated(batch.begin(), batch.end() - 3);
  Bytes trailing = batch;
  trailing.push_back(std::byte{0});
  Bytes nested = raw({net::kBatchTag, 1, static_cast<int>(batch.size())});
  nested.insert(nested.end(), batch.begin(), batch.end());
  const Bytes count_zero = raw({net::kBatchTag, 0});
  const Bytes count_65 = raw({net::kBatchTag, 65, 1, 1});
  const Bytes lone_tag = raw({net::kBatchTag});
  return {bare, env, batch, truncated, trailing, nested, count_zero, count_65, lone_tag};
}

TEST(AllocFree, ForEachFrameNeverAllocates) {
  for (const Bytes& packet : sample_packets()) {
    std::size_t frames = 0;
    std::size_t bytes = 0;
    EXPECT_EQ(allocations([&] {
                net::for_each_frame(packet, [&](BytesView f) {
                  ++frames;
                  bytes += f.size();
                });
              }),
              0u);
    EXPECT_GE(frames, 1u);
    EXPECT_GT(bytes, 0u);
  }
}

TEST(AllocFree, ForEachFrameSplitsOnlyWellFormedBatches) {
  const auto packets = sample_packets();
  std::vector<std::size_t> counts;
  for (const Bytes& packet : packets) {
    std::size_t frames = 0;
    net::for_each_frame(packet, [&](BytesView) { ++frames; });
    counts.push_back(frames);
  }
  // bare, envelope, 8-frame batch, then six forgeries that pass whole.
  const std::vector<std::size_t> expected{1, 1, net::kMaxBatchFrames, 1, 1, 1, 1, 1, 1};
  EXPECT_EQ(counts, expected);
}

TEST(AllocFree, MetricsAccountingAfterWarmUp) {
  const auto packets = sample_packets();
  net::Metrics m;
  m.reset(4);
  // The first pass may grow the per-round and per-instance tables.
  for (const Bytes& p : packets) {
    m.note_send(1, p);
    m.note_delivery(p, 0.5);
  }
  for (const Bytes& p : packets) {
    EXPECT_EQ(allocations([&] { m.note_send(1, p); }), 0u);
    EXPECT_EQ(allocations([&] { m.note_delivery(p, 0.5); }), 0u);
  }
}

TEST(AllocFree, EncodersAllocateOnce) {
  Bytes out;
  EXPECT_EQ(allocations([&] { out = encode_rb(RbMsg{MsgType::kRbSend, 300, 15, 0.5}); }), 1u);
  EXPECT_EQ(out.size(), out.capacity());
  EXPECT_EQ(allocations([&] { out = encode_round(RoundMsg{200, 1.0, 7}); }), 1u);
  EXPECT_EQ(out.size(), out.capacity());
  const Bytes inner = out;
  EXPECT_EQ(allocations([&] { out = net::encode_envelope(1u << 20, inner); }), 1u);
  EXPECT_EQ(out.size(), out.capacity());

  EXPECT_EQ(allocations([&] { out = encode_done(DoneMsg{9, 2.0}); }), 1u);
  EXPECT_EQ(out.size(), out.capacity());
  const ReportMsg rep{130, std::vector<bool>(17, true)};
  EXPECT_EQ(allocations([&] { out = encode_report(rep); }), 1u);
  EXPECT_EQ(out.size(), out.capacity());
  const RbVecMsg vec{MsgType::kRbVecEcho, 5, 200, {1.0, 2.0, 3.0}};
  EXPECT_EQ(allocations([&] { out = encode_rb_vec(vec); }), 1u);
  EXPECT_EQ(out.size(), out.capacity());
  net::Payload shared;
  EXPECT_EQ(allocations([&] {
              shared = rb_payload(RbMsg{MsgType::kRbReady, 300, 15, 0.5});
            }),
            1u);
  EXPECT_EQ(allocations([&] { shared = rb_vec_payload(vec); }), 1u);
  const std::vector<double> point{1.0, -1.0};
  EXPECT_EQ(allocations([&] { out = encode_vec_round(129, point); }), 1u);
  EXPECT_EQ(out.size(), out.capacity());
  const std::vector<Bytes> frames(net::kMaxBatchFrames, inner);
  EXPECT_EQ(allocations([&] { out = net::encode_batch(frames); }), 1u);
  EXPECT_EQ(out.size(), out.capacity());
}

TEST(AllocFree, OutboxMulticastAllocatesNothingPerReceiver) {
  // One multicast and the flush after its upcall, with a wire that drops
  // the packet: the only allocation is the shared buffer, for every n, with
  // batching off or on.  Copying the payload per receiver would cost n - 1.
  const Bytes frame = net::encode_envelope(3, encode_round(RoundMsg{2, 0.5, 0}));
  for (const std::uint32_t cap : {0u, 8u}) {
    for (const std::uint32_t n : {4u, 16u, 64u}) {
      net::Outbox out({n, (n - 1) / 3}, [](ProcessId, ProcessId, net::Payload) {});
      if (cap > 0) out.enable_batching(cap);
      // Warm up: the per-round and per-instance tables and batch buffers grow
      // on first use.
      out.multicast(0, net::Payload(frame));
      out.flush(0);
      EXPECT_EQ(allocations([&] {
                  out.multicast(0, net::Payload(frame));
                  out.flush(0);
                }),
                1u)
          << "n = " << n << ", cap = " << cap;
      EXPECT_EQ(out.metrics().messages_sent, 2u * (n - 1));
    }
  }
}

TEST(AllocFree, EnvelopedMulticastIsOneBuffer) {
  // A session's instance multicasts through an EnvelopeContext: the
  // envelope header and the inner frame go into one buffer that every
  // receiver shares, byte for byte what encode_envelope produces.
  constexpr std::uint32_t kInstance = 300;
  const net::Payload inner(encode_round(RoundMsg{2, 0.5, 0}));
  const Bytes expected = net::encode_envelope(kInstance, inner);
  for (const std::uint32_t cap : {0u, 8u}) {
    for (const std::uint32_t n : {4u, 16u, 64u}) {
      net::Payload last;
      net::Outbox out({n, (n - 1) / 3}, [&last](ProcessId, ProcessId, net::Payload p) {
        last = std::move(p);
      });
      if (cap > 0) out.enable_batching(cap);
      net::OutboxContext party(out, 0);
      net::EnvelopeContext ctx(party, kInstance);
      // Warm up the per-instance tables and batch buffers.
      ctx.multicast(inner);
      out.flush(0);
      EXPECT_EQ(allocations([&] {
                  ctx.multicast(inner);
                  out.flush(0);
                }),
                1u)
          << "n = " << n << ", cap = " << cap;
      const BytesView wire = last;
      EXPECT_TRUE(std::equal(wire.begin(), wire.end(), expected.begin(), expected.end()));
      EXPECT_EQ(out.metrics().messages_sent, 2u * (n - 1));
    }
  }
}

TEST(AllocFree, RoundCollectorSteadyStateAllocatesNothing) {
  // Own value, every remote value (some a round early), the frozen view and
  // forget_before, round after round: the two-slot ring is reused.
  for (const std::uint32_t n : {4u, 16u, 64u}) {
    const std::uint32_t t = (n - 1) / 3;
    RoundCollector c(SystemParams{n, t});
    double sum = 0.0;
    EXPECT_EQ(allocations([&] {
                for (Round r = 0; r < 64; ++r) {
                  c.add_own(r, 1.0);
                  for (ProcessId p = 1; p < n; ++p) {
                    c.add_remote(p, r, static_cast<double>(p));
                    if (p % 2 == 0) c.add_remote(p, r + 1, -1.0);
                  }
                  for (const double v : c.view(r)) sum += v;
                  c.forget_before(r + 1);
                }
              }),
              0u)
        << "n = " << n;
    EXPECT_GT(sum, 0.0);
  }
}

TEST(AllocFree, ForgedRoundStormAllocatesNothing) {
  // A byzantine sender spraying distinct round numbers past the party's
  // round bound: a fixed-round party (bound = fixed_rounds) and a live one
  // (bound = kLiveLookahead ahead of its current round) keep nothing.
  constexpr Round kFixedRounds = 64;
  RoundCollector fixed(SystemParams{16, 5}, kFixedRounds);
  RoundCollector live(SystemParams{16, 5}, kNoRound, kLiveLookahead);
  live.forget_before(1000);
  EXPECT_EQ(allocations([&] {
              for (Round k = 0; k < 50'000; ++k) {
                fixed.add_remote(1, kFixedRounds + k, 0.5);
                live.add_remote(1, 1000 + kLiveLookahead + k, 0.5);
              }
            }),
            0u);
  EXPECT_TRUE(fixed.contributors(0).empty());
  EXPECT_TRUE(live.contributors(1000).empty());
}

class NullContext final : public net::Context {
 public:
  explicit NullContext(SystemParams p) : params_(p) {}
  void send(ProcessId, net::Payload) override {}
  void multicast(net::Payload) override {}
  [[nodiscard]] ProcessId self() const override { return 0; }
  [[nodiscard]] SystemParams params() const override { return params_; }

 private:
  SystemParams params_;
};

/// Feeds an undecided vector party a byzantine stream of well-formed VEC
/// frames, each under a distinct round at or past its round budget, and
/// returns what the stream left allocated.
std::ptrdiff_t vec_round_storm_residue(VectorAaConfig cfg) {
  constexpr Round kFixedRounds = 8;
  cfg.params = SystemParams{4, 1};
  cfg.dim = 2;
  cfg.input = {0.0, 0.0};
  cfg.fixed_rounds = kFixedRounds;
  VectorAaProcess party(cfg);
  NullContext ctx(cfg.params);
  party.on_start(ctx);
  std::vector<Bytes> frames;
  for (Round k = 0; k < 10'000; ++k) {
    frames.push_back(encode_vec_round(kFixedRounds + k, {1.0, 1.0}));
  }
  const std::ptrdiff_t live = live_allocations([&] {
    for (const Bytes& f : frames) party.on_message(ctx, 1, f);
  });
  EXPECT_FALSE(party.has_output());
  EXPECT_EQ(party.current_round(), 0u);
  return live;
}

TEST(AllocFree, ForgedVecRoundStormKeepsNothingPerCoordinate) {
  VectorAaConfig cfg;  // kVectorCrash: per-coordinate mean, quorum collect
  EXPECT_EQ(vec_round_storm_residue(cfg), 0);
}

TEST(AllocFree, ForgedVecRoundStormKeepsNothingSafeArea) {
  VectorAaConfig cfg;  // kVectorConvex: safe-area midpoint, quorum collect
  cfg.rule = geom::SafeAreaOptions{};
  EXPECT_EQ(vec_round_storm_residue(cfg), 0);
}

}  // namespace
}  // namespace apxa
