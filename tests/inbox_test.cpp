// net::Inbox, the receive path every transport shares: packet delivery and
// its trace, output-time capture, latched done flags with the resumable
// all-done scan and the completion wait, and the correct-party accessors.
// Driven directly, with an Outbox whose wire drops every packet, so each case
// controls exactly which upcalls run and when the clock moves.  The
// completion-wait cases unblock the waiter from a second thread and assert
// only verdicts, never elapsed times.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "net/envelope.hpp"
#include "net/inbox.hpp"
#include "net/outbox.hpp"
#include "obs/trace.hpp"

namespace apxa::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

/// Decides the first value it hears (a one-byte payload) and counts the
/// upcalls it gets.
class FirstHeard final : public Process {
 public:
  void on_start(Context& /*ctx*/) override { ++starts; }
  void on_message(Context& /*ctx*/, ProcessId /*from*/, BytesView payload) override {
    ++heard;
    if (!y_) y_ = static_cast<double>(payload[0]);
  }
  [[nodiscard]] std::optional<double> output() const override { return y_; }

  int starts = 0;
  int heard = 0;

 private:
  std::optional<double> y_;
};

Bytes byte(std::uint8_t v) { return Bytes{std::byte{v}}; }

/// An Outbox (its wire drops packets) and an Inbox on the virtual clock
/// `clock`, with FirstHeard seated in every slot not listed in `empty`.
struct Table {
  explicit Table(SystemParams params, std::vector<ProcessId> empty = {})
      : out(params, [](ProcessId, ProcessId, Payload) {}),
        in(out, &clock),
        procs(params.n, nullptr) {
    for (ProcessId p = 0; p < params.n; ++p) {
      bool skip = false;
      for (ProcessId e : empty) skip = skip || e == p;
      if (skip) continue;
      auto proc = std::make_unique<FirstHeard>();
      procs[p] = proc.get();
      in.add_process(p, std::move(proc));
    }
  }
  const FirstHeard& proc(ProcessId p) const { return *procs[p]; }

  double clock = 0.0;
  Outbox out;
  Inbox in;
  std::vector<FirstHeard*> procs;  // owned by `in`
};

TEST(Inbox, CrashMidRunStopsBlockingAllDone) {
  Table t({3, 1});
  t.in.set_done({});
  for (ProcessId p = 0; p < 3; ++p) t.in.start(p);
  EXPECT_FALSE(t.in.all_done());

  EXPECT_TRUE(t.in.deliver(1, 0, byte(5), std::nullopt));
  EXPECT_TRUE(t.in.deliver(0, 1, byte(6), std::nullopt));
  EXPECT_FALSE(t.in.all_done());  // party 2 has not output

  t.out.crash(2);
  EXPECT_TRUE(t.in.all_done());
  EXPECT_TRUE(t.in.all_correct_output());
  // A crashed receiver gets nothing more: dropped, not delivered.
  EXPECT_FALSE(t.in.deliver(0, 2, byte(7), std::nullopt));
  EXPECT_EQ(t.proc(2).heard, 0);
  EXPECT_EQ(t.out.metrics().messages_delivered, 2u);
  EXPECT_EQ(t.in.correct_outputs(), (std::vector<double>{5.0, 6.0}));
}

TEST(Inbox, ProcessLessSlotNeverBlocks) {
  Table t({3, 1}, {2});
  EXPECT_EQ(t.in.seated(), 2u);
  EXPECT_FALSE(t.in.has_process(2));
  t.in.set_done({});
  t.in.start(0);
  t.in.start(1);
  EXPECT_FALSE(t.in.all_done());
  t.in.deliver(1, 0, byte(1), std::nullopt);
  t.in.deliver(0, 1, byte(2), std::nullopt);
  EXPECT_TRUE(t.in.all_done());
  EXPECT_TRUE(t.in.all_correct_output());
  // The empty slot is still a correct party; it just reports no output.
  EXPECT_TRUE(t.in.is_correct(2));
  EXPECT_EQ(t.in.output_time(2), kInf);
  EXPECT_EQ(t.in.correct_outputs().size(), 2u);
  EXPECT_EQ(t.in.correct_vector_outputs().size(), 2u);
}

TEST(Inbox, OutputTimeCapturedOnceAtFirstAppearance) {
  Table t({2, 0});
  t.in.start(0);
  EXPECT_EQ(t.in.output_time(0), kInf);
  t.clock = 1.5;
  t.in.deliver(1, 0, byte(3), std::nullopt);
  EXPECT_EQ(t.in.output_time(0), 1.5);
  t.clock = 4.0;
  t.in.deliver(1, 0, byte(9), std::nullopt);
  t.in.settle(0);
  EXPECT_EQ(t.in.output_time(0), 1.5);
  EXPECT_EQ(t.proc(0).heard, 2);
  EXPECT_EQ(t.in.correct_outputs(), (std::vector<double>{3.0}));
}

TEST(Inbox, WallClockOutputTimeWithoutVirtualClock) {
  Outbox out({2, 0}, [](ProcessId, ProcessId, Payload) {});
  Inbox in(out);
  in.add_process(0, std::make_unique<FirstHeard>());
  in.add_process(1, std::make_unique<FirstHeard>());
  in.start_clock();
  in.deliver(1, 0, byte(1), std::nullopt);
  EXPECT_TRUE(std::isfinite(in.output_time(0)));
  EXPECT_GE(in.output_time(0), 0.0);
  EXPECT_EQ(in.output_time(1), kInf);
}

TEST(Inbox, OutputsOnlyForCorrectPartiesWithCapturedTime) {
  Table t({4, 1});
  t.in.mark_byzantine(3);
  t.in.set_done({});
  t.clock = 2.0;
  t.in.deliver(0, 3, byte(8), std::nullopt);  // byzantine: output, not reported
  t.in.deliver(3, 0, byte(4), std::nullopt);
  t.in.deliver(3, 1, byte(4), std::nullopt);
  EXPECT_EQ(t.in.output_time(3), 2.0);
  EXPECT_FALSE(t.in.is_correct(3));

  // Party 2 decides outside any delivery (an upcall the Inbox never saw):
  // until it is settled, its output has no time and is not reported.
  OutboxContext ctx(t.out, 2);
  t.procs[2]->on_message(ctx, 0, byte(6));
  EXPECT_TRUE(t.in.process(2).has_output());
  EXPECT_EQ(t.in.correct_outputs(), (std::vector<double>{4.0, 4.0}));
  EXPECT_FALSE(t.in.all_correct_output());
  EXPECT_FALSE(t.in.all_done());

  t.clock = 3.0;
  t.in.settle(2);
  EXPECT_EQ(t.in.output_time(2), 3.0);
  EXPECT_EQ(t.in.correct_outputs(), (std::vector<double>{4.0, 4.0, 6.0}));
  EXPECT_EQ(t.in.correct_vector_outputs(),
            (std::vector<std::vector<double>>{{4.0}, {4.0}, {6.0}}));
  EXPECT_TRUE(t.in.all_correct_output());
  EXPECT_TRUE(t.in.all_done());
}

TEST(Inbox, ProbeSeesOnlyCorrectPartiesAndLatches) {
  Table t({3, 1});
  t.in.mark_byzantine(2);
  int probes = 0;
  bool open = false;
  t.in.set_done([&](const Process&) {
    ++probes;
    return open;
  });
  for (ProcessId p = 0; p < 3; ++p) t.in.start(p);
  EXPECT_EQ(probes, 2);  // never the byzantine party
  EXPECT_FALSE(t.in.all_done());
  open = true;
  t.in.deliver(1, 0, byte(1), std::nullopt);
  EXPECT_FALSE(t.in.all_done());
  t.in.deliver(0, 1, byte(1), std::nullopt);
  EXPECT_TRUE(t.in.all_done());
  EXPECT_EQ(probes, 4);
  // Latched parties are not probed again.
  t.in.deliver(1, 0, byte(1), std::nullopt);
  EXPECT_EQ(probes, 4);
}

/// Three started parties of which 0 and 1 have output: party 2 blocks.
void block_on_party_2(Table& t) {
  t.in.set_done({});
  for (ProcessId p = 0; p < 3; ++p) t.in.start(p);
  t.in.deliver(1, 0, byte(5), std::nullopt);
  t.in.deliver(0, 1, byte(6), std::nullopt);
}

TEST(Inbox, AwaitDoneWakesOnLastLatch) {
  Table t({3, 1});
  block_on_party_2(t);
  ASSERT_FALSE(t.in.all_done());
  // The second thread runs party 2: its delivery settles it, latching the
  // last done flag.
  std::jthread last([&t] { t.in.deliver(0, 2, byte(7), std::nullopt); });
  EXPECT_TRUE(t.in.await_done(Clock::now() + 60s));
  last.join();
  EXPECT_EQ(t.in.correct_outputs(), (std::vector<double>{5.0, 6.0, 7.0}));
}

TEST(Inbox, AwaitDoneWakesWhenLastBlockerCrashes) {
  Table t({3, 1});
  block_on_party_2(t);
  ASSERT_FALSE(t.in.all_done());
  std::jthread crasher([&t] { t.out.crash(2); });
  EXPECT_TRUE(t.in.await_done(Clock::now() + 60s));
  crasher.join();
  EXPECT_FALSE(t.in.is_correct(2));
  EXPECT_EQ(t.in.correct_outputs(), (std::vector<double>{5.0, 6.0}));
}

TEST(Inbox, AwaitDoneReturnsFalseAtDeadline) {
  Table t({3, 1});
  block_on_party_2(t);
  EXPECT_FALSE(t.in.await_done(Clock::now() + 1ms));
  // At a deadline already passed the scan still runs once.
  t.in.deliver(0, 2, byte(7), std::nullopt);
  EXPECT_TRUE(t.in.await_done(Clock::now() - 1s));
}

TEST(Inbox, OneDeliverEventPerPacketWithFrameCount) {
  Table t({2, 0});
  t.out.enable_batching(8);
  obs::TraceSink trace;
  t.in.set_trace(&trace);
  t.clock = 0.5;
  const std::vector<Bytes> frames{byte(1), byte(2), byte(3)};
  EXPECT_TRUE(t.in.deliver(1, 0, encode_batch(frames), 0.25));
  t.out.crash(1);
  EXPECT_FALSE(t.in.deliver(0, 1, byte(4), std::nullopt));

  EXPECT_EQ(t.proc(0).heard, 3);
  const Metrics m = t.out.metrics();
  EXPECT_EQ(m.messages_delivered, 3u);
  std::uint64_t samples = 0;
  for (std::size_t tag = 0; tag <= Metrics::kMaxTag; ++tag) {
    samples += m.latency_samples(tag);
  }
  EXPECT_EQ(samples, 3u);  // one latency sample per frame

  const auto events = trace.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kDeliver);
  EXPECT_EQ(events[0].party, 1u);
  EXPECT_EQ(events[0].peer, 0u);
  EXPECT_EQ(events[0].value, 3.0);
  EXPECT_EQ(events[0].vtime, 0.5);
  EXPECT_EQ(events[1].kind, obs::EventKind::kDrop);
  EXPECT_EQ(events[1].peer, 1u);
}

}  // namespace
}  // namespace apxa::net
