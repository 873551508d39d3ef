// Deep state-machine target: a two-endpoint PeerLink conversation over a
// fuzzer-controlled adversarial network.
//
// The fuzzer owns the datagram service between endpoints A and B: it drops,
// reorders, duplicates and (in corruption mode) flips bytes of in-flight
// datagrams, and decides when time advances and timers fire.  Asserted:
//
//   no duplication / no creation — every packet handed up was sent exactly
//       once by the opposite endpoint (packets are unique counters, sent 1..3
//       to a DATA frame, so set inclusion proves both obligations at once);
//   eventual delivery — after the fuzzer's chaos budget is exhausted, a
//       bounded fair drain (retransmit + deliver both ways, no loss) makes
//       every sent payload arrive.  This is the paper's reliable-link
//       assumption restored over an unreliable service, checked end to end.
//
// Corruption mode weakens the first obligation to totality only: a flipped
// byte may turn one DATA frame into another syntactically valid frame, so
// delivered-set inclusion is only asserted for clean (loss/reorder/dup)
// runs.
#include <chrono>
#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "netio/link.hpp"

#include "fuzz_input.hpp"
#include "targets.hpp"

namespace apxa::fuzz {

namespace {

constexpr const char* kName = "fuzz_link_pair";

using TimePoint = netio::PeerLink::TimePoint;

Bytes counter_payload(std::uint8_t side, std::uint32_t n) {
  Bytes p(5);
  p[0] = static_cast<std::byte>(side);
  for (int i = 0; i < 4; ++i) {
    p[1 + i] = static_cast<std::byte>((n >> (8 * i)) & 0xff);
  }
  return p;
}

// Set key for a payload.  Honest payloads are exactly 5 counter bytes, so
// anything up to 7 bytes packs injectively into a length-tagged word; longer
// payloads (possible only after in-flight corruption, where set inclusion is
// not asserted) fall back to FNV-1a in a disjoint key space.
std::uint64_t payload_key(const Bytes& p) {
  if (p.size() <= 7) {
    std::uint64_t k = static_cast<std::uint64_t>(p.size()) << 56;
    for (const std::byte b : p) k = (k << 8) | static_cast<std::uint64_t>(b);
    return k;
  }
  std::uint64_t h = 1469598103934665603ull;
  for (const std::byte b : p) {
    h = (h ^ static_cast<std::uint64_t>(b)) * 1099511628211ull;
  }
  return h | (0xffull << 56);
}

struct Endpoint {
  explicit Endpoint(netio::LinkConfig cfg) : link(cfg) {}
  netio::PeerLink link;
  std::uint32_t next_payload = 0;
  std::set<std::uint64_t> sent;       // keys of payloads this side transmitted
  std::set<std::uint64_t> delivered;  // keys of payloads handed up here
};

}  // namespace

int link_pair_target(const std::uint8_t* data, std::size_t size) {
  const detail::ScopedFailureCapture capture;
  FuzzInput in(data, size);
  try {
    netio::LinkConfig cfg;
    cfg.max_unacked = 4 + in.in_range(0, 12);
    const bool corrupting = in.boolean();

    Endpoint a(cfg);
    Endpoint b(cfg);
    std::deque<Bytes> wire_ab;  // datagrams in flight A -> B
    std::deque<Bytes> wire_ba;  // datagrams in flight B -> A
    TimePoint now{};

    auto send_from = [&](Endpoint& src, std::deque<Bytes>& wire,
                         std::uint8_t side) {
      if (!src.link.has_capacity()) return;
      std::vector<Bytes> packets(1 + in.u8() % 3);
      for (Bytes& p : packets) {
        p = counter_payload(side, src.next_payload++);
        src.sent.insert(payload_key(p));
      }
      const std::vector<BytesView> views(packets.begin(), packets.end());
      wire.push_back(src.link.make_data(views, now));
    };

    auto receive_at = [&](Endpoint& dst, std::deque<Bytes>& wire) {
      if (wire.empty()) return;
      const Bytes dgram = std::move(wire.front());
      wire.pop_front();
      std::vector<netio::Delivered> out;
      dst.link.on_datagram(dgram, now, out);
      for (const auto& d : out) {
        netio::for_each_packet(d.packets, [&](BytesView p) {
          const bool fresh =
              dst.delivered.insert(payload_key(Bytes(p.begin(), p.end())))
                  .second;
          // A flipped byte can re-seq a retransmission, so the same packet
          // may legitimately arrive under two sequence numbers in corruption
          // mode.
          APXA_FUZZ_REQUIRE(fresh || corrupting, kName,
                            "no packet is handed up twice (no duplication)");
        });
      }
    };

    auto pump_timers = [&](Endpoint& ep, std::deque<Bytes>& wire) {
      std::vector<Bytes> resends;
      ep.link.collect_retransmits(now, resends);
      for (auto& r : resends) wire.push_back(std::move(r));
      if (auto ack = ep.link.take_ack_frame()) wire.push_back(std::move(*ack));
    };

    // Phase 1: fuzzer-driven chaos.
    std::size_t steps = 0;
    while (in.remaining() > 0 && ++steps < 512) {
      switch (in.u8() % 10) {
        case 0: send_from(a, wire_ab, 0xA); break;
        case 1: send_from(b, wire_ba, 0xB); break;
        case 2: receive_at(b, wire_ab); break;
        case 3: receive_at(a, wire_ba); break;
        case 4:  // drop the oldest in-flight datagram
          if (auto& w = in.boolean() ? wire_ab : wire_ba; !w.empty())
            w.pop_front();
          break;
        case 5:  // duplicate the oldest in-flight datagram
          if (auto& w = in.boolean() ? wire_ab : wire_ba; !w.empty())
            w.push_back(w.front());
          break;
        case 6:  // reorder: rotate front to back
          if (auto& w = in.boolean() ? wire_ab : wire_ba; w.size() > 1) {
            w.push_back(std::move(w.front()));
            w.pop_front();
          }
          break;
        case 7:  // corruption mode only: flip one byte in flight
          if (auto& w = in.boolean() ? wire_ab : wire_ba;
              corrupting && !w.empty() && !w.front().empty()) {
            Bytes& d = w.front();
            d[in.u16() % d.size()] ^= static_cast<std::byte>(1 + in.u8() % 255);
          }
          break;
        case 8:
          now += std::chrono::microseconds(in.u16());
          pump_timers(a, wire_ab);
          pump_timers(b, wire_ba);
          break;
        default:
          now += std::chrono::microseconds(1);
          break;
      }
    }

    if (!corrupting) {
      // No creation: everything handed up was genuinely sent by the peer.
      for (const std::uint64_t p : a.delivered) {
        APXA_FUZZ_REQUIRE(b.sent.count(p) == 1, kName,
                          "A only delivers payloads B sent (no creation)");
      }
      for (const std::uint64_t p : b.delivered) {
        APXA_FUZZ_REQUIRE(a.sent.count(p) == 1, kName,
                          "B only delivers payloads A sent (no creation)");
      }

      // Phase 2: fair drain — retransmit and deliver both ways with no loss.
      // cfg.rto_max bounds the backoff, so advancing time by rto_max each
      // round guarantees every unacked frame is retransmitted every round.
      for (int round = 0; round < 64; ++round) {
        if (a.delivered.size() == b.sent.size() &&
            b.delivered.size() == a.sent.size() && wire_ab.empty() &&
            wire_ba.empty()) {
          break;
        }
        now += cfg.rto_max + std::chrono::microseconds(1);
        pump_timers(a, wire_ab);
        pump_timers(b, wire_ba);
        while (!wire_ab.empty()) receive_at(b, wire_ab);
        while (!wire_ba.empty()) receive_at(a, wire_ba);
      }
      APXA_FUZZ_REQUIRE(a.delivered.size() == b.sent.size(), kName,
                        "eventual delivery B -> A after fair drain");
      APXA_FUZZ_REQUIRE(b.delivered.size() == a.sent.size(), kName,
                        "eventual delivery A -> B after fair drain");
    }
  } catch (...) {
    fail(kName, "link pair let an exception escape");
  }
  return 0;
}

}  // namespace apxa::fuzz
