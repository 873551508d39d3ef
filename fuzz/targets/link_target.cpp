// Shallow byte-level target: one netio::PeerLink fed fuzzer-controlled
// datagrams — the exact surface a byzantine peer owns on a real socket.
//
// Properties: on_datagram totality (any byte string is a frame or counted
// malformed, never a crash); stats coherence (frames handed up plus
// duplicates never exceed well-formed DATA frames received, and
// stats.delivered counts the packets of the frames handed up, every one of
// which walks as a non-empty packet list); the resend queue respects its
// bound and a forged ack list can never make it grow; forged acks for
// never-sent sequence numbers leave the queue intact (the truncated-
// ack-list hardening: no partial side effects from malformed frames).
// Outgoing DATA frames carry 1..4 packets.
#include <chrono>
#include <span>
#include <vector>

#include "netio/link.hpp"

#include "fuzz_input.hpp"
#include "targets.hpp"

namespace apxa::fuzz {

namespace {
constexpr const char* kName = "fuzz_link";
}

int link_target(const std::uint8_t* data, std::size_t size) {
  const detail::ScopedFailureCapture capture;
  FuzzInput in(data, size);
  try {
    netio::LinkConfig cfg;
    cfg.max_unacked = 1 + in.in_range(0, 15);  // small queue: bound is reachable
    netio::PeerLink link(cfg);

    netio::PeerLink::TimePoint now{};  // sim time: epoch + fuzzer-chosen steps
    std::vector<netio::Delivered> delivered;
    std::uint64_t sent = 0;
    std::uint64_t handed_up = 0;  // packets in `delivered`

    // Interleave fuzzer datagrams with normal link operations so forged
    // frames land in every queue state, not just the empty one.
    while (in.remaining() > 0) {
      switch (in.u8() % 5) {
        case 0: {  // incoming datagram: raw fuzzer bytes
          const Bytes dgram = in.bytes(1 + in.u8() % 64);
          const std::size_t before = link.unacked();
          const std::size_t frames_before = delivered.size();
          link.on_datagram(dgram, now, delivered);
          APXA_FUZZ_REQUIRE(link.unacked() <= before, kName,
                            "incoming datagrams never grow the resend queue");
          APXA_FUZZ_REQUIRE(delivered.size() <= frames_before + 1, kName,
                            "one datagram hands up at most one frame");
          for (std::size_t i = frames_before; i < delivered.size(); ++i) {
            std::uint64_t packets = 0;
            APXA_FUZZ_REQUIRE(
                netio::for_each_packet(delivered[i].packets,
                                       [&packets](BytesView) { ++packets; }) &&
                    packets > 0,
                kName, "a frame handed up is a valid, non-empty packet list");
            handed_up += packets;
          }
          break;
        }
        case 1: {  // outgoing DATA: a frame of 1..4 packets
          if (link.has_capacity()) {
            std::vector<Bytes> packets(1 + in.u8() % 4);
            for (Bytes& p : packets) p = in.bytes(in.u8() % 16);
            const std::vector<BytesView> views(packets.begin(), packets.end());
            (void)link.make_data(views, now);
            ++sent;
          }
          break;
        }
        case 2: {  // time passes; timers fire
          now += std::chrono::microseconds(in.u16());
          std::vector<Bytes> resends;
          link.collect_retransmits(now, resends);
          break;
        }
        case 3: {  // flush pure acks
          (void)link.take_ack_frame();
          APXA_FUZZ_REQUIRE(!link.acks_pending() || link.take_ack_frame(),
                            kName, "pending acks are always flushable");
          break;
        }
        default: {  // quiescent step
          now += std::chrono::microseconds(1);
          break;
        }
      }
      const auto& st = link.stats();
      APXA_FUZZ_REQUIRE(link.unacked() <= cfg.max_unacked, kName,
                        "resend queue respects its configured bound");
      APXA_FUZZ_REQUIRE(delivered.size() + st.duplicates_dropped <=
                            st.data_received,
                        kName, "every delivery traces to a DATA frame");
      APXA_FUZZ_REQUIRE(st.delivered == handed_up, kName,
                        "stats.delivered matches packets handed up");
      APXA_FUZZ_REQUIRE(st.data_sent == sent, kName,
                        "stats.data_sent counts first transmissions only");
      APXA_FUZZ_REQUIRE(st.unacked_peak <= cfg.max_unacked, kName,
                        "high-water mark respects the bound");
    }
  } catch (...) {
    fail(kName, "link state machine let an exception escape");
  }
  return 0;
}

}  // namespace apxa::fuzz
