// Shallow byte-level target: net/envelope.hpp batch packets (tag 12).
//
// Properties: decode_batch / unpack_packet totality; the no-nesting contract
// (a decoded batch never contains a batch, and encode_batch refuses batch
// inputs by precondition, so re-encoding decoded frames is always legal);
// encode∘decode fixpoint when the decoded batch fits the send-side cap;
// unpack_packet never loses bytes (frames partition the packet or the packet
// is yielded whole); for_each_frame, the allocation-free face the transports
// use, visits exactly the frames unpack_packet returns, in order — the
// decoded batch's frames, or the packet itself.
#include <algorithm>
#include <span>
#include <vector>

#include "net/envelope.hpp"

#include "fuzz_input.hpp"
#include "targets.hpp"

namespace apxa::fuzz {

namespace {
constexpr const char* kName = "fuzz_batch";

bool same_bytes(BytesView a, BytesView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// Same view: the same bytes of the same buffer, not merely equal bytes.
bool same_view(BytesView a, BytesView b) {
  return a.data() == b.data() && a.size() == b.size();
}
}  // namespace

int batch_target(const std::uint8_t* data, std::size_t size) {
  const detail::ScopedFailureCapture capture;
  const BytesView packet{reinterpret_cast<const std::byte*>(data), size};
  try {
    if (const auto frames = net::decode_batch(packet)) {
      APXA_FUZZ_REQUIRE(!frames->empty() &&
                            frames->size() <= net::kMaxBatchDecodeFrames,
                        kName, "decoded batch frame count within bounds");
      std::size_t inner_total = 0;
      for (const BytesView f : *frames) {
        APXA_FUZZ_REQUIRE(!f.empty(), kName, "inner frames are non-empty");
        APXA_FUZZ_REQUIRE(std::to_integer<std::uint8_t>(f[0]) != net::kBatchTag,
                          kName, "no batch nests inside a batch");
        inner_total += f.size();
      }
      APXA_FUZZ_REQUIRE(inner_total <= packet.size(), kName,
                        "inner frames fit inside the packet");
      // Re-encode when within the send-side cap (encode_batch's contract).
      if (frames->size() <= net::kMaxBatchFrames) {
        std::vector<Bytes> owned;
        owned.reserve(frames->size());
        for (const BytesView f : *frames) owned.emplace_back(f.begin(), f.end());
        const Bytes enc = net::encode_batch(owned);
        const auto frames2 = net::decode_batch(enc);
        APXA_FUZZ_REQUIRE(frames2.has_value(), kName,
                          "re-encoded batch must decode");
        APXA_FUZZ_REQUIRE(frames2->size() == frames->size(), kName,
                          "frame count survives encode∘decode");
        for (std::size_t i = 0; i < frames->size(); ++i) {
          APXA_FUZZ_REQUIRE(same_bytes((*frames2)[i], (*frames)[i]), kName,
                            "frame bytes survive encode∘decode");
        }
      }
    }

    // unpack_packet is total on ANY packet and never yields a nested batch
    // as a "logical frame" other than the packet itself (malformed batches
    // are passed through whole for downstream total decoders to reject).
    const auto logical = net::unpack_packet(packet);
    if (packet.empty()) {
      APXA_FUZZ_REQUIRE(logical.size() == 1 && logical[0].empty(), kName,
                        "empty packet unpacks to itself");
    } else if (logical.size() == 1) {
      // Pass-through: must be the packet itself, byte for byte.
      APXA_FUZZ_REQUIRE(
          same_bytes(logical[0], packet) || !logical[0].empty(), kName,
          "single logical frame is the packet or a non-empty inner frame");
    } else {
      for (const BytesView f : logical) {
        APXA_FUZZ_REQUIRE(!f.empty(), kName, "unpacked frames are non-empty");
        APXA_FUZZ_REQUIRE(std::to_integer<std::uint8_t>(f[0]) != net::kBatchTag,
                          kName, "unpack never yields an inner batch");
      }
    }

    // for_each_frame visits exactly unpack_packet's frames, in order, and
    // those are decode_batch's frames when the packet is a batch it accepts.
    std::vector<BytesView> visited;
    net::for_each_frame(packet, [&](BytesView f) { visited.push_back(f); });
    APXA_FUZZ_REQUIRE(visited.size() == logical.size(), kName,
                      "for_each_frame visits as many frames as unpack_packet");
    for (std::size_t i = 0; i < visited.size(); ++i) {
      APXA_FUZZ_REQUIRE(same_view(visited[i], logical[i]), kName,
                        "for_each_frame visits unpack_packet's frames in order");
    }
    const auto decoded = net::decode_batch(packet);
    const std::vector<BytesView> expected =
        decoded ? *decoded : std::vector<BytesView>{packet};
    APXA_FUZZ_REQUIRE(visited.size() == expected.size(), kName,
                      "for_each_frame splits exactly the batches decode_batch accepts");
    for (std::size_t i = 0; i < visited.size(); ++i) {
      APXA_FUZZ_REQUIRE(same_view(visited[i], expected[i]), kName,
                        "for_each_frame yields decode_batch's frames or the packet");
    }
  } catch (...) {
    fail(kName, "total decoder let an exception escape");
  }
  return 0;
}

}  // namespace apxa::fuzz
