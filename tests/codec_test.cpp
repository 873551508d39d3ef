// Wire-format round trips, malformed-input rejection, and probe behavior.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/codec.hpp"
#include "core/multidim.hpp"  // decode_vec_round (wire tag 7)
#include "net/envelope.hpp"

namespace apxa::core {
namespace {

TEST(Codec, RoundMsgRoundTrip) {
  const RoundMsg m{42, -3.75, 17};
  const Bytes b = encode_round(m);
  const auto d = decode_round(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->round, 42u);
  EXPECT_EQ(d->value, -3.75);
  EXPECT_EQ(d->budget, 17u);
}

TEST(Codec, RoundMsgCompact) {
  // tag + 1-byte round + f64 + 1-byte budget = 11 bytes for small fields.
  EXPECT_EQ(encode_round(RoundMsg{3, 1.0, 0}).size(), 11u);
}

TEST(Codec, DoneMsgRoundTrip) {
  const DoneMsg m{7, 0.5};
  const auto d = decode_done(encode_done(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->round, 7u);
  EXPECT_EQ(d->value, 0.5);
}

TEST(Codec, RbMsgRoundTrip) {
  for (MsgType t : {MsgType::kRbSend, MsgType::kRbEcho, MsgType::kRbReady}) {
    const RbMsg m{t, 9, 4, 2.25};
    const auto d = decode_rb(encode_rb(m));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->type, t);
    EXPECT_EQ(d->instance, 9u);
    EXPECT_EQ(d->origin, 4u);
    EXPECT_EQ(d->value, 2.25);
  }
}

TEST(Codec, PayloadEncodersWriteTheSameBytes) {
  // The *_payload encoders write into a shared transport buffer; their bytes
  // must equal the Bytes encoders' (multicasts and unicasts mix on the wire).
  auto same = [](const net::Payload& p, const Bytes& b) {
    const BytesView v = p.view();
    return std::equal(v.begin(), v.end(), b.begin(), b.end());
  };
  for (MsgType t : {MsgType::kRbSend, MsgType::kRbEcho, MsgType::kRbReady}) {
    const RbMsg m{t, 300, 15, -0.75};
    EXPECT_TRUE(same(rb_payload(m), encode_rb(m)));
  }
  for (MsgType t :
       {MsgType::kRbVecSend, MsgType::kRbVecEcho, MsgType::kRbVecReady}) {
    const RbVecMsg m{t, 200, 130, {1.5, -2.0, 0.25}};
    EXPECT_TRUE(same(rb_vec_payload(m), encode_rb_vec(m)));
  }
  const RoundMsg r{129, 0.5, 7};
  EXPECT_TRUE(same(round_payload(r), encode_round(r)));
  const DoneMsg d{129, 0.5};
  EXPECT_TRUE(same(done_payload(d), encode_done(d)));
}

TEST(Codec, ReportMsgRoundTrip) {
  ReportMsg m;
  m.iter = 3;
  m.have = {true, false, true, true, false, false, true};
  const auto d = decode_report(encode_report(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->iter, 3u);
  EXPECT_EQ(d->have, m.have);
}

TEST(Codec, RbVecMsgRoundTrip) {
  for (MsgType t :
       {MsgType::kRbVecSend, MsgType::kRbVecEcho, MsgType::kRbVecReady}) {
    const RbVecMsg m{t, 6, 2, {1.5, -2.0, 0.0}};
    const auto d = decode_rb_vec(encode_rb_vec(m));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->type, t);
    EXPECT_EQ(d->instance, 6u);
    EXPECT_EQ(d->origin, 2u);
    EXPECT_EQ(d->value, m.value);
  }
}

TEST(Codec, RbVecRejectsMalformed) {
  // Scalar RB and vector RB tags are disjoint.
  EXPECT_FALSE(decode_rb_vec(encode_rb(RbMsg{MsgType::kRbSend, 1, 2, 3.0})));
  EXPECT_FALSE(decode_rb(encode_rb_vec(
      RbVecMsg{MsgType::kRbVecSend, 1, 2, {3.0}})));
  // Empty vectors and trailing garbage are rejected.
  EXPECT_FALSE(decode_rb_vec(encode_rb_vec(
      RbVecMsg{MsgType::kRbVecSend, 1, 2, {}})));
  Bytes b = encode_rb_vec(RbVecMsg{MsgType::kRbVecEcho, 1, 2, {3.0, 4.0}});
  b.push_back(static_cast<std::byte>(0));
  EXPECT_FALSE(decode_rb_vec(b).has_value());
}

TEST(Codec, PeekTypeCoversVectorTags) {
  EXPECT_EQ(peek_type(encode_rb_vec(RbVecMsg{MsgType::kRbVecReady, 1, 2, {3.0}})),
            MsgType::kRbVecReady);
}

TEST(Codec, CrossDecodeReturnsNullopt) {
  const Bytes round = encode_round(RoundMsg{1, 2.0, 0});
  EXPECT_FALSE(decode_done(round).has_value());
  EXPECT_FALSE(decode_rb(round).has_value());
  EXPECT_FALSE(decode_report(round).has_value());

  const Bytes rb = encode_rb(RbMsg{MsgType::kRbEcho, 1, 2, 3.0});
  EXPECT_FALSE(decode_round(rb).has_value());
}

TEST(Codec, PeekType) {
  EXPECT_EQ(peek_type(encode_round(RoundMsg{1, 2.0, 0})), MsgType::kRound);
  EXPECT_EQ(peek_type(encode_done(DoneMsg{1, 2.0})), MsgType::kDone);
  EXPECT_EQ(peek_type(Bytes{}), std::nullopt);
  Bytes junk{static_cast<std::byte>(200)};
  EXPECT_EQ(peek_type(junk), std::nullopt);
}

TEST(Codec, TruncatedPayloadRejected) {
  // Decoders are total: truncation — byzantine-forgeable network input —
  // yields nullopt, never an exception (a throw here would crash every
  // honest party's message loop).
  Bytes b = encode_round(RoundMsg{100000, 2.0, 5});
  b.pop_back();
  EXPECT_FALSE(decode_round(b).has_value());
  // The nastiest truncation: a bare valid tag byte and nothing else.
  for (std::uint8_t tag = 1; tag <= 10; ++tag) {
    const Bytes lone{static_cast<std::byte>(tag)};
    EXPECT_FALSE(decode_round(lone).has_value());
    EXPECT_FALSE(decode_done(lone).has_value());
    EXPECT_FALSE(decode_rb(lone).has_value());
    EXPECT_FALSE(decode_report(lone).has_value());
    EXPECT_FALSE(decode_rb_vec(lone).has_value());
    EXPECT_FALSE(decode_vec_round(lone).has_value());
  }
}

TEST(Codec, TrailingGarbageRejected) {
  Bytes b = encode_round(RoundMsg{1, 2.0, 5});
  b.push_back(static_cast<std::byte>(0));
  EXPECT_FALSE(decode_round(b).has_value());
}

// --- instance envelope & batch framing (net/envelope.hpp) -------------------

/// One representative encoded frame for EVERY protocol wire tag 1..10, so the
/// envelope layer is exercised against the full frame zoo it must carry.
std::vector<Bytes> sample_frames() {
  std::vector<Bytes> frames;
  frames.push_back(encode_round(RoundMsg{42, -3.75, 17}));          // tag 1
  frames.push_back(encode_done(DoneMsg{7, 0.5}));                   // tag 2
  for (MsgType t : {MsgType::kRbSend, MsgType::kRbEcho, MsgType::kRbReady}) {
    frames.push_back(encode_rb(RbMsg{t, 9, 4, 2.25}));              // tags 3..5
  }
  ReportMsg rep;
  rep.iter = 3;
  rep.have = {true, false, true, true, false};
  frames.push_back(encode_report(rep));                             // tag 6
  frames.push_back(encode_vec_round(5, {1.0, -2.5, 3.25}));         // tag 7
  for (MsgType t :
       {MsgType::kRbVecSend, MsgType::kRbVecEcho, MsgType::kRbVecReady}) {
    frames.push_back(encode_rb_vec(RbVecMsg{t, 6, 2, {1.5, -2.0}}));  // 8..10
  }
  return frames;
}

bool view_equals(BytesView view, const Bytes& expect) {
  return view.size() == expect.size() &&
         std::equal(view.begin(), view.end(), expect.begin());
}

TEST(Envelope, RoundTripCoversEveryTag) {
  std::uint32_t inst = 0;
  for (const Bytes& inner : sample_frames()) {
    const Bytes wire = net::encode_envelope(inst, inner);
    EXPECT_TRUE(net::is_envelope(wire));
    const auto env = net::decode_envelope(wire);
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->instance, inst);
    EXPECT_TRUE(view_equals(env->payload, inner));
    inst = inst * 31 + 101;  // walks into multi-byte varint territory
  }
}

TEST(Envelope, BatchRoundTripMixedFrames) {
  // A batch may mix enveloped and legacy (bare) frames.
  const auto inners = sample_frames();
  std::vector<Bytes> frames;
  for (std::size_t i = 0;
       i < inners.size() && frames.size() + 1 < net::kMaxBatchFrames; ++i) {
    frames.push_back(
        net::encode_envelope(static_cast<std::uint32_t>(i), inners[i]));
  }
  frames.push_back(inners.back());  // one bare legacy frame
  const Bytes packet = net::encode_batch(frames);
  EXPECT_FALSE(net::is_envelope(packet));
  const auto dec = net::decode_batch(packet);
  ASSERT_TRUE(dec.has_value());
  ASSERT_EQ(dec->size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(view_equals((*dec)[i], frames[i]));
  }
}

TEST(Envelope, TruncationTotality) {
  // Every byte prefix of a valid envelope must decode to a value or nullopt,
  // never throw — and whenever the prefix still parses as an envelope (the
  // inner frame extends to the end, so truncation can land inside it), the
  // truncated INNER frame must be rejected by the protocol decoder.
  const Bytes inner = encode_round(RoundMsg{100000, 2.0, 5});
  const Bytes env = net::encode_envelope(3000000, inner);  // multi-byte varint
  for (std::size_t len = 0; len < env.size(); ++len) {
    const BytesView prefix(env.data(), len);
    const auto d = net::decode_envelope(prefix);
    if (d.has_value()) {
      EXPECT_FALSE(decode_round(d->payload).has_value());
    }
    // unpack_packet is total too: a non-batch prefix yields itself.
    if (len > 0) {
      EXPECT_EQ(net::unpack_packet(prefix).size(), 1u);
    }
  }

  // Every strict prefix of a batch fails the exact-fill check.
  std::vector<Bytes> frames;
  for (std::uint32_t i = 0; i < 3; ++i) {
    frames.push_back(net::encode_envelope(i, inner));
  }
  const Bytes packet = net::encode_batch(frames);
  for (std::size_t len = 0; len < packet.size(); ++len) {
    EXPECT_FALSE(net::decode_batch(BytesView(packet.data(), len)).has_value());
  }

  // The nastiest truncation: a bare tag byte and nothing else.
  for (std::uint8_t tag : {net::kEnvelopeTag, net::kBatchTag}) {
    const Bytes lone{static_cast<std::byte>(tag)};
    EXPECT_FALSE(net::decode_envelope(lone).has_value());
    EXPECT_FALSE(net::decode_batch(lone).has_value());
  }
}

TEST(Envelope, OverlongVarintCannotAliasInstanceId) {
  // Fuzz-surfaced decoder gap (PR 10): LEB128 payload bits at or above bit 64
  // used to wrap modulo 2^64, so a forged 10-byte varint encoding
  // instance + 2^64 decoded to the small instance id — a peer could smuggle
  // traffic into instance 7 through bytes that no honest encoder emits.
  // The reader now rejects any 10th byte carrying bits past bit 63.
  const Bytes inner = encode_round(RoundMsg{1, 2.0, 0});
  Bytes forged{static_cast<std::byte>(net::kEnvelopeTag)};
  // varint for 7 + 2^64: 0x87, eight 0x80 continuations, then 0x02 (bit 64).
  forged.push_back(static_cast<std::byte>(0x87));
  for (int i = 0; i < 8; ++i) forged.push_back(static_cast<std::byte>(0x80));
  forged.push_back(static_cast<std::byte>(0x02));
  forged.insert(forged.end(), inner.begin(), inner.end());
  EXPECT_FALSE(net::decode_envelope(forged).has_value());

  // The honest canonical encoding of instance 7 still decodes, of course.
  const auto ok = net::decode_envelope(net::encode_envelope(7, inner));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->instance, 7u);

  // Same wrap through a protocol-frame varint (ROUND's round field): total
  // rejection, no exception.
  Bytes round_forged{static_cast<std::byte>(MsgType::kRound)};
  round_forged.push_back(static_cast<std::byte>(0x81));
  for (int i = 0; i < 8; ++i) {
    round_forged.push_back(static_cast<std::byte>(0x80));
  }
  round_forged.push_back(static_cast<std::byte>(0x02));
  for (int i = 0; i < 8; ++i) round_forged.push_back(std::byte{});  // value
  round_forged.push_back(std::byte{});                              // budget
  EXPECT_FALSE(decode_round(round_forged).has_value());

  // UINT64_MAX itself is representable and must keep round-tripping: its
  // 10th byte is 0x01, which carries only bit 63.
  ByteWriter w;
  w.put_varint(~0ull);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_varint(), ~0ull);
}

TEST(Envelope, BatchRefusesNesting) {
  const Bytes env = net::encode_envelope(0, encode_done(DoneMsg{1, 2.0}));
  const Bytes packet = net::encode_batch(std::vector<Bytes>{env});
  // Encoder-side: batching a batch throws (programming error, not input).
  EXPECT_THROW(net::encode_batch(std::vector<Bytes>{packet}),
               std::invalid_argument);
  // Decoder-side: a forged nested batch [12][1][len][batch...] is rejected.
  Bytes forged;
  forged.push_back(static_cast<std::byte>(net::kBatchTag));
  forged.push_back(static_cast<std::byte>(1));  // count = 1
  ASSERT_LT(packet.size(), 128u);
  forged.push_back(static_cast<std::byte>(packet.size()));  // 1-byte varint len
  forged.insert(forged.end(), packet.begin(), packet.end());
  EXPECT_FALSE(net::decode_batch(forged).has_value());
  // ...and unpack_packet hands the junk through whole rather than crashing.
  EXPECT_EQ(net::unpack_packet(forged).size(), 1u);
}

TEST(Envelope, BatchEncodeValidatesUsage) {
  const Bytes env = net::encode_envelope(0, encode_done(DoneMsg{1, 2.0}));
  EXPECT_THROW(net::encode_batch(std::vector<Bytes>{}), std::invalid_argument);
  EXPECT_THROW(net::encode_batch(std::vector<Bytes>{Bytes{}}),
               std::invalid_argument);
  std::vector<Bytes> over(net::kMaxBatchFrames + 1, env);
  EXPECT_THROW(net::encode_batch(over), std::invalid_argument);
  // A forged count of zero is rejected on decode.
  const Bytes zero{static_cast<std::byte>(net::kBatchTag),
                   static_cast<std::byte>(0)};
  EXPECT_FALSE(net::decode_batch(zero).has_value());
}

TEST(Envelope, UnpackPacketSplitsBatchesOnly) {
  const Bytes legacy = encode_round(RoundMsg{1, 2.0, 0});
  const auto solo = net::unpack_packet(legacy);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_TRUE(view_equals(solo[0], legacy));

  const Bytes env = net::encode_envelope(4, legacy);
  const auto one = net::unpack_packet(env);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(view_equals(one[0], env));

  // Views alias the packet, so it must outlive them.
  std::vector<Bytes> frames{env, legacy, net::encode_envelope(5, legacy)};
  const Bytes batch = net::encode_batch(frames);
  const auto many = net::unpack_packet(batch);
  ASSERT_EQ(many.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(view_equals(many[i], frames[i]));
  }
}

TEST(Codec, ProbeDecodesRoundOnly) {
  const auto probe = round_probe();
  const auto hit = probe(encode_round(RoundMsg{5, 1.5, 0}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->round, 5u);
  EXPECT_EQ(hit->value, 1.5);
  EXPECT_FALSE(probe(encode_done(DoneMsg{5, 1.5})).has_value());
  EXPECT_FALSE(probe(encode_rb(RbMsg{MsgType::kRbSend, 1, 2, 3.0})).has_value());
}

}  // namespace
}  // namespace apxa::core
