// Shallow byte-level target: every core/codec.hpp decoder over raw bytes.
//
// Properties:
//   totality — no decoder may crash, throw, or trip an APXA_ENSURE on any
//              byte string (a byzantine peer controls every wire byte);
//   fixpoint — a successful decode re-encodes to a frame that decodes to the
//              SAME message (encode∘decode is a fixpoint; the re-encoded
//              frame is the canonical form of the input, which may differ
//              from the input bytes when varints were overlong).
#include <cstring>

#include "core/codec.hpp"
#include "targets.hpp"

namespace apxa::fuzz {

namespace {

constexpr const char* kName = "fuzz_codec";

// Bitwise double equality: NaN payloads travel the wire too, and the
// fixpoint must preserve them exactly.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

int codec_target(const std::uint8_t* data, std::size_t size) {
  const detail::ScopedFailureCapture capture;
  const BytesView payload{reinterpret_cast<const std::byte*>(data), size};
  try {
    (void)core::peek_type(payload);

    if (const auto m = core::decode_round(payload)) {
      const Bytes enc = core::encode_round(*m);
      const auto m2 = core::decode_round(enc);
      APXA_FUZZ_REQUIRE(m2.has_value(), kName, "re-encoded ROUND must decode");
      APXA_FUZZ_REQUIRE(m2->round == m->round && same_bits(m2->value, m->value) &&
                            m2->budget == m->budget,
                        kName, "ROUND encode∘decode fixpoint");
    }
    if (const auto m = core::decode_done(payload)) {
      const Bytes enc = core::encode_done(*m);
      const auto m2 = core::decode_done(enc);
      APXA_FUZZ_REQUIRE(m2.has_value(), kName, "re-encoded DONE must decode");
      APXA_FUZZ_REQUIRE(m2->round == m->round && same_bits(m2->value, m->value),
                        kName, "DONE encode∘decode fixpoint");
    }
    if (const auto m = core::decode_rb(payload)) {
      const Bytes enc = core::encode_rb(*m);
      const auto m2 = core::decode_rb(enc);
      APXA_FUZZ_REQUIRE(m2.has_value(), kName, "re-encoded RB must decode");
      APXA_FUZZ_REQUIRE(m2->type == m->type && m2->instance == m->instance &&
                            m2->origin == m->origin &&
                            same_bits(m2->value, m->value),
                        kName, "RB encode∘decode fixpoint");
    }
    if (const auto m = core::decode_report(payload)) {
      const Bytes enc = core::encode_report(*m);
      const auto m2 = core::decode_report(enc);
      APXA_FUZZ_REQUIRE(m2.has_value(), kName, "re-encoded REPORT must decode");
      APXA_FUZZ_REQUIRE(m2->iter == m->iter && m2->have == m->have, kName,
                        "REPORT encode∘decode fixpoint");
    }
    if (const auto m = core::decode_rb_vec(payload)) {
      const Bytes enc = core::encode_rb_vec(*m);
      const auto m2 = core::decode_rb_vec(enc);
      APXA_FUZZ_REQUIRE(m2.has_value(), kName, "re-encoded RBVEC must decode");
      APXA_FUZZ_REQUIRE(m2->type == m->type && m2->instance == m->instance &&
                            m2->origin == m->origin &&
                            same_bits(m2->value, m->value),
                        kName, "RBVEC encode∘decode fixpoint");
    }
    if (const auto m = core::decode_vec_round(payload)) {
      const Bytes enc = core::encode_vec_round(m->first, m->second);
      const auto m2 = core::decode_vec_round(enc);
      APXA_FUZZ_REQUIRE(m2.has_value(), kName, "re-encoded VEC must decode");
      APXA_FUZZ_REQUIRE(m2->first == m->first && same_bits(m2->second, m->second),
                        kName, "VEC encode∘decode fixpoint");
    }

    // The value-aware scheduler probe runs on raw wire bytes too.
    (void)core::round_probe()(payload);
  } catch (...) {
    fail(kName, "total decoder let an exception escape");
  }
  return 0;
}

}  // namespace apxa::fuzz
