// Wire format for every protocol message in the library.
//
// All protocols share a single tagged encoding so that schedulers, probes and
// metrics can reason about traffic uniformly:
//
//   ROUND   : round-based value exchange   [tag][round varint][value f64][budget varint]
//   DONE    : frozen-value announcement    [tag][round varint][value f64]
//   RB_*    : Bracha reliable broadcast    [tag][instance varint][origin varint][value f64]
//   REPORT  : witness report (AAD'04 and   [tag][iter varint][bitset of delivered origins]
//             the equalized collect layer)
//   VEC     : vector round exchange        [tag][round varint][dim varint][f64 x dim][budget varint]
//             (encode_vec_round, multidim.hpp)
//   RBVEC_* : Bracha RB, vector payload    [tag][instance varint][origin varint][dim varint][f64 x dim]
//             (rb::VecBrachaHub, the transport of the equalized collect layer)
//
// The `budget` field of ROUND carries the sender's current round budget in
// the adaptive-termination mode (0 when unused) — budgets piggyback on value
// traffic instead of costing extra messages.
//
// Every format starts [tag][round-or-instance varint], which is what lets
// net::Metrics attribute per-phase and per-round message counts without
// knowing the protocols (see net/metrics.hpp).
//
// All decoders are TOTAL: any byte sequence — including truncated or
// overlong frames forged by byzantine peers — decodes to a message or
// nullopt, never an exception.  They run on raw network input inside honest
// parties' message loops, where throwing would turn one malformed message
// into a crash of every correct process.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "net/message.hpp"
#include "sched/scheduler.hpp"

namespace apxa::core {

enum class MsgType : std::uint8_t {
  kRound = 1,
  kDone = 2,
  kRbSend = 3,
  kRbEcho = 4,
  kRbReady = 5,
  kReport = 6,
  kVecRound = 7,    ///< encoded by core::encode_vec_round (multidim.hpp)
  kRbVecSend = 8,
  kRbVecEcho = 9,
  kRbVecReady = 10,
};

struct RoundMsg {
  Round round = 0;
  double value = 0.0;
  std::uint32_t budget = 0;  ///< adaptive round budget; 0 = not in use
};

struct DoneMsg {
  Round round = 0;
  double value = 0.0;
};

struct RbMsg {
  MsgType type = MsgType::kRbSend;  ///< kRbSend / kRbEcho / kRbReady
  std::uint32_t instance = 0;       ///< protocol-level instance tag (e.g. iteration)
  ProcessId origin = kNoProcess;    ///< original broadcaster
  double value = 0.0;
};

struct ReportMsg {
  std::uint32_t iter = 0;
  std::vector<bool> have;  ///< have[j] == RB-delivered origin j's value this iter
};

/// Bracha RB message carrying a full R^d point — the wire format of
/// rb::VecBrachaHub and hence of the equalized collect layer
/// (core/collect.hpp).  Mirrors RbMsg with a vector payload.
struct RbVecMsg {
  MsgType type = MsgType::kRbVecSend;  ///< kRbVecSend / kRbVecEcho / kRbVecReady
  std::uint32_t instance = 0;          ///< protocol-level instance tag (round)
  ProcessId origin = kNoProcess;       ///< original broadcaster
  std::vector<double> value;
};

namespace detail {

/// Shared implementation guard for wire decoders: runs `decode` and maps a
/// ByteReader overrun (std::invalid_argument) to nullopt, making the
/// decoder total over byzantine-forgeable input.  Internal to the codec
/// layer (core/codec.cpp and the vec-round codec in core/multidim.cpp).
template <class F>
auto total_decode(F&& decode) -> decltype(decode()) {
  try {
    return decode();
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

}  // namespace detail

/// Peek at the type tag without decoding; nullopt on empty payload.
std::optional<MsgType> peek_type(BytesView payload);

Bytes encode_round(const RoundMsg& m);
std::optional<RoundMsg> decode_round(BytesView payload);

Bytes encode_done(const DoneMsg& m);
std::optional<DoneMsg> decode_done(BytesView payload);

/// encode_round / encode_done straight into a transport buffer: the same
/// bytes in one allocation that every receiver of a multicast shares.
net::Payload round_payload(const RoundMsg& m);
net::Payload done_payload(const DoneMsg& m);

Bytes encode_rb(const RbMsg& m);
std::optional<RbMsg> decode_rb(BytesView payload);
/// encode_rb straight into a transport buffer (as round_payload): the Bracha
/// hub's SEND/ECHO/READY multicasts cost one allocation each.
net::Payload rb_payload(const RbMsg& m);

Bytes encode_report(const ReportMsg& m);
std::optional<ReportMsg> decode_report(BytesView payload);

Bytes encode_rb_vec(const RbVecMsg& m);
std::optional<RbVecMsg> decode_rb_vec(BytesView payload);
net::Payload rb_vec_payload(const RbVecMsg& m);

/// Scheduler probe that exposes ROUND messages' (round, value) to value-aware
/// adversaries.  Works for every round-based protocol in the library.
sched::ProbeFn round_probe();

}  // namespace apxa::core
