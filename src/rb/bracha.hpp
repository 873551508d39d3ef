// Bracha's asynchronous reliable broadcast (Information & Computation 1987),
// multiplexed over (instance, origin) pairs and generic over the value
// carried: BrachaHub carries a `double` (wire tags kRbSend/kRbEcho/kRbReady),
// VecBrachaHub a `std::vector<double>` (kRbVecSend/kRbVecEcho/kRbVecReady).
// Both transport core::WitnessPhase (core/collect.hpp).
//
// Preconditions (checked in the constructor):
//   - n > 3t — below this bound two ECHO quorums need not intersect in a
//     correct party and agreement is forfeit;
//   - a non-null delivery callback.
//
// Guarantees with n > 3t (byzantine faults, authenticated channels):
//   validity    — if a correct origin broadcasts v, every correct party
//                 eventually delivers (origin, v);
//   agreement   — no two correct parties deliver different values for the
//                 same (instance, origin) — in particular, an equivocating
//                 origin either has ONE of its values delivered everywhere
//                 or none anywhere, never a split;
//   uniqueness  — each party delivers at most one value per (instance,
//                 origin): the slot's `delivered` latch makes a second
//                 delivery structurally impossible;
//   totality    — if any correct party delivers, every correct party
//                 eventually delivers (provided correct parties keep feeding
//                 the hub, even after their own protocol finished — see
//                 handle() below).
//
// Message flow for one (instance, origin):
//   origin multicasts SEND(v)
//   on SEND(v) from the origin itself: multicast ECHO(v)          (once)
//   on n - t ECHO(v):                  multicast READY(v)         (once)
//   on t + 1 READY(v):                 multicast READY(v)         (once)
//   on 2t + 1 READY(v):                deliver v                  (once)
//
// Thresholds, and why exactly these:
//   n - t  ECHO  — the largest quorum a correct party can always collect;
//                  two such quorums share n - 2t >= t + 1 parties, at least
//                  one correct, so no two READY waves carry different values;
//   t + 1  READY — more than the byzantine parties can forge alone, so a
//                  correct READY wave exists and amplification cannot be
//                  attacker-initiated; this echo of READYs gives totality;
//   2t + 1 READY — at least t + 1 correct READYs, enough that every correct
//                  party will eventually see the t + 1 needed to join the
//                  wave, so one correct delivery forces all.
//
// The hub is a component embedded in a Process: the owner feeds every
// incoming payload to handle(), which returns true when it consumed an RB
// message.  Own ECHO/READY votes are counted locally without self-messages.
// Cost per broadcast: O(n^2) messages.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "core/codec.hpp"
#include "net/message.hpp"
#include "net/process.hpp"

namespace apxa::rb {

/// Wire adapter: how a hub's value type is encoded as SEND/ECHO/READY
/// messages.  Specialized for double (RbMsg, tags 3-5) and
/// std::vector<double> (RbVecMsg, tags 8-10) below; the two tag ranges are
/// disjoint, so a scalar and a vector hub never consume each other's
/// traffic.  Encoding writes straight into the shared transport buffer.
template <class Value>
struct RbWire;

template <>
struct RbWire<double> {
  using Msg = core::RbMsg;
  static constexpr core::MsgType kSend = core::MsgType::kRbSend;
  static constexpr core::MsgType kEcho = core::MsgType::kRbEcho;
  static constexpr core::MsgType kReady = core::MsgType::kRbReady;
  static net::Payload encode(core::MsgType type, std::uint32_t instance,
                             ProcessId origin, const double& value) {
    return core::rb_payload(core::RbMsg{type, instance, origin, value});
  }
  static std::optional<Msg> decode(BytesView payload) {
    return core::decode_rb(payload);
  }
};

template <>
struct RbWire<std::vector<double>> {
  using Msg = core::RbVecMsg;
  static constexpr core::MsgType kSend = core::MsgType::kRbVecSend;
  static constexpr core::MsgType kEcho = core::MsgType::kRbVecEcho;
  static constexpr core::MsgType kReady = core::MsgType::kRbVecReady;
  static net::Payload encode(core::MsgType type, std::uint32_t instance,
                             ProcessId origin, const std::vector<double>& value) {
    return core::rb_vec_payload(core::RbVecMsg{type, instance, origin, value});
  }
  static std::optional<Msg> decode(BytesView payload) {
    return core::decode_rb_vec(payload);
  }
};

/// Bracha RB hub carrying `Value` payloads.  Votes are tallied per distinct
/// WIRE value (see Slot), so Value needs no ordering.
///
/// Slot storage: one contiguous block of n slots per instance (slot o is
/// origin o), with the block's voter bitmaps in one array beside it.
/// Blocks live in a map keyed by instance and are created on the first
/// message naming it, so a forged instance number costs one block, never
/// state proportional to the number.  The block of the last instance used
/// is cached, so the steady state of a wave looks a slot up without
/// hashing.  Blocks never move once created: a Slot& stays valid while the
/// delivery callback broadcasts (and so creates blocks) reentrantly.
template <class Value>
class BasicBrachaHub {
 public:
  /// The decoded wire message: core::RbMsg or core::RbVecMsg.
  using Msg = typename RbWire<Value>::Msg;

  /// Called exactly once per (instance, origin) on delivery — the
  /// `delivered` latch below enforces the at-most-once half, the READY
  /// quorum the at-least half.
  using DeliverFn = std::function<void(net::Context&, std::uint32_t instance,
                                       ProcessId origin, const Value& value)>;

  /// Requires params.n > 3t and a non-null callback (throws otherwise).
  BasicBrachaHub(SystemParams params, DeliverFn on_deliver);
  /// Not copyable: the cached block points into this hub's own map.
  BasicBrachaHub(const BasicBrachaHub&) = delete;
  BasicBrachaHub& operator=(const BasicBrachaHub&) = delete;

  /// Reliably broadcast `value` under `instance` (the caller is the origin).
  /// Multicasts SEND and processes the local copy immediately (own ECHO).
  void broadcast(net::Context& ctx, std::uint32_t instance, const Value& value);

  /// Feed an incoming payload; returns true if it was an RB message of this
  /// hub's wire format.  MUST keep being called for the lifetime of the
  /// party — even after the owning protocol has output — or laggards lose
  /// the echoes/readies totality depends on.
  bool handle(net::Context& ctx, ProcessId from, BytesView payload);
  /// The same for a message the owner has already decoded.
  void handle(net::Context& ctx, ProcessId from, const Msg& m);

  /// Number of (instance, origin) slots allocated: n per instance that has
  /// state (diagnostics).
  [[nodiscard]] std::size_t live_slots() const {
    return blocks_.size() * params_.n;
  }

 private:
  /// Distinct values voted for, each with its vote count.
  using Tally = std::vector<std::pair<Value, std::uint32_t>>;

  /// Vote state of one (instance, origin).
  ///
  /// Vote identity is bitwise equality of the WIRE value (the bit pattern
  /// of a double; size plus bytes of a vector), never operator<: a NaN
  /// breaks the strict weak ordering an ordered map relies on — every value
  /// then compares "equivalent" to the NaN entry — so one byzantine NaN
  /// vote could pool honest votes for different values into a single
  /// quorum.  Bitwise identity is an equivalence for every bit pattern.
  ///
  /// One ECHO and one READY per voter per slot, whatever the value (first
  /// vote wins): honest parties never send more, and without the cap a
  /// byzantine voter could grow the tallies (one entry per distinct forged
  /// value) without bound at every honest party.  With it each tally holds
  /// at most n entries and a slot's state is bounded by n voters.
  struct Slot {
    bool echoed = false;
    bool ready_sent = false;
    bool delivered = false;
    Tally echoes;
    Tally readies;
    /// Voter bitmaps, n bits each, in the block's bitmap array: ECHO voters
    /// in the first `words_` words, READY voters in the next `words_`.
    std::uint64_t* voters = nullptr;
  };

  /// The n slots of one instance and their voter bitmaps.
  struct Block {
    std::vector<Slot> slots;
    std::vector<std::uint64_t> voters;
  };

  Slot& slot(std::uint32_t instance, ProcessId origin);
  void add_echo(net::Context& ctx, std::uint32_t instance, ProcessId origin,
                Slot& s, ProcessId voter, const Value& value);
  void add_ready(net::Context& ctx, std::uint32_t instance, ProcessId origin,
                 Slot& s, ProcessId voter, const Value& value);
  void send_echo(net::Context& ctx, std::uint32_t instance, ProcessId origin,
                 Slot& s, const Value& value);
  void send_ready(net::Context& ctx, std::uint32_t instance, ProcessId origin,
                  Slot& s, const Value& value);

  SystemParams params_;
  DeliverFn deliver_;
  std::size_t words_;  // 64-bit words per voter bitmap
  /// Node-based, so a Block (and its Slots) never moves.
  std::unordered_map<std::uint32_t, Block> blocks_;
  std::uint32_t last_instance_ = 0;
  Block* last_block_ = nullptr;  // blocks_[last_instance_], or null
};

/// Scalar hub (RB_* frames).
using BrachaHub = BasicBrachaHub<double>;

/// Vector hub (RBVEC_* frames).
using VecBrachaHub = BasicBrachaHub<std::vector<double>>;

}  // namespace apxa::rb
