#include "adversary/byzantine.hpp"

#include <algorithm>

#include "core/codec.hpp"
#include "core/multidim.hpp"

namespace apxa::adversary {

using core::encode_round;
using core::RoundMsg;

ByzRoundProcess::ByzRoundProcess(ByzSpec spec)
    : spec_(spec), rng_(spec.seed), emitted_(spec.max_instances, false) {}

void ByzRoundProcess::on_start(net::Context& ctx) { emit_round(ctx, 0); }

void ByzRoundProcess::on_message(net::Context& ctx, ProcessId from, BytesView payload) {
  const auto m = core::decode_round(payload);
  if (!m) return;
  if (!seen_any_) {
    seen_lo_ = seen_hi_ = m->value;
    seen_any_ = true;
  } else {
    seen_lo_ = std::min(seen_lo_, m->value);
    seen_hi_ = std::max(seen_hi_, m->value);
  }
  senders_seen_.insert(from);
  // Learn that round r (and, implicitly, r+1 which honest parties will enter)
  // exists; attack both.
  emit_round(ctx, m->round);
  emit_round(ctx, m->round + 1);
}

void ByzRoundProcess::emit_round(net::Context& ctx, Round r) {
  if (spec_.kind == ByzKind::kSilent) return;
  if (r >= spec_.max_instances) return;
  // Hull-escape holds fire until a quorum of distinct senders has been
  // observed, exactly as in the vector attacker (this is its 1-D shadow).
  if (spec_.kind == ByzKind::kHullEscape &&
      senders_seen_.size() < ctx.params().quorum()) {
    return;
  }
  if (emitted_[r]) return;
  emitted_[r] = true;

  const auto n = ctx.params().n;
  const std::uint32_t budget = spec_.inflate_budget;

  for (ProcessId to = 0; to < n; ++to) {
    if (to == ctx.self()) continue;
    double v = 0.0;
    switch (spec_.kind) {
      case ByzKind::kSilent:
        return;
      case ByzKind::kExtremeLow:
        v = spec_.lo;
        break;
      case ByzKind::kExtremeHigh:
        v = spec_.hi;
        break;
      case ByzKind::kEquivocate:
        v = (to < n / 2) ? spec_.lo : spec_.hi;
        break;
      case ByzKind::kSpoiler: {
        const double lo = seen_any_ ? seen_lo_ : spec_.lo;
        const double hi = seen_any_ ? seen_hi_ : spec_.hi;
        const double width = std::max(1e-12, hi - lo);
        v = (to < n / 2) ? lo - spec_.amplify * width : hi + spec_.amplify * width;
        break;
      }
      case ByzKind::kNoise:
        v = rng_.next_double(spec_.lo, spec_.hi);
        break;
      case ByzKind::kHullEscape: {
        // 1-D shadow of the vector attack: push toward the observed high
        // extreme from just inside it (in 1-D box == hull, so this is a
        // negative control — it cannot break validity).
        const double lo = seen_any_ ? seen_lo_ : spec_.lo;
        const double hi = seen_any_ ? seen_hi_ : spec_.hi;
        v = hi - spec_.hull_margin * std::max(1e-12, hi - lo);
        break;
      }
    }
    ctx.send(to, encode_round(RoundMsg{r, v, budget}));
  }
}

ByzVectorProcess::ByzVectorProcess(ByzSpec spec, std::uint32_t dim,
                                   VectorWire wire)
    : spec_(spec),
      dim_(dim),
      wire_(wire),
      rng_(spec.seed),
      emitted_(spec.max_instances, false),
      seen_lo_(dim, 0.0),
      seen_hi_(dim, 0.0) {}

void ByzVectorProcess::on_start(net::Context& ctx) { emit_round(ctx, 0); }

void ByzVectorProcess::on_message(net::Context& ctx, ProcessId from,
                                  BytesView payload) {
  // Learn rounds and per-coordinate extremes from whichever wire the
  // protocol uses: direct vector rounds, or any phase of vector RB (whose
  // instance tag IS the round, and whose echoes/readies relay honest values
  // just as well as sends do).
  Round round = 0;
  std::vector<double> vec;
  bool learn_value = false;
  if (const auto m = core::decode_vec_round(payload)) {
    round = m->first;
    vec = m->second;
    learn_value = true;
  } else if (auto rb = core::decode_rb_vec(payload)) {
    round = rb->instance;
    vec = std::move(rb->value);
    // Learn values only from the origin's own authenticated SEND — exactly
    // the visibility the direct wire gives.  Echoes/readies relay forged
    // values (our own, and other attackers'); folding those into the
    // observed extremes would let spoofing attackers amplify themselves and
    // one another round over round.  Rounds are still learned from any
    // phase below.
    learn_value = rb->type == core::MsgType::kRbVecSend && rb->origin == from;
  } else {
    return;
  }
  if (vec.size() != dim_) return;
  if (!learn_value) {
    emit_round(ctx, round);
    emit_round(ctx, round + 1);
    return;
  }
  for (std::uint32_t c = 0; c < dim_; ++c) {
    if (!seen_any_) {
      seen_lo_[c] = seen_hi_[c] = vec[c];
    } else {
      seen_lo_[c] = std::min(seen_lo_[c], vec[c]);
      seen_hi_[c] = std::max(seen_hi_[c], vec[c]);
    }
  }
  seen_any_ = true;
  senders_seen_.insert(from);
  emit_round(ctx, round);
  emit_round(ctx, round + 1);
}

void ByzVectorProcess::emit_round(net::Context& ctx, Round r) {
  if (spec_.kind == ByzKind::kSilent) return;
  if (r >= spec_.max_instances) return;
  // Hull-escape wants its corner steered by the REAL honest extremes, so it
  // holds fire until it has observed vectors from a quorum of DISTINCT
  // senders (without consuming the round: a later learning event retries).
  // A corner forged from a one-or-two-party prefix would neither pull
  // laundered coordinates toward their true extremes nor look like the
  // coordinated-extreme attack it is specified to be.
  if (spec_.kind == ByzKind::kHullEscape &&
      senders_seen_.size() < ctx.params().quorum()) {
    return;
  }
  if (emitted_[r]) return;
  emitted_[r] = true;

  const auto n = ctx.params().n;
  std::vector<double> v(dim_, 0.0);
  for (ProcessId to = 0; to < n; ++to) {
    if (to == ctx.self()) continue;
    const bool low_camp = to < n / 2;
    for (std::uint32_t c = 0; c < dim_; ++c) {
      switch (spec_.kind) {
        case ByzKind::kSilent:
          return;
        case ByzKind::kExtremeLow:
          v[c] = spec_.lo;
          break;
        case ByzKind::kExtremeHigh:
          v[c] = spec_.hi;
          break;
        case ByzKind::kEquivocate:
          v[c] = low_camp ? spec_.lo : spec_.hi;
          break;
        case ByzKind::kSpoiler: {
          const double lo = seen_any_ ? seen_lo_[c] : spec_.lo;
          const double hi = seen_any_ ? seen_hi_[c] : spec_.hi;
          const double width = std::max(1e-12, hi - lo);
          v[c] = low_camp ? lo - spec_.amplify * width
                          : hi + spec_.amplify * width;
          break;
        }
        case ByzKind::kNoise:
          v[c] = rng_.next_double(spec_.lo, spec_.hi);
          break;
        case ByzKind::kHullEscape: {
          // Coordinated corner: the same point for every receiver, each
          // coordinate a small margin inside the observed honest maximum —
          // survives per-coordinate trimming yet pulls every coordinate
          // toward its extreme simultaneously, i.e. toward a box corner
          // outside the honest convex hull.
          const double lo = seen_any_ ? seen_lo_[c] : spec_.lo;
          const double hi = seen_any_ ? seen_hi_[c] : spec_.hi;
          v[c] = hi - spec_.hull_margin * std::max(1e-12, hi - lo);
          break;
        }
      }
    }
    if (wire_ == VectorWire::kRbVec) {
      // Per-receiver RB SENDs: the same equivocation power on the wire, but
      // Bracha's echo quorums resolve at most one of these values (or none)
      // — the property the equalized collect layer exists to provide.
      ctx.send(to, core::encode_rb_vec(core::RbVecMsg{
                       core::MsgType::kRbVecSend, r, ctx.self(), v}));
    } else {
      ctx.send(to, core::encode_vec_round(r, v));
    }
  }
}

ByzWitnessProcess::ByzWitnessProcess(ByzSpec spec)
    : spec_(spec), rng_(spec.seed), emitted_(spec.max_instances, false) {}

void ByzWitnessProcess::on_start(net::Context& ctx) { emit_iteration(ctx, 0); }

void ByzWitnessProcess::on_message(net::Context& ctx, ProcessId from, BytesView payload) {
  (void)from;
  std::uint32_t iter = 0;
  if (const auto rb = core::decode_rb(payload)) {
    iter = rb->instance;
  } else if (const auto rep = core::decode_report(payload)) {
    iter = rep->iter;
  } else {
    return;
  }
  emit_iteration(ctx, iter);
  emit_iteration(ctx, iter + 1);
}

double ByzWitnessProcess::camp_value(bool low_camp) const {
  switch (spec_.kind) {
    case ByzKind::kExtremeLow:
      return spec_.lo;
    case ByzKind::kEquivocate:
    case ByzKind::kSpoiler:
      return low_camp ? spec_.lo : spec_.hi;
    case ByzKind::kExtremeHigh:
    case ByzKind::kHullEscape:  // scalar witness protocol: plain high extreme
    case ByzKind::kSilent:
    case ByzKind::kNoise:
      break;
  }
  return spec_.hi;
}

void ByzWitnessProcess::emit_iteration(net::Context& ctx, std::uint32_t iter) {
  if (spec_.kind == ByzKind::kSilent) return;
  if (iter >= spec_.max_instances || emitted_[iter]) return;
  emitted_[iter] = true;
  const auto n = ctx.params().n;
  auto send_of = [&](double v) {
    return core::rb_payload(
        core::RbMsg{core::MsgType::kRbSend, iter, ctx.self(), v});
  };
  // One shared SEND buffer per camp; noise draws and encodes per receiver.
  const bool noise = spec_.kind == ByzKind::kNoise;
  net::Payload low, high;
  if (!noise) {
    low = send_of(camp_value(true));
    high = send_of(camp_value(false));
  }
  for (ProcessId to = 0; to < n; ++to) {
    if (to == ctx.self()) continue;
    if (noise) {
      ctx.send(to, send_of(rng_.next_double(spec_.lo, spec_.hi)));
    } else {
      ctx.send(to, to < n / 2 ? low : high);
    }
  }
}

}  // namespace apxa::adversary
