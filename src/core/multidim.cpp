#include "core/multidim.hpp"

#include <algorithm>

#include "common/ensure.hpp"
#include "core/codec.hpp"  // detail::total_decode
#include "geom/geom.hpp"

namespace apxa::core {

namespace {
constexpr std::uint8_t kVecRoundTag = 7;
}

Bytes encode_vec_round(Round r, const std::vector<double>& v) {
  ByteWriter w(1 + varint_size(r) + varint_size(v.size()) + 8 * v.size());
  w.put_u8(kVecRoundTag);
  w.put_varint(r);
  w.put_varint(v.size());
  for (double x : v) w.put_f64(x);
  return std::move(w).take();
}

std::optional<std::pair<Round, std::vector<double>>> decode_vec_round(
    BytesView payload) {
  if (payload.empty() || static_cast<std::uint8_t>(payload[0]) != kVecRoundTag) {
    return std::nullopt;
  }
  // Total like the core/codec.cpp decoders: a truncated frame from a
  // byzantine peer must decode to nullopt, not throw out of an honest
  // party's message loop.
  return detail::total_decode(
      [&]() -> std::optional<std::pair<Round, std::vector<double>>> {
        ByteReader r(payload);
        r.get_u8();
        const auto round = static_cast<Round>(r.get_varint());
        const auto dim = r.get_varint();
        if (dim > 1u << 16) return std::nullopt;
        std::vector<double> v(dim);
        for (auto& x : v) {
          if (r.remaining() < 8) return std::nullopt;
          x = r.get_f64();
        }
        if (!r.done()) return std::nullopt;
        return std::make_pair(round, std::move(v));
      });
}

VectorAaProcess::VectorAaProcess(VectorAaConfig cfg) : cfg_(std::move(cfg)) {
  APXA_ENSURE(cfg_.params.n > 2 * cfg_.params.t && cfg_.params.t >= 1,
              "vector AA requires n > 2t, t >= 1");
  APXA_ENSURE(cfg_.dim >= 1, "dimension must be positive");
  APXA_ENSURE(cfg_.input.size() == cfg_.dim, "input must have `dim` coordinates");
  value_ = cfg_.input;
}

VectorAaProcess::Slot& VectorAaProcess::slot(Round r) { return slots_[r]; }

void VectorAaProcess::maybe_freeze(Slot& s) const {
  if (!s.frozen && s.own_added && s.values.size() >= cfg_.params.quorum()) {
    s.frozen = true;
  }
}

void VectorAaProcess::add_own(Round r, const std::vector<double>& v) {
  Slot& s = slot(r);
  APXA_ASSERT(!s.own_added, "own vector added twice");
  s.own_added = true;
  s.values.push_back(v);
  s.contributors.push_back(kNoProcess);
  maybe_freeze(s);
}

void VectorAaProcess::add_remote(ProcessId from, Round r, std::vector<double> v) {
  Slot& s = slot(r);
  if (s.frozen || v.size() != cfg_.dim || !geom::all_finite(v)) return;
  if (std::find(s.contributors.begin(), s.contributors.end(), from) !=
      s.contributors.end()) {
    return;
  }
  const std::size_t cap =
      s.own_added ? cfg_.params.quorum() : cfg_.params.quorum() - 1;
  if (s.values.size() >= cap) return;
  s.values.push_back(std::move(v));
  s.contributors.push_back(from);
  maybe_freeze(s);
}

void VectorAaProcess::on_start(net::Context& ctx) {
  self_ = ctx.self();
  if (cfg_.fixed_rounds == 0) {
    if (cfg_.trace) cfg_.trace(self_, 0, value_);
    done_ = true;
    return;
  }
  begin_round(ctx);
  try_advance(ctx);
}

void VectorAaProcess::begin_round(net::Context& ctx) {
  if (cfg_.trace) cfg_.trace(self_, round_, value_);
  add_own(round_, value_);
  ctx.multicast(encode_vec_round(round_, value_));
}

void VectorAaProcess::on_message(net::Context& ctx, ProcessId from,
                                 BytesView payload) {
  if (done_) return;
  auto m = decode_vec_round(payload);
  if (!m) return;
  add_remote(from, m->first, std::move(m->second));
  try_advance(ctx);
}

void VectorAaProcess::try_advance(net::Context& ctx) {
  while (!done_ && slots_[round_].frozen) {
    const Slot& s = slots_[round_];
    // Coordinate-wise averaging: column c of the view is a 1-D multiset; the
    // reduce/select based rules launder byzantine values per coordinate.
    value_ = geom::average_per_coordinate(cfg_.averager, s.values, cfg_.dim,
                                          cfg_.params.t);
    ++round_;
    slots_.erase(slots_.begin(), slots_.lower_bound(round_));
    if (round_ >= cfg_.fixed_rounds) {
      if (cfg_.trace) cfg_.trace(self_, round_, value_);
      done_ = true;
      return;
    }
    begin_round(ctx);
  }
}

}  // namespace apxa::core
