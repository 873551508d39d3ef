#include "core/round_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"
#include "geom/geom.hpp"

namespace apxa::core {

RoundCollector::RoundCollector(SystemParams params, Round end, Round lookahead,
                               std::uint32_t dim)
    : params_(params), quorum_(params.quorum()), dim_(dim), end_(end),
      lookahead_(lookahead) {
  APXA_ENSURE(params_.n > params_.t, "collector needs n > t");
  APXA_ENSURE(dim_ >= 1, "point width must be positive");
  state_.resize(mask_ + 1);
  values_.resize(state_.size() * quorum_ * dim_);
  from_.resize(state_.size() * quorum_);
}

bool RoundCollector::accepts(Round r) const {
  return r >= base_ && r < end_ && r - base_ < lookahead_;
}

std::size_t RoundCollector::find(Round r) const {
  if (r < base_ || r - base_ > mask_) return npos;
  return r & mask_;
}

std::size_t RoundCollector::slot(Round r) {
  if (r - base_ > mask_) grow(r);
  return r & mask_;
}

void RoundCollector::grow(Round r) {
  std::size_t size = mask_ + 1;
  while (r - base_ >= size) size *= 2;
  std::vector<SlotState> state(size);
  std::vector<double> values(size * quorum_ * dim_);
  std::vector<ProcessId> from(size * quorum_);
  // Live rounds keep their contents; each moves to its index in the wider ring.
  for (Round q = base_; q - base_ <= mask_; ++q) {
    const std::size_t src = q & mask_;
    const std::size_t dst = q & (size - 1);
    state[dst] = state_[src];
    std::copy_n(values_.begin() + src * quorum_ * dim_,
                state_[src].count * dim_, values.begin() + dst * quorum_ * dim_);
    std::copy_n(from_.begin() + src * quorum_, state_[src].count,
                from.begin() + dst * quorum_);
  }
  state_ = std::move(state);
  values_ = std::move(values);
  from_ = std::move(from);
  mask_ = size - 1;
}

double* RoundCollector::append(std::size_t i, ProcessId from) {
  SlotState& s = state_[i];
  from_[i * quorum_ + s.count] = from;
  double* const dst = values_.data() + (i * quorum_ + s.count++) * dim_;
  s.frozen = s.own_added && s.count >= quorum_;
  return dst;
}

double* RoundCollector::admit_own(Round r) {
  APXA_ENSURE(accepts(r), "own round outside the collector's bound");
  const std::size_t i = slot(r);
  SlotState& s = state_[i];
  APXA_ENSURE(!s.own_added, "own value added twice for a round");
  // Remote values leave room for the own value (admit_remote's cap), which
  // always belongs to the view: the quorum rule counts the party itself.
  s.own_added = true;
  return append(i, kNoProcess);  // kNoProcess marks "self"
}

double* RoundCollector::admit_remote(ProcessId from, Round r, bool well_formed) {
  APXA_ENSURE(from < params_.n, "sender out of range");
  if (!well_formed) {
    ++malformed_;
    return nullptr;
  }
  if (!accepts(r)) return nullptr;
  const std::size_t i = slot(r);
  SlotState& s = state_[i];
  if (s.frozen) return nullptr;
  const auto senders = from_.begin() + static_cast<std::ptrdiff_t>(i * quorum_);
  if (std::find(senders, senders + s.count, from) != senders + s.count) {
    return nullptr;  // duplicate sender for this round (byzantine); keep the first
  }
  // Leave room for the party's own value if it has not been added yet.
  const std::size_t cap = s.own_added ? quorum_ : quorum_ - 1;
  return s.count >= cap ? nullptr : append(i, from);
}

// The double overloads store a scalar directly: std::copy's memmove call
// would show in the scalar domain's per-round cost.

void RoundCollector::add_own(Round r, double value) {
  APXA_ENSURE(dim_ == 1, "a scalar own value needs a width-1 collector");
  *admit_own(r) = value;
}

void RoundCollector::add_own(Round r, std::span<const double> point) {
  APXA_ENSURE(point.size() == dim_, "own point has the wrong width");
  std::copy(point.begin(), point.end(), admit_own(r));
}

void RoundCollector::add_remote(ProcessId from, Round r, double value) {
  double* const dst = admit_remote(from, r, dim_ == 1 && std::isfinite(value));
  if (dst) *dst = value;
}

void RoundCollector::add_remote(ProcessId from, Round r,
                                std::span<const double> point) {
  const bool well_formed = point.size() == dim_ && geom::all_finite(point);
  double* const dst = admit_remote(from, r, well_formed);
  if (dst) std::copy(point.begin(), point.end(), dst);
}

bool RoundCollector::ready(Round r) const {
  const std::size_t i = find(r);
  return i != npos && state_[i].frozen;
}

std::span<const double> RoundCollector::view(Round r) const {
  const std::size_t i = find(r);
  APXA_ENSURE(i != npos && state_[i].frozen, "view requested before ready");
  return {values_.data() + i * quorum_ * dim_, state_[i].count * dim_};
}

std::span<const ProcessId> RoundCollector::contributors(Round r) const {
  const std::size_t i = find(r);
  APXA_ENSURE(i != npos, "contributors requested for a round outside the ring");
  return {from_.data() + i * quorum_, state_[i].count};
}

void RoundCollector::forget_before(Round r) {
  if (r <= base_) return;
  if (r - base_ > mask_) {
    std::fill(state_.begin(), state_.end(), SlotState{});  // every live slot
  } else {
    for (Round q = base_; q < r; ++q) state_[q & mask_] = SlotState{};
  }
  base_ = r;
}

}  // namespace apxa::core
