#include "core/round_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"

namespace apxa::core {

RoundCollector::RoundCollector(SystemParams params, Round end, Round lookahead)
    : params_(params), quorum_(params.quorum()), end_(end), lookahead_(lookahead) {
  APXA_ENSURE(params_.n > params_.t, "collector needs n > t");
  state_.resize(mask_ + 1);
  values_.resize(state_.size() * quorum_);
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
  std::vector<double> values(size * quorum_);
  std::vector<ProcessId> from(size * quorum_);
  // Live rounds keep their contents; each moves to its index in the wider ring.
  for (Round q = base_; q - base_ <= mask_; ++q) {
    const std::size_t src = q & mask_;
    const std::size_t dst = q & (size - 1);
    state[dst] = state_[src];
    std::copy_n(values_.begin() + src * quorum_, state_[src].count,
                values.begin() + dst * quorum_);
    std::copy_n(from_.begin() + src * quorum_, state_[src].count,
                from.begin() + dst * quorum_);
  }
  state_ = std::move(state);
  values_ = std::move(values);
  from_ = std::move(from);
  mask_ = size - 1;
}

void RoundCollector::add_own(Round r, double value) {
  APXA_ENSURE(accepts(r), "own round outside the collector's bound");
  const std::size_t i = slot(r);
  SlotState& s = state_[i];
  APXA_ENSURE(!s.own_added, "own value added twice for a round");
  // Remote values leave room for the own value (add_remote's cap), which
  // always belongs to the view: the quorum rule counts the party itself.
  s.own_added = true;
  values_[i * quorum_ + s.count] = value;
  from_[i * quorum_ + s.count] = kNoProcess;  // marker for "self"
  ++s.count;
  s.frozen = s.count >= quorum_;
}

void RoundCollector::add_remote(ProcessId from, Round r, double value) {
  APXA_ENSURE(from < params_.n, "sender out of range");
  if (!std::isfinite(value)) {
    ++malformed_;
    return;
  }
  if (!accepts(r)) return;
  const std::size_t i = slot(r);
  SlotState& s = state_[i];
  if (s.frozen) return;
  const auto senders = from_.begin() + static_cast<std::ptrdiff_t>(i * quorum_);
  if (std::find(senders, senders + s.count, from) != senders + s.count) {
    return;  // duplicate sender for this round (byzantine); keep the first
  }
  // Leave room for the party's own value if it has not been added yet.
  const std::size_t cap = s.own_added ? quorum_ : quorum_ - 1;
  if (s.count >= cap) return;
  values_[i * quorum_ + s.count] = value;
  from_[i * quorum_ + s.count] = from;
  ++s.count;
  s.frozen = s.own_added && s.count >= quorum_;
}

bool RoundCollector::ready(Round r) const {
  const std::size_t i = find(r);
  return i != npos && state_[i].frozen;
}

std::span<const double> RoundCollector::view(Round r) const {
  const std::size_t i = find(r);
  APXA_ENSURE(i != npos && state_[i].frozen, "view requested before ready");
  return {values_.data() + i * quorum_, state_[i].count};
}

std::span<const ProcessId> RoundCollector::contributors(Round r) const {
  const std::size_t i = find(r);
  APXA_ENSURE(i != npos, "contributors requested for a round outside the ring");
  return {from_.data() + i * quorum_, state_[i].count};
}

void RoundCollector::forget_before(Round r) {
  for (; base_ < r; ++base_) {
    if (r - base_ <= mask_) {
      state_[base_ & mask_] = SlotState{};
    } else {
      // Every live slot is cleared; jump straight to r.
      std::fill(state_.begin(), state_.end(), SlotState{});
      base_ = r;
      break;
    }
  }
}

}  // namespace apxa::core
