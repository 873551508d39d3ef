#include "net/sim.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace apxa::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

SimNetwork::SimNetwork(SystemParams params, std::unique_ptr<sched::Scheduler> scheduler)
    : params_(params),
      scheduler_(std::move(scheduler)),
      outbox_(params, [this](ProcessId from, ProcessId to, Payload packet) {
        schedule(from, to, std::move(packet));
      }),
      inbox_(outbox_, &now_) {
  APXA_ENSURE(params_.n >= 1, "need at least one party");
  APXA_ENSURE(params_.t < params_.n, "t must be < n");
  APXA_ENSURE(scheduler_ != nullptr, "scheduler required");
  crash_time_.assign(params_.n, kInf);
}

void SimNetwork::add_process(std::unique_ptr<Process> p) {
  APXA_ENSURE(!started_, "cannot add processes after start()");
  inbox_.add_process(inbox_.seated(), std::move(p));
}

void SimNetwork::mark_byzantine(ProcessId p) {
  APXA_ENSURE(!started_, "mark_byzantine must precede start()");
  inbox_.mark_byzantine(p);
}

void SimNetwork::crash_after_sends(ProcessId p, std::uint64_t count) {
  outbox_.crash_after_sends(p, count);
}

void SimNetwork::crash_at_time(ProcessId p, double time) {
  APXA_ENSURE(p < params_.n, "crash id out of range");
  APXA_ENSURE(time >= 0.0, "crash time must be non-negative");
  crash_time_[p] = time;
  next_crash_time_ = std::min(next_crash_time_, time);
}

void SimNetwork::enable_duplication(double prob, std::uint64_t seed) {
  APXA_ENSURE(prob >= 0.0 && prob <= 1.0, "duplication probability in [0, 1]");
  duplication_prob_ = prob;
  duplication_rng_.emplace(seed);
}

void SimNetwork::enable_batching(std::uint32_t max_frames) {
  APXA_ENSURE(!started_, "enable_batching must precede start()");
  outbox_.enable_batching(max_frames);
}

void SimNetwork::set_multicast_order(ProcessId p, std::vector<ProcessId> order) {
  outbox_.set_multicast_order(p, std::move(order));
}

void SimNetwork::start() {
  APXA_ENSURE(inbox_.seated() == params_.n, "add_process must be called n times");
  APXA_ENSURE(!started_, "start() called twice");
  started_ = true;
  apply_timed_crashes(0.0);
  for (ProcessId p = 0; p < params_.n; ++p) inbox_.start(p);
}

void SimNetwork::schedule(ProcessId from, ProcessId to, Payload payload) {
  Message m{next_seq_++, from, to, now_, std::move(payload)};
  const double d = sched::clamp_delay(scheduler_->delay(m));
  if (duplication_rng_ && duplication_rng_->next_bool(duplication_prob_)) {
    Message dup = m;  // same seq: it is the same message, delivered twice
    const double dd = sched::clamp_delay(scheduler_->delay(dup));
    push_event(Pending{Pending::key_of(now_ + dd, next_seq_++), std::move(dup)});
  }
  push_event(Pending{Pending::key_of(now_ + d, m.seq), std::move(m)});
}

namespace {

constexpr std::size_t kArity = 4;

std::size_t parent_of(std::size_t i) { return (i - 1) / kArity; }

/// `if_true` when `c`, else `if_false`, without a branch.
std::size_t select(bool c, std::size_t if_true, std::size_t if_false) {
  return if_false ^ ((if_true ^ if_false) & (std::size_t{0} - c));
}

}  // namespace

void SimNetwork::push_event(Pending p) {
  // A fresh event usually lands near the bottom (its time is now + delay),
  // so the hole rarely climbs more than a level.
  std::size_t hole = queue_.size();
  queue_.emplace_back();
  while (hole > 0 && p.key < queue_[parent_of(hole)].key) {
    queue_[hole] = std::move(queue_[parent_of(hole)]);
    hole = parent_of(hole);
  }
  queue_[hole] = std::move(p);
}

SimNetwork::Pending SimNetwork::pop_event() {
  Pending top = std::move(queue_.front());
  Pending last = std::move(queue_.back());
  queue_.pop_back();
  const std::size_t size = queue_.size();
  if (size == 0) return top;
  // Bottom-up: walk the root's hole down to a leaf along least children
  // (no compare against `last`, whose place is almost always near the
  // bottom), then sift `last` up from there.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = kArity * hole + 1;
    std::size_t least = first;
    if (first + kArity <= size) {
      const std::size_t a = select(queue_[first + 1].key < queue_[first].key,
                                   first + 1, first);
      const std::size_t b = select(queue_[first + 3].key < queue_[first + 2].key,
                                   first + 3, first + 2);
      least = select(queue_[b].key < queue_[a].key, b, a);
    } else if (first < size) {
      for (std::size_t c = first + 1; c < size; ++c) {
        least = select(queue_[c].key < queue_[least].key, c, least);
      }
    } else {
      break;
    }
    queue_[hole] = std::move(queue_[least]);
    hole = least;
  }
  while (hole > 0 && last.key < queue_[parent_of(hole)].key) {
    queue_[hole] = std::move(queue_[parent_of(hole)]);
    hole = parent_of(hole);
  }
  queue_[hole] = std::move(last);
  return top;
}

void SimNetwork::apply_timed_crashes(double up_to) {
  if (up_to < next_crash_time_) return;
  next_crash_time_ = kInf;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (!inbox_.is_correct(p)) continue;
    if (crash_time_[p] <= up_to) {
      outbox_.crash(p);
      if (trace_) {
        trace_->record(obs::EventKind::kCrash, p, p, -1, crash_time_[p], now_);
      }
    } else {
      next_crash_time_ = std::min(next_crash_time_, crash_time_[p]);
    }
  }
}

bool SimNetwork::deliver(const Message& m) {
  if (!outbox_.crashed(m.to)) scheduler_->on_deliver(m);
  return inbox_.deliver(m.from, m.to, m.payload, now_ - m.send_time);
}

template <class Stop>
RunStatus SimNetwork::drive(Stop&& stop, std::uint64_t max_deliveries) {
  std::uint64_t delivered = 0;
  while (!queue_.empty()) {
    if (delivered >= max_deliveries) return RunStatus::kBudgetExhausted;
    const Pending next = pop_event();
    now_ = std::max(now_, next.time());
    apply_timed_crashes(now_);
    if (!deliver(next.msg)) continue;
    ++delivered;
    if (stop()) return RunStatus::kPredicateSatisfied;
  }
  return RunStatus::kQueueDrained;
}

RunStatus SimNetwork::run_until(const std::function<bool()>& pred,
                                std::uint64_t max_deliveries) {
  APXA_ENSURE(started_, "call start() before run()");
  if (pred && pred()) return RunStatus::kPredicateSatisfied;
  return drive([&pred] { return pred && pred(); }, max_deliveries);
}

RunStatus SimNetwork::run_until_done(const DoneProbe& done,
                                     std::uint64_t max_deliveries) {
  APXA_ENSURE(started_, "call start() before run()");
  // Same stopping point as run_until over the all-correct-done conjunction:
  // probes are monotone and a delivery changes only its receiver, so each
  // correct party is probed once here and afterwards only after its own
  // events (Inbox::deliver settles the receiver); the conjunction is a scan
  // of the latched flags.
  inbox_.set_done(done);
  for (ProcessId p = 0; p < params_.n; ++p) inbox_.settle(p);
  if (inbox_.all_done()) return RunStatus::kPredicateSatisfied;
  return drive([this] { return inbox_.all_done(); }, max_deliveries);
}

RunStatus SimNetwork::run(std::uint64_t max_deliveries) {
  return run_until(nullptr, max_deliveries);
}

}  // namespace apxa::net
