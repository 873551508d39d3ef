#include "net/sim.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "net/envelope.hpp"

namespace apxa::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

SimNetwork::SimNetwork(SystemParams params, std::unique_ptr<sched::Scheduler> scheduler)
    : params_(params),
      scheduler_(std::move(scheduler)),
      outbox_(params, [this](ProcessId from, ProcessId to, Payload packet) {
        schedule(from, to, std::move(packet));
      }) {
  APXA_ENSURE(params_.n >= 1, "need at least one party");
  APXA_ENSURE(params_.t < params_.n, "t must be < n");
  APXA_ENSURE(scheduler_ != nullptr, "scheduler required");
  byzantine_.assign(params_.n, 0);
  crash_time_.assign(params_.n, kInf);
  output_time_.assign(params_.n, kInf);
}

void SimNetwork::add_process(std::unique_ptr<Process> p) {
  APXA_ENSURE(!started_, "cannot add processes after start()");
  APXA_ENSURE(p != nullptr, "null process");
  APXA_ENSURE(procs_.size() < params_.n, "all n processes already added");
  procs_.push_back(std::move(p));
}

void SimNetwork::mark_byzantine(ProcessId p) {
  APXA_ENSURE(p < params_.n, "byzantine id out of range");
  APXA_ENSURE(!started_, "mark_byzantine must precede start()");
  byzantine_[p] = 1;
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
  APXA_ENSURE(procs_.size() == params_.n, "add_process must be called n times");
  APXA_ENSURE(!started_, "start() called twice");
  started_ = true;
  apply_timed_crashes(0.0);
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (outbox_.crashed(p)) continue;
    OutboxContext ctx(outbox_, p);
    procs_[p]->on_start(ctx);
    outbox_.flush(p);
  }
  for (ProcessId p = 0; p < params_.n; ++p) note_output(p);
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
    if (!correct(p)) continue;
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

void SimNetwork::note_output(ProcessId p) {
  if (output_time_[p] == kInf && procs_[p]->has_output()) output_time_[p] = now_;
}

void SimNetwork::latch_all_done(const PartyDone& done) {
  done_flag_.assign(params_.n, 0);
  done_scan_ = 0;
  for (ProcessId p = 0; p < params_.n; ++p) latch_done(p, done);
}

void SimNetwork::latch_done(ProcessId p, const PartyDone& done) {
  if (!correct(p) || done_flag_[p]) return;
  if (done ? done(p, *procs_[p]) : procs_[p]->has_output()) done_flag_[p] = 1;
}

bool SimNetwork::all_done() {
  // A party that stops blocking (latched done, or no longer correct) never
  // blocks again: flags only latch and no status returns to kCorrect.  So
  // the scan resumes at the last blocker — O(n) per run, not per event.
  while (done_scan_ < params_.n && (!correct(done_scan_) || done_flag_[done_scan_])) {
    ++done_scan_;
  }
  return done_scan_ == params_.n;
}

bool SimNetwork::deliver(const Message& m) {
  if (outbox_.crashed(m.to)) {  // dropped silently
    if (trace_) trace_->record(obs::EventKind::kDrop, m.from, m.to, -1, 0.0, now_);
    return false;
  }
  scheduler_->on_deliver(m);
  Metrics& metrics = outbox_.metrics_of(m.to);
  metrics.note_delivery(m.payload, now_ - m.send_time);

  OutboxContext ctx(outbox_, m.to);
  Process& proc = *procs_[m.to];
  if (outbox_.batching()) {
    // Deliver EVERY frame of the packet before flushing the receiver's send
    // buffers: an 8-frame batch advances up to 8 instances whose responses
    // then pack into full batches again, so batching efficiency
    // self-sustains down the cascade.  Frames are views into the packet.
    if (trace_) {
      std::size_t frames = 0;
      for_each_frame(m.payload, [&frames](BytesView) { ++frames; });
      trace_->record(obs::EventKind::kDeliver, m.from, m.to, -1,
                     static_cast<double>(frames), now_);
    }
    for_each_frame(m.payload, [&](BytesView frame) {
      ++metrics.messages_delivered;
      proc.on_message(ctx, m.from, frame);
    });
    outbox_.flush(m.to);
  } else {
    if (trace_) {
      trace_->record(obs::EventKind::kDeliver, m.from, m.to, -1, 1.0, now_);
    }
    ++metrics.messages_delivered;
    proc.on_message(ctx, m.from, m.payload);
  }
  // Only the receiver ran, so only its output can have appeared (the
  // own-upcall contract in net/process.hpp).
  note_output(m.to);
  return true;
}

template <class StopAfter>
RunStatus SimNetwork::drive(StopAfter&& stop_after, std::uint64_t max_deliveries) {
  std::uint64_t delivered = 0;
  while (!queue_.empty()) {
    if (delivered >= max_deliveries) return RunStatus::kBudgetExhausted;
    const Pending next = pop_event();
    now_ = std::max(now_, next.time());
    apply_timed_crashes(now_);
    if (!deliver(next.msg)) continue;
    ++delivered;
    if (stop_after(next.msg.to)) return RunStatus::kPredicateSatisfied;
  }
  return RunStatus::kQueueDrained;
}

RunStatus SimNetwork::run_until(const std::function<bool()>& pred,
                                std::uint64_t max_deliveries) {
  APXA_ENSURE(started_, "call start() before run()");
  if (pred && pred()) return RunStatus::kPredicateSatisfied;
  return drive([&pred](ProcessId) { return pred && pred(); }, max_deliveries);
}

RunStatus SimNetwork::run_until_done(const PartyDone& done,
                                     std::uint64_t max_deliveries) {
  APXA_ENSURE(started_, "call start() before run()");
  // Same stopping point as run_until over the all-correct-done conjunction:
  // probes are monotone and a delivery changes only its receiver, so each
  // correct party is probed once here and afterwards only after its own
  // events; the conjunction is a scan of the latched flags.
  latch_all_done(done);
  if (all_done()) return RunStatus::kPredicateSatisfied;
  return drive(
      [this, &done](ProcessId to) {
        latch_done(to, done);
        return all_done();
      },
      max_deliveries);
}

RunStatus SimNetwork::run(std::uint64_t max_deliveries) {
  return run_until(nullptr, max_deliveries);
}

bool SimNetwork::all_correct_output() const {
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (correct(p) && output_time_[p] == kInf) {
      return false;
    }
  }
  return true;
}

Process& SimNetwork::process(ProcessId p) {
  APXA_ENSURE(p < procs_.size(), "process id out of range");
  return *procs_[p];
}

const Process& SimNetwork::process(ProcessId p) const {
  APXA_ENSURE(p < procs_.size(), "process id out of range");
  return *procs_[p];
}

PartyStatus SimNetwork::status(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  if (outbox_.crashed(p)) return PartyStatus::kCrashed;
  return byzantine_[p] ? PartyStatus::kByzantine : PartyStatus::kCorrect;
}

std::vector<double> SimNetwork::correct_outputs() const {
  // Gated on output_time_ so these accessors agree with output_time() and
  // all_correct_output().  The gate drops nothing: note_output records the
  // time after every upcall, the only place an output can appear.
  std::vector<double> out;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (!correct(p) || output_time_[p] == kInf) continue;
    if (const auto y = procs_[p]->output()) out.push_back(*y);
  }
  return out;
}

std::vector<std::vector<double>> SimNetwork::correct_vector_outputs() const {
  std::vector<std::vector<double>> out;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (!correct(p) || output_time_[p] == kInf) continue;
    if (auto y = procs_[p]->vector_output()) out.push_back(std::move(*y));
  }
  return out;
}

double SimNetwork::output_time(ProcessId p) const {
  APXA_ENSURE(p < output_time_.size(), "process id out of range");
  return output_time_[p];
}

}  // namespace apxa::net
