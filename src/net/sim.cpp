#include "net/sim.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "net/envelope.hpp"

namespace apxa::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

/// Per-delivery context handed to processes; forwards sends to the network.
class SimNetwork::ContextImpl final : public Context {
 public:
  ContextImpl(SimNetwork& net, ProcessId self) : net_(net), self_(self) {}

  void send(ProcessId to, Bytes payload) override {
    APXA_ENSURE(to < net_.params_.n, "send: receiver out of range");
    APXA_ENSURE(to != self_, "send: use local state instead of self-messages");
    net_.do_send(self_, to, std::move(payload));
  }

  void multicast(const Bytes& payload) override { net_.do_multicast(self_, payload); }

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] SystemParams params() const override { return net_.params_; }

 private:
  SimNetwork& net_;
  ProcessId self_;
};

SimNetwork::SimNetwork(SystemParams params, std::unique_ptr<sched::Scheduler> scheduler)
    : params_(params), scheduler_(std::move(scheduler)) {
  APXA_ENSURE(params_.n >= 1, "need at least one party");
  APXA_ENSURE(params_.t < params_.n, "t must be < n");
  APXA_ENSURE(scheduler_ != nullptr, "scheduler required");
  status_.assign(params_.n, PartyStatus::kCorrect);
  sends_made_.assign(params_.n, 0);
  crash_send_limit_.assign(params_.n, kNoLimit);
  crash_time_.assign(params_.n, kInf);
  multicast_order_.resize(params_.n);
  output_time_.assign(params_.n, kInf);
  metrics_.reset(params_.n);
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
  status_[p] = PartyStatus::kByzantine;
}

void SimNetwork::crash_after_sends(ProcessId p, std::uint64_t count) {
  APXA_ENSURE(p < params_.n, "crash id out of range");
  crash_send_limit_[p] = count;
  if (sends_made_[p] >= count) status_[p] = PartyStatus::kCrashed;
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
  APXA_ENSURE(max_frames >= 1 && max_frames <= kMaxBatchFrames,
              "batch cap must be in [1, kMaxBatchFrames]");
  APXA_ENSURE(!started_, "enable_batching must precede start()");
  max_batch_ = max_frames;
  batch_buf_.assign(params_.n, std::vector<std::vector<Bytes>>(params_.n));
}

void SimNetwork::set_multicast_order(ProcessId p, std::vector<ProcessId> order) {
  APXA_ENSURE(p < params_.n, "multicast order id out of range");
  for (ProcessId q : order) {
    APXA_ENSURE(q < params_.n && q != p, "multicast order must list other parties");
  }
  multicast_order_[p] = std::move(order);
}

void SimNetwork::start() {
  APXA_ENSURE(procs_.size() == params_.n, "add_process must be called n times");
  APXA_ENSURE(!started_, "start() called twice");
  started_ = true;
  apply_timed_crashes(0.0);
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (status_[p] == PartyStatus::kCrashed) continue;
    ContextImpl ctx(*this, p);
    procs_[p]->on_start(ctx);
    flush_sender(p);
  }
  for (ProcessId p = 0; p < params_.n; ++p) note_output(p);
}

void SimNetwork::do_send(ProcessId from, ProcessId to, Bytes payload) {
  if (status_[from] == PartyStatus::kCrashed) {
    // Every send attempted by an already-crashed party counts as dropped
    // (same accounting on both backends — see rt::ThreadNetwork::post).
    ++metrics_.messages_dropped;
    if (trace_) trace_->record(obs::EventKind::kDrop, from, to, -1, 0.0, now_);
    return;
  }
  if (sends_made_[from] >= crash_send_limit_[from]) {
    // The crash fires exactly at this send: the message is lost.
    status_[from] = PartyStatus::kCrashed;
    ++metrics_.messages_dropped;
    if (trace_) {
      trace_->record(obs::EventKind::kCrash, from, from, -1,
                     static_cast<double>(sends_made_[from]), now_);
      trace_->record(obs::EventKind::kDrop, from, to, -1, 0.0, now_);
    }
    return;
  }
  ++sends_made_[from];

  // Batching buffers the LOGICAL frame per destination; the crash accounting
  // above already happened, so a crash firing on a later frame of the same
  // multicast still lets this one flush.  Frames that are themselves batch
  // packets (byzantine forgeries) never nest — they go out as their own
  // packet and the receiver's total decoders reject them.
  if (max_batch_ > 0 && !payload.empty() &&
      static_cast<std::uint8_t>(payload[0]) != kBatchTag) {
    auto& buf = batch_buf_[from][to];
    buf.push_back(std::move(payload));
    if (buf.size() >= max_batch_) {
      Bytes packet = encode_batch(std::span<const Bytes>(buf));
      buf.clear();
      enqueue_packet(from, to, std::move(packet));
    }
  } else {
    enqueue_packet(from, to, std::move(payload));
  }

  // A send-limit crash that lands exactly on the new count takes effect now,
  // so a multicast in progress stops at this receiver.
  if (sends_made_[from] >= crash_send_limit_[from]) {
    status_[from] = PartyStatus::kCrashed;
    if (trace_) {
      trace_->record(obs::EventKind::kCrash, from, from, -1,
                     static_cast<double>(sends_made_[from]), now_);
    }
  }
}

void SimNetwork::enqueue_packet(ProcessId from, ProcessId to, Bytes payload) {
  Message m;
  m.seq = next_seq_++;
  m.from = from;
  m.to = to;
  m.send_time = now_;
  m.payload = std::move(payload);

  metrics_.note_send(from, m.payload);
  if (trace_) {
    trace_->record(obs::EventKind::kSend, from, to, -1,
                   static_cast<double>(m.payload.size()), now_);
  }

  const double d = sched::clamp_delay(scheduler_->delay(m));
  if (duplication_rng_ && duplication_rng_->next_bool(duplication_prob_)) {
    Message dup = m;  // same seq: it is the same message, delivered twice
    const double dd = sched::clamp_delay(scheduler_->delay(dup));
    push_event(Pending{now_ + dd, next_seq_++, std::move(dup)});
  }
  push_event(Pending{now_ + d, m.seq, std::move(m)});
}

void SimNetwork::push_event(Pending p) {
  queue_.push_back(std::move(p));
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
}

SimNetwork::Pending SimNetwork::pop_event() {
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  Pending p = std::move(queue_.back());
  queue_.pop_back();
  return p;
}

void SimNetwork::flush_sender(ProcessId from) {
  if (max_batch_ == 0) return;
  // Destination-id order keeps flushes deterministic.  Pre-crash frames
  // flush even if `from` has since crashed: they were sent before the crash.
  for (ProcessId to = 0; to < params_.n; ++to) {
    auto& buf = batch_buf_[from][to];
    if (buf.empty()) continue;
    Bytes packet = buf.size() == 1
                       ? std::move(buf.front())
                       : encode_batch(std::span<const Bytes>(buf));
    buf.clear();
    enqueue_packet(from, to, std::move(packet));
  }
}

void SimNetwork::do_multicast(ProcessId from, const Bytes& payload) {
  if (!multicast_order_[from].empty()) {
    for (ProcessId to : multicast_order_[from]) do_send(from, to, payload);
    return;
  }
  for (ProcessId to = 0; to < params_.n; ++to) {
    if (to == from) continue;
    do_send(from, to, payload);
  }
}

void SimNetwork::apply_timed_crashes(double up_to) {
  if (up_to < next_crash_time_) return;
  next_crash_time_ = kInf;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (status_[p] != PartyStatus::kCorrect) continue;
    if (crash_time_[p] <= up_to) {
      status_[p] = PartyStatus::kCrashed;
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
  if (status_[p] != PartyStatus::kCorrect || done_flag_[p]) return;
  if (done ? done(p, *procs_[p]) : procs_[p]->has_output()) done_flag_[p] = 1;
}

bool SimNetwork::all_done() {
  // A party that stops blocking (latched done, or no longer correct) never
  // blocks again: flags only latch and no status returns to kCorrect.  So
  // the scan resumes at the last blocker — O(n) per run, not per event.
  while (done_scan_ < params_.n && (status_[done_scan_] != PartyStatus::kCorrect ||
                                    done_flag_[done_scan_])) {
    ++done_scan_;
  }
  return done_scan_ == params_.n;
}

bool SimNetwork::deliver(const Message& m) {
  if (status_[m.to] == PartyStatus::kCrashed) {  // dropped silently
    if (trace_) trace_->record(obs::EventKind::kDrop, m.from, m.to, -1, 0.0, now_);
    return false;
  }
  scheduler_->on_deliver(m);
  metrics_.note_delivery(m.payload, now_ - m.send_time);

  ContextImpl ctx(*this, m.to);
  Process& proc = *procs_[m.to];
  if (max_batch_ > 0) {
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
      ++metrics_.messages_delivered;
      proc.on_message(ctx, m.from, frame);
    });
    flush_sender(m.to);
  } else {
    if (trace_) {
      trace_->record(obs::EventKind::kDeliver, m.from, m.to, -1, 1.0, now_);
    }
    ++metrics_.messages_delivered;
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
    now_ = std::max(now_, next.time);
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
    if (status_[p] == PartyStatus::kCorrect && output_time_[p] == kInf) {
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
  APXA_ENSURE(p < status_.size(), "process id out of range");
  return status_[p];
}

std::vector<double> SimNetwork::correct_outputs() const {
  // Gated on output_time_ so these accessors agree with output_time() and
  // all_correct_output().  The gate drops nothing: note_output records the
  // time after every upcall, the only place an output can appear.
  std::vector<double> out;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (status_[p] != PartyStatus::kCorrect) continue;
    if (output_time_[p] == kInf) continue;
    if (const auto y = procs_[p]->output()) out.push_back(*y);
  }
  return out;
}

std::vector<std::vector<double>> SimNetwork::correct_vector_outputs() const {
  std::vector<std::vector<double>> out;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (status_[p] != PartyStatus::kCorrect) continue;
    if (output_time_[p] == kInf) continue;
    if (auto y = procs_[p]->vector_output()) out.push_back(std::move(*y));
  }
  return out;
}

double SimNetwork::output_time(ProcessId p) const {
  APXA_ENSURE(p < output_time_.size(), "process id out of range");
  return output_time_[p];
}

}  // namespace apxa::net
