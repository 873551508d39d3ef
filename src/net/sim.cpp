#include "net/sim.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "net/envelope.hpp"

namespace apxa::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Deferred-side-effect staging target for the CURRENT thread: null outside
// an upcall (defer_side_effect runs immediately), else the effect list the
// current event commits with.  Both the serial delivery loop and the
// parallel staging phase point this at the event's list, so harness hooks
// fire in the SAME position of the event order either way — that uniformity
// is what makes traced parallel runs bit-identical to serial ones.
thread_local std::vector<std::function<void()>>* tl_effects = nullptr;

// RAII so an upcall that throws cannot leave tl_effects dangling into the
// next run on this thread.
struct TlEffectsScope {
  explicit TlEffectsScope(std::vector<std::function<void()>>* v) { tl_effects = v; }
  ~TlEffectsScope() { tl_effects = nullptr; }
};
}  // namespace

std::uint32_t resolved_sim_workers(std::uint32_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("APXA_SIM_WORKERS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<std::uint32_t>(v);
    }
  }
  return 1;
}

void SimNetwork::defer_side_effect(std::function<void()> fn) {
  if (tl_effects != nullptr) {
    tl_effects->push_back(std::move(fn));
  } else {
    fn();
  }
}

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

/// Parallel-phase context: records the raw frames an upcall sends instead of
/// enqueuing them, and mirrors do_send's crash-budget state machine onto the
/// per-party SHADOW copies so the party's later in-step deliveries drop
/// exactly as they would serially.  The commit walk replays the recorded
/// frames through the real do_send, which redoes the accounting (metrics,
/// batching, scheduler, duplication RNG) in serial order.
class SimNetwork::StageContext final : public Context {
 public:
  StageContext(SimNetwork& net, ProcessId self, std::vector<StagedSend>* out)
      : net_(net), self_(self), out_(out) {}

  void send(ProcessId to, Bytes payload) override {
    APXA_ENSURE(to < net_.params_.n, "send: receiver out of range");
    APXA_ENSURE(to != self_, "send: use local state instead of self-messages");
    stage(to, std::move(payload));
  }

  void multicast(const Bytes& payload) override {
    const auto& order = net_.multicast_order_[self_];
    if (!order.empty()) {
      for (ProcessId to : order) stage(to, payload);
      return;
    }
    for (ProcessId to = 0; to < net_.params_.n; ++to) {
      if (to == self_) continue;
      stage(to, payload);
    }
  }

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] SystemParams params() const override { return net_.params_; }

 private:
  void stage(ProcessId to, Bytes payload) {
    // Shadow mirror of do_send's crash-budget state machine: only the
    // sender's SHADOW status/counter move (owner-confined — `self_` is the
    // party whose event group this worker owns).  The frame itself records
    // unconditionally: the commit walk replays the real do_send, which
    // re-decides drops and crashes against real state.
    PartyStatus& st = net_.step_status_[self_];
    if (st != PartyStatus::kCrashed) {
      if (net_.step_sends_[self_] >= net_.crash_send_limit_[self_]) {
        st = PartyStatus::kCrashed;
      } else {
        ++net_.step_sends_[self_];
        if (net_.step_sends_[self_] >= net_.crash_send_limit_[self_]) {
          st = PartyStatus::kCrashed;
        }
      }
    }
    out_->push_back(StagedSend{to, std::move(payload)});
  }

  SimNetwork& net_;
  ProcessId self_;
  std::vector<StagedSend>* out_;
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

void SimNetwork::set_parallel_workers(std::uint32_t workers) {
  APXA_ENSURE(workers >= 1,
              "set_parallel_workers: worker count must be >= 1 (0 is invalid; "
              "pass 1 for serial or resolve the APXA_SIM_WORKERS default via "
              "net::resolved_sim_workers)");
  APXA_ENSURE(workers <= kMaxWorkers,
              "set_parallel_workers: worker count exceeds kMaxWorkers (1024)");
  workers_ = workers;
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

bool SimNetwork::probe_done(ProcessId p, const PartyDone& done) const {
  return done ? done(p, *procs_[p]) : procs_[p]->has_output();
}

void SimNetwork::latch_done(ProcessId p, const PartyDone& done) {
  if (status_[p] != PartyStatus::kCorrect || done_flag_[p]) return;
  if (probe_done(p, done)) done_flag_[p] = 1;
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

  // Side effects the upcall defers run AFTER the receiver's batch flush —
  // the same slot the parallel commit walk executes them in — so traced
  // event order and harness trace-map write order are mode-independent.
  effects_.clear();
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
    {
      TlEffectsScope scope(&effects_);
      for_each_frame(m.payload, [&](BytesView frame) {
        ++metrics_.messages_delivered;
        proc.on_message(ctx, m.from, frame);
      });
    }
    flush_sender(m.to);
  } else {
    if (trace_) {
      trace_->record(obs::EventKind::kDeliver, m.from, m.to, -1, 1.0, now_);
    }
    TlEffectsScope scope(&effects_);
    ++metrics_.messages_delivered;
    proc.on_message(ctx, m.from, m.payload);
  }
  for (auto& fn : effects_) fn();
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
  if (workers_ > 1) return run_parallel(done, max_deliveries);
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

/// Barrier-style worker pool for run_parallel: run(njobs, task) executes
/// task(j) for j in [0, njobs) across the caller plus workers-1 threads and
/// returns when all jobs finished.  Job claiming is a shared atomic counter;
/// the generation handshake (mutex + cvs) publishes task/njobs to workers
/// and workers' writes back to the caller.
class SimNetwork::Crew {
 public:
  explicit Crew(std::uint32_t workers) {
    for (std::uint32_t i = 1; i < workers; ++i) {
      threads_.emplace_back([this](std::stop_token st) { loop(st); });
    }
  }

  ~Crew() {
    {
      std::scoped_lock lock(mu_);
      for (auto& th : threads_) th.request_stop();
    }
    cv_.notify_all();
    // jthread joins on destruction.
  }

  void run(std::size_t njobs, const std::function<void(std::size_t)>& task) {
    {
      std::scoped_lock lock(mu_);
      task_ = &task;
      njobs_ = njobs;
      next_.store(0, std::memory_order_relaxed);
      pending_ = threads_.size();
      ++gen_;
    }
    cv_.notify_all();
    work();  // the caller is worker 0
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    task_ = nullptr;
  }

 private:
  void loop(const std::stop_token& st) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return st.stop_requested() || gen_ != seen; });
        if (st.stop_requested()) return;
        seen = gen_;
      }
      work();
      bool last = false;
      {
        std::scoped_lock lock(mu_);
        last = (--pending_ == 0);
      }
      if (last) done_cv_.notify_one();
    }
  }

  void work() {
    for (;;) {
      const std::size_t j = next_.fetch_add(1, std::memory_order_relaxed);
      if (j >= njobs_) return;
      (*task_)(j);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t njobs_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t pending_ = 0;
  std::uint64_t gen_ = 0;
  std::vector<std::jthread> threads_;
};

RunStatus SimNetwork::run_parallel(const PartyDone& done,
                                   std::uint64_t max_deliveries) {
  APXA_ENSURE(started_, "call start() before run()");

  latch_all_done(done);
  if (all_done()) return RunStatus::kPredicateSatisfied;

  Crew crew(workers_);
  std::uint64_t delivered = 0;
  std::vector<Pending> step;
  std::vector<EventRecord> rec;
  std::vector<std::vector<std::size_t>> groups;  // event indices per party
  std::vector<ProcessId> group_owner;

  // Re-queue events [k, end) of the current step — a mid-step stop keeps the
  // same budget/status accounting the serial loop would report.
  auto requeue_from = [this, &step](std::size_t k) {
    for (std::size_t i = k; i < step.size(); ++i) {
      push_event(std::move(step[i]));
    }
  };

  // One event, exact serial semantics (the run_until_done body).  Returns
  // kQueueDrained to mean "keep going".
  auto deliver_serial = [&](std::size_t k) -> RunStatus {
    const Message& m = step[k].msg;
    if (!deliver(m)) return RunStatus::kQueueDrained;
    ++delivered;
    latch_done(m.to, done);
    return all_done() ? RunStatus::kPredicateSatisfied : RunStatus::kQueueDrained;
  };

  while (!queue_.empty()) {
    if (delivered >= max_deliveries) return RunStatus::kBudgetExhausted;

    // Collect the scheduler step: every pending event at the minimal time.
    // Sends produced by these upcalls land strictly later (delays are > 0),
    // so the step is closed under execution.
    const double step_time = queue_.front().time;
    step.clear();
    while (!queue_.empty() && queue_.front().time == step_time) {
      step.push_back(pop_event());
    }
    now_ = std::max(now_, step_time);
    apply_timed_crashes(now_);
    ++steps_;

    // Group by destination, preserving seq order inside each group.
    groups.clear();
    group_owner.clear();
    {
      std::vector<std::int32_t> slot(params_.n, -1);
      for (std::size_t k = 0; k < step.size(); ++k) {
        const ProcessId to = step[k].msg.to;
        if (slot[to] < 0) {
          slot[to] = static_cast<std::int32_t>(groups.size());
          groups.emplace_back();
          group_owner.push_back(to);
        }
        groups[static_cast<std::size_t>(slot[to])].push_back(k);
      }
    }

    // Fan out only when it can pay off AND the budget cannot cut inside the
    // step (drops consume no budget, so remaining >= step size is enough);
    // otherwise fall back to the exact serial loop for this step.
    const bool fan_out =
        groups.size() >= 2 && (max_deliveries - delivered) >= step.size();
    if (!fan_out) {
      for (std::size_t k = 0; k < step.size(); ++k) {
        if (delivered >= max_deliveries) {
          requeue_from(k);
          return RunStatus::kBudgetExhausted;
        }
        if (deliver_serial(k) == RunStatus::kPredicateSatisfied) {
          requeue_from(k + 1);
          return RunStatus::kPredicateSatisfied;
        }
      }
      continue;
    }

    // Parallel phase: run the upcalls, stage everything.  Workers touch only
    // their own party's process, shadow entries and event records; the crew
    // barrier publishes their writes back to this thread.  Stage events are
    // executor-domain (recorded from worker threads, timing-dependent); all
    // protocol events wait for the commit walk below.
    ++fanned_steps_;
    rec.assign(step.size(), EventRecord{});
    step_status_ = status_;
    step_sends_ = sends_made_;
    crew.run(groups.size(), [&](std::size_t g) {
      const ProcessId to = group_owner[g];
      for (const std::size_t k : groups[g]) {
        const Message& m = step[k].msg;
        EventRecord& r = rec[k];
        if (step_status_[to] == PartyStatus::kCrashed) continue;  // dropped
        r.delivered = true;
        if (trace_) {
          trace_->record(obs::EventKind::kStepStage, to,
                         static_cast<std::uint32_t>(g), -1,
                         static_cast<double>(step.size()), step_time);
        }
        StageContext ctx(*this, to, &r.sends);
        TlEffectsScope scope(&r.effects);
        if (max_batch_ > 0) {
          for_each_frame(m.payload, [&](BytesView frame) {
            ++r.frames;
            procs_[to]->on_message(ctx, m.from, frame);
          });
        } else {
          r.frames = 1;
          procs_[to]->on_message(ctx, m.from, m.payload);
        }
        r.output_after = procs_[to]->has_output();
        if (step_status_[to] == PartyStatus::kCorrect && !done_flag_[to]) {
          r.done_after = probe_done(to, done) ? 1 : 0;
        }
      }
    });
    if (trace_) {
      trace_->record(obs::EventKind::kStepCommit, 0,
                     static_cast<std::uint32_t>(groups.size()), -1,
                     static_cast<double>(step.size()), step_time);
    }

    // Serial commit walk: replay each committed event's sends through the
    // real do_send in event-seq order, so crash accounting, batching,
    // scheduler delay/on_deliver calls and duplication draws happen exactly
    // as the serial loop would have made them.
    for (std::size_t k = 0; k < step.size(); ++k) {
      EventRecord& r = rec[k];
      const Message& m = step[k].msg;
      if (!r.delivered) {  // destination crashed: dropped silently
        if (trace_) trace_->record(obs::EventKind::kDrop, m.from, m.to, -1, 0.0, now_);
        continue;
      }
      const ProcessId to = m.to;
      ++delivered;
      ++fanned_events_;
      scheduler_->on_deliver(m);
      metrics_.note_delivery(m.payload, now_ - m.send_time);
      metrics_.messages_delivered += r.frames;
      if (trace_) {
        trace_->record(obs::EventKind::kDeliver, m.from, to, -1,
                       static_cast<double>(r.frames), now_);
      }
      for (StagedSend& s : r.sends) {
        do_send(to, s.to, std::move(s.payload));
      }
      if (max_batch_ > 0) flush_sender(to);
      for (auto& fn : r.effects) fn();
      if (r.output_after && output_time_[to] == kInf) output_time_[to] = now_;
      if (r.done_after == 1 && status_[to] == PartyStatus::kCorrect) {
        done_flag_[to] = 1;
      }
      if (all_done()) {
        requeue_from(k + 1);
        return RunStatus::kPredicateSatisfied;
      }
    }
  }
  return RunStatus::kQueueDrained;
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
  // Gated on output_time_, not the live process: after a parallel run stops
  // mid-step, overshoot upcalls may have produced outputs the serial loop
  // never saw; those have no committed output time and stay invisible.
  // Serially the gate is a no-op — note_output records the time the moment
  // an output appears.
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
