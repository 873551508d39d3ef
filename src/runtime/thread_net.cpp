#include "runtime/thread_net.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>
#include <utility>

#include "common/ensure.hpp"
#include "net/envelope.hpp"

namespace apxa::rt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

class ThreadNetwork::ContextImpl final : public net::Context {
 public:
  ContextImpl(ThreadNetwork& net, ProcessId self) : net_(net), self_(self) {}

  void send(ProcessId to, Bytes payload) override {
    APXA_ENSURE(to < net_.params_.n, "send: receiver out of range");
    APXA_ENSURE(to != self_, "send: no self-messages");
    net_.post(self_, to, std::move(payload));
  }

  void multicast(const Bytes& payload) override {
    const auto& order = net_.multicast_order_[self_];
    if (!order.empty()) {
      for (ProcessId to : order) net_.post(self_, to, payload);
      return;
    }
    for (ProcessId to = 0; to < net_.params_.n; ++to) {
      if (to == self_) continue;
      net_.post(self_, to, payload);
    }
  }

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] SystemParams params() const override { return net_.params_; }

 private:
  ThreadNetwork& net_;
  ProcessId self_;
};

ThreadNetwork::ThreadNetwork(SystemParams params)
    : params_(params),
      crashed_(params.n),
      byzantine_(params.n, false),
      sends_made_(params.n),
      send_limit_(params.n, kNoLimit),
      multicast_order_(params.n),
      has_output_(params.n),
      has_scalar_(params.n),
      output_value_(params.n),
      output_vec_(params.n),
      output_time_(params.n),
      done_(params.n) {
  APXA_ENSURE(params_.n >= 1 && params_.t < params_.n, "bad system params");
  shard_count_ = std::min<std::uint32_t>(
      params_.n, std::max(1u, std::thread::hardware_concurrency()));
  shards_.clear();
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (std::uint32_t i = 0; i < params_.n; ++i) {
    mail_.push_back(std::make_unique<Mailbox>());
    crashed_[i] = false;
    sends_made_[i] = 0;
    has_output_[i] = false;
    has_scalar_[i] = false;
    output_value_[i] = 0.0;
    output_time_[i] = kInf;
    done_[i] = false;
  }
  metrics_.reset(params_.n);
}

ThreadNetwork::~ThreadNetwork() {
  for (auto& th : threads_) th.request_stop();
  for (auto& sh : shards_) sh->cv.notify_all();
  // jthread joins on destruction.
}

void ThreadNetwork::add_process(std::unique_ptr<net::Process> p) {
  APXA_ENSURE(!started_.load(), "cannot add processes after run()");
  APXA_ENSURE(p != nullptr, "null process");
  APXA_ENSURE(procs_.size() < params_.n, "all n processes already added");
  procs_.push_back(std::move(p));
}

void ThreadNetwork::crash(ProcessId p) {
  APXA_ENSURE(p < params_.n, "crash id out of range");
  crashed_[p] = true;
}

void ThreadNetwork::crash_after_sends(ProcessId p, std::uint64_t count) {
  APXA_ENSURE(p < params_.n, "crash id out of range");
  APXA_ENSURE(!started_.load(), "crash_after_sends must precede run()");
  send_limit_[p] = count;
  if (count == 0) crashed_[p] = true;
}

void ThreadNetwork::set_multicast_order(ProcessId p, std::vector<ProcessId> order) {
  APXA_ENSURE(p < params_.n, "multicast order id out of range");
  APXA_ENSURE(!started_.load(), "set_multicast_order must precede run()");
  for (ProcessId q : order) {
    APXA_ENSURE(q < params_.n && q != p, "multicast order must list other parties");
  }
  multicast_order_[p] = std::move(order);
}

void ThreadNetwork::mark_byzantine(ProcessId p) {
  APXA_ENSURE(p < params_.n, "byzantine id out of range");
  APXA_ENSURE(!started_.load(), "mark_byzantine must precede run()");
  byzantine_[p] = true;
}

void ThreadNetwork::set_done_predicate(DonePredicate pred) {
  APXA_ENSURE(!started_.load(), "set_done_predicate must precede run()");
  done_pred_ = std::move(pred);
}

void ThreadNetwork::set_shards(std::uint32_t shards) {
  APXA_ENSURE(shards >= 1,
              "set_shards: worker count must be >= 1 (0 is invalid; omit the "
              "call to keep the min(n, hardware_concurrency) default)");
  APXA_ENSURE(shards <= kMaxShards,
              "set_shards: worker count exceeds kMaxShards (4096)");
  APXA_ENSURE(!started_.load(), "set_shards must precede run()");
  // Workers beyond n are legal: extras simply idle and steal.  No silent
  // clamping — shards() reports exactly what was requested.
  shard_count_ = shards;
  shards_.clear();
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ThreadNetwork::enable_batching(std::uint32_t max_frames) {
  APXA_ENSURE(max_frames >= 1 && max_frames <= net::kMaxBatchFrames,
              "batch cap must be in [1, kMaxBatchFrames]");
  APXA_ENSURE(!started_.load(), "enable_batching must precede run()");
  max_batch_ = max_frames;
  batch_buf_.assign(params_.n, std::vector<std::vector<Bytes>>(params_.n));
}

std::uint32_t ThreadNetwork::shards() const { return shard_count_; }

void ThreadNetwork::set_trace(obs::TraceSink* sink) {
  APXA_ENSURE(!started_.load(), "set_trace must precede run()");
  trace_ = sink;
}

void ThreadNetwork::post(ProcessId from, ProcessId to, Bytes payload) {
  // A party's sends all come from the thread currently holding its ownership
  // token, so the crash check, send counter and limit comparison need no
  // cross-send synchronization.  The counter tracks LOGICAL sends — frames,
  // not the packets batching later flushes — so crash_after_sends semantics
  // are identical batched and unbatched.
  if (crashed_[from].load(std::memory_order_relaxed)) {
    // Every send attempted by an already-crashed party counts as dropped
    // (same accounting on both backends — see net::SimNetwork::do_send).
    if (trace_) trace_->record(obs::EventKind::kDrop, from, to, -1, 0.0, 0.0);
    std::scoped_lock lock(metrics_mu_);
    ++metrics_.messages_dropped;
    return;
  }
  const std::uint64_t made = sends_made_[from].fetch_add(1, std::memory_order_relaxed);
  if (made >= send_limit_[from]) {
    // The crash fires exactly at this send: the message is lost, and a
    // multicast in progress stops here (simulator-parity semantics).  Frames
    // already buffered for batching were sent BEFORE the crash and still
    // flush — see flush_sender.
    crashed_[from].store(true, std::memory_order_relaxed);
    if (trace_) {
      trace_->record(obs::EventKind::kCrash, from, from, -1,
                     static_cast<double>(made), 0.0);
      trace_->record(obs::EventKind::kDrop, from, to, -1, 0.0, 0.0);
    }
    std::scoped_lock lock(metrics_mu_);
    ++metrics_.messages_dropped;
    return;
  }

  if (max_batch_ > 0 && !payload.empty() &&
      static_cast<std::uint8_t>(payload[0]) != net::kBatchTag) {
    auto& buf = batch_buf_[from][to];
    buf.push_back(std::move(payload));
    if (buf.size() >= max_batch_) {
      Bytes packet = net::encode_batch(std::span<const Bytes>(buf));
      buf.clear();
      post_packet(from, to, std::move(packet));
    }
  } else {
    post_packet(from, to, std::move(payload));
  }

  // A send-limit crash that lands exactly on the new count takes effect now
  // (simulator parity: SimNetwork::do_send's post-enqueue check), so a party
  // whose budget covers all the sends it ever makes still stops receiving.
  if (made + 1 >= send_limit_[from]) {
    crashed_[from].store(true, std::memory_order_relaxed);
    if (trace_) {
      trace_->record(obs::EventKind::kCrash, from, from, -1,
                     static_cast<double>(made + 1), 0.0);
    }
  }
}

void ThreadNetwork::post_packet(ProcessId from, ProcessId to, Bytes payload) {
  if (trace_) {
    trace_->record(obs::EventKind::kSend, from, to, -1,
                   static_cast<double>(payload.size()), 0.0);
  }
  {
    std::scoped_lock lock(metrics_mu_);
    metrics_.note_send(from, payload);
  }
  Mailbox& mb = *mail_[to];
  {
    std::scoped_lock lock(mb.mu);
    mb.queue.push_back(Item{from, to, std::move(payload)});
  }
  // Claim-at-enqueue: if nobody owns the receiver, this thread wins the
  // token on its behalf and schedules it on its home shard.  If the exchange
  // loses, the current owner's release-then-recheck will see the new item.
  if (!mb.claimed.exchange(true, std::memory_order_acq_rel)) {
    enqueue_runnable(home_shard(to), to);
  }
}

void ThreadNetwork::enqueue_runnable(std::uint32_t shard, ProcessId p) {
  Shard& sh = *shards_[shard];
  {
    std::scoped_lock lock(sh.mu);
    sh.runnable.push_back(p);
  }
  sh.cv.notify_one();
}

void ThreadNetwork::flush_sender(ProcessId from) {
  if (max_batch_ == 0) return;
  // Destination-id order; pre-crash frames flush even if `from` has since
  // crashed — they were logically sent before the crash point.
  for (ProcessId to = 0; to < params_.n; ++to) {
    auto& buf = batch_buf_[from][to];
    if (buf.empty()) continue;
    Bytes packet = buf.size() == 1
                       ? std::move(buf.front())
                       : net::encode_batch(std::span<const Bytes>(buf));
    buf.clear();
    post_packet(from, to, std::move(packet));
  }
}

void ThreadNetwork::publish(ProcessId p) {
  if (!has_output_[p].load(std::memory_order_acquire)) {
    if (procs_[p]->has_output()) {
      const std::chrono::duration<double> since =
          std::chrono::steady_clock::now() - start_time_;
      if (auto vy = procs_[p]->vector_output()) {
        output_vec_[p] = std::move(*vy);
      }
      if (const auto y = procs_[p]->output()) {
        output_value_[p].store(*y, std::memory_order_relaxed);
        has_scalar_[p].store(true, std::memory_order_relaxed);
      }
      output_time_[p].store(since.count(), std::memory_order_release);
      has_output_[p].store(true, std::memory_order_release);
    }
  }
  // The completion probe contract only covers correct parties (it may
  // downcast to the honest-protocol type), so skip byzantine/crashed ones.
  if (!byzantine_[p] && !crashed_[p].load(std::memory_order_relaxed) &&
      !done_[p].load(std::memory_order_acquire)) {
    const bool d = done_pred_ ? done_pred_(*procs_[p])
                              : has_output_[p].load(std::memory_order_acquire);
    if (d) done_[p].store(true, std::memory_order_release);
  }
}

void ThreadNetwork::deliver_one(ProcessId p, ProcessId from,
                                BytesView payload) {
  if (trace_) trace_->record(obs::EventKind::kDeliver, from, p, -1, 1.0, 0.0);
  {
    std::scoped_lock lock(metrics_mu_);
    ++metrics_.messages_delivered;
  }
  ContextImpl ctx(*this, p);
  procs_[p]->on_message(ctx, from, payload);
}

bool ThreadNetwork::next_party(std::uint32_t shard, ProcessId& out,
                               const std::stop_token& st) {
  Shard& own = *shards_[shard];
  WorkerCounters& wc = worker_stats_[shard];
  while (!st.stop_requested()) {
    {
      std::scoped_lock lock(own.mu);
      if (!own.runnable.empty()) {
        out = own.runnable.front();
        own.runnable.pop_front();
        ++wc.claims;
        if (trace_) trace_->record(obs::EventKind::kClaim, shard, out, -1, 0.0, 0.0);
        return true;
      }
    }
    // Steal sweep: visit victims round-robin starting after ourselves and
    // take from the BACK — the cold end, away from the owner's front pops.
    for (std::uint32_t off = 1; off < shard_count_; ++off) {
      const std::uint32_t v = (shard + off) % shard_count_;
      Shard& victim = *shards_[v];
      std::scoped_lock lock(victim.mu);
      if (!victim.runnable.empty()) {
        out = victim.runnable.back();
        victim.runnable.pop_back();
        ++wc.steals;
        if (trace_) {
          trace_->record(obs::EventKind::kSteal, shard, out,
                         static_cast<std::int64_t>(v), 0.0, 0.0);
        }
        return true;
      }
    }
    ++wc.idle_spins;
    if (trace_) trace_->record(obs::EventKind::kIdle, shard, 0, -1, 0.0, 0.0);
    std::unique_lock lock(own.mu);
    own.cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return st.stop_requested() || !own.runnable.empty();
    });
  }
  return false;
}

void ThreadNetwork::run_party(std::uint32_t shard, ProcessId p,
                              const std::stop_token& st) {
  // Precondition: this thread holds p's ownership token (it dequeued p from
  // a runnable deque, and every enqueue is paired with a won claim).
  ++worker_stats_[shard].parties_run;
  Mailbox& mb = *mail_[p];
  if (!mb.started) {
    mb.started = true;
    if (!crashed_[p].load(std::memory_order_relaxed)) {
      ContextImpl ctx(*this, p);
      procs_[p]->on_start(ctx);
      flush_sender(p);
      publish(p);
    }
  }

  // Drain ONE batch per claim: new arrivals re-enqueue below, which keeps a
  // hot party from monopolizing its worker while others sit runnable.
  std::deque<Item> batch;
  {
    std::scoped_lock lock(mb.mu);
    batch.swap(mb.queue);
  }
  for (Item& item : batch) {
    if (st.stop_requested()) break;
    if (crashed_[p].load(std::memory_order_relaxed)) continue;
    if (max_batch_ > 0) {
      // Deliver EVERY frame of the packet, then flush the receiver's send
      // buffers once: a full batch advances several instances whose
      // responses pack into full batches again (self-sustaining msgs/packet).
      net::for_each_frame(item.payload, [&](BytesView frame) {
        deliver_one(p, item.from, frame);
      });
      flush_sender(p);
    } else {
      deliver_one(p, item.from, item.payload);
    }
    publish(p);
  }

  // Release-then-recheck: drop the token, then look again.  A message that
  // raced in after the batch swap either (a) found claimed == true and left
  // scheduling to us — the recheck claims and re-enqueues — or (b) won the
  // claim itself and enqueued p.  Either way exactly one thread schedules p.
  mb.claimed.store(false, std::memory_order_release);
  bool reclaimed = false;
  {
    std::scoped_lock lock(mb.mu);
    if (!mb.queue.empty()) {
      reclaimed = !mb.claimed.exchange(true, std::memory_order_acq_rel);
    }
  }
  // The party migrates: it re-enqueues on the shard that just ran it, not
  // its home shard, so load follows the workers that have capacity.
  if (reclaimed) enqueue_runnable(shard, p);
}

void ThreadNetwork::worker_loop(std::uint32_t shard, std::stop_token st) {
  ProcessId p = 0;
  while (next_party(shard, p, st)) {
    run_party(shard, p, st);
  }
}

bool ThreadNetwork::run(std::chrono::milliseconds timeout) {
  APXA_ENSURE(procs_.size() == params_.n, "add_process must be called n times");
  APXA_ENSURE(!started_.exchange(true), "run() called twice");
  worker_stats_.assign(shard_count_, WorkerCounters{});

  // Seed every party as runnable on its home shard, token pre-claimed; the
  // first worker to dequeue it runs on_start before draining its mailbox.
  for (ProcessId p = 0; p < params_.n; ++p) {
    mail_[p]->claimed.store(true, std::memory_order_relaxed);
    shards_[home_shard(p)]->runnable.push_back(p);
  }

  start_time_ = std::chrono::steady_clock::now();
  threads_.reserve(shard_count_);
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    threads_.emplace_back(
        [this, s](std::stop_token st) { worker_loop(s, st); });
  }

  const auto deadline = start_time_ + timeout;
  auto all_done = [this] {
    for (ProcessId p = 0; p < params_.n; ++p) {
      if (crashed_[p].load() || byzantine_[p]) continue;
      if (!done_[p].load(std::memory_order_acquire)) return false;
    }
    return true;
  };
  // Completion is re-checked after the deadline passes, so a run that
  // finishes during the final poll interval is not misreported as a timeout.
  bool done = false;
  for (;;) {
    done = all_done();
    if (done || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  for (auto& th : threads_) th.request_stop();
  for (auto& sh : shards_) sh->cv.notify_all();
  for (auto& th : threads_) {
    if (th.joinable()) th.join();
  }

  // Aggregate the per-worker counters now that the joins above made every
  // worker's writes visible; after this point the network is quiescent and
  // trace snapshots are race-free too.
  exec_stats_ = obs::ExecStats{};
  exec_stats_.workers = shard_count_;
  for (const WorkerCounters& wc : worker_stats_) {
    exec_stats_.claims += wc.claims;
    exec_stats_.steals += wc.steals;
    exec_stats_.parties_run += wc.parties_run;
    exec_stats_.idle_spins += wc.idle_spins;
  }
  return done;
}

std::vector<double> ThreadNetwork::correct_outputs() const {
  std::vector<double> out;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (!is_correct(p)) continue;
    if (has_output_[p].load(std::memory_order_acquire) &&
        has_scalar_[p].load(std::memory_order_relaxed)) {
      out.push_back(output_value_[p].load(std::memory_order_relaxed));
    }
  }
  return out;
}

std::vector<std::vector<double>> ThreadNetwork::correct_vector_outputs() const {
  std::vector<std::vector<double>> out;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (!is_correct(p)) continue;
    if (has_output_[p].load(std::memory_order_acquire)) {
      out.push_back(output_vec_[p]);
    }
  }
  return out;
}

bool ThreadNetwork::is_correct(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return !crashed_[p].load() && !byzantine_[p];
}

bool ThreadNetwork::has_output(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return has_output_[p].load(std::memory_order_acquire);
}

double ThreadNetwork::output_value(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return output_value_[p].load(std::memory_order_acquire);
}

double ThreadNetwork::output_time(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return output_time_[p].load(std::memory_order_acquire);
}

bool ThreadNetwork::all_correct_output() const {
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (is_correct(p) && !has_output_[p].load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

}  // namespace apxa::rt
