#include "runtime/thread_net.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/ensure.hpp"
#include "net/envelope.hpp"

namespace apxa::rt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

ThreadNetwork::ThreadNetwork(SystemParams params)
    : params_(params),
      byzantine_(params.n, false),
      outbox_(params,
              [this](ProcessId from, ProcessId to, net::Payload packet) {
                push_mail(from, to, std::move(packet));
              }),
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
  // The atomic flags and values start zeroed (vector value-initializes).
  for (std::uint32_t i = 0; i < params_.n; ++i) {
    mail_.push_back(std::make_unique<Mailbox>());
    output_time_[i] = kInf;
  }
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
  outbox_.crash(p);
}

void ThreadNetwork::crash_after_sends(ProcessId p, std::uint64_t count) {
  APXA_ENSURE(!started_.load(), "crash_after_sends must precede run()");
  outbox_.crash_after_sends(p, count);
}

void ThreadNetwork::set_multicast_order(ProcessId p, std::vector<ProcessId> order) {
  APXA_ENSURE(!started_.load(), "set_multicast_order must precede run()");
  outbox_.set_multicast_order(p, std::move(order));
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
  APXA_ENSURE(!started_.load(), "enable_batching must precede run()");
  outbox_.enable_batching(max_frames);
}

std::uint32_t ThreadNetwork::shards() const { return shard_count_; }

void ThreadNetwork::set_trace(obs::TraceSink* sink) {
  APXA_ENSURE(!started_.load(), "set_trace must precede run()");
  trace_ = sink;
  outbox_.set_trace(sink);
}

void ThreadNetwork::push_mail(ProcessId from, ProcessId to, net::Payload packet) {
  Mailbox& mb = *mail_[to];
  {
    std::scoped_lock lock(mb.mu);
    mb.queue.push_back(Item{from, std::move(packet)});
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
  if (!byzantine_[p] && !outbox_.crashed(p) &&
      !done_[p].load(std::memory_order_acquire)) {
    const bool d = done_pred_ ? done_pred_(*procs_[p])
                              : has_output_[p].load(std::memory_order_acquire);
    if (d) done_[p].store(true, std::memory_order_release);
  }
}

void ThreadNetwork::deliver_one(ProcessId p, ProcessId from,
                                BytesView payload) {
  if (trace_) trace_->record(obs::EventKind::kDeliver, from, p, -1, 1.0, 0.0);
  ++outbox_.metrics_of(p).messages_delivered;
  net::OutboxContext ctx(outbox_, p);
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
    if (!outbox_.crashed(p)) {
      net::OutboxContext ctx(outbox_, p);
      procs_[p]->on_start(ctx);
      outbox_.flush(p);
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
    if (outbox_.crashed(p)) continue;
    if (outbox_.batching()) {
      // Deliver EVERY frame of the packet, then flush the receiver's send
      // buffers once: a full batch advances several instances whose
      // responses pack into full batches again (self-sustaining msgs/packet).
      net::for_each_frame(item.payload, [&](BytesView frame) {
        deliver_one(p, item.from, frame);
      });
      outbox_.flush(p);
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
      if (outbox_.crashed(p) || byzantine_[p]) continue;
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
  return !outbox_.crashed(p) && !byzantine_[p];
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
