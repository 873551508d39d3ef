// Threaded in-process runtime: the same Process objects, real concurrency.
//
// The deterministic simulator is the workhorse for experiments; this runtime
// runs the identical protocol state machines under genuine (OS-scheduler)
// asynchrony and carries real experiment traffic through the execution
// harness (src/harness) via exec::TransportBackend.
//
// Design: a WORK-STEALING executor, not static party→shard pinning.  Each of
// the S worker threads (S = min(n, hardware_concurrency) by default, override
// with set_shards) owns a deque of runnable parties.  Every party has a
// private mailbox guarded by an atomic ownership token: whoever holds the
// token is the only thread allowed to run upcalls into that party's Process,
// so the single-threaded-per-process contract survives even though parties
// migrate between workers.  send() pushes into the receiver's mailbox and, if
// the receiver is not currently owned, claims the token and enqueues the
// party on its home shard (p % S).  Workers drain their own deque from the
// front and steal from other shards' backs when idle, so one hot party — or
// one router party multiplexing hundreds of agreement instances — cannot
// stall the parties that used to share its pinned shard.  After draining one
// mailbox batch the owner releases the token and re-checks the mailbox,
// re-claiming and re-enqueuing (onto ITS OWN deque — the party migrates to
// the worker that last ran it) if messages raced in: the release-then-recheck
// pattern closes the lost-wakeup window.  Stop: request_stop() after the
// completion predicate holds; threads drain and join (jthread joins on
// destruction — CP.25's joining-thread discipline).
//
// Sends go through net::Outbox (crash budgets, multicast order, batching,
// send tracing; semantics as on the simulator), whose wire here pushes a
// packet into the receiver's mailbox and claims it.  Deliveries, output
// times and done latches go through net::Inbox, whose per-party state the
// worker running the party writes; the coordinator in run() only sleeps in
// Inbox::await_done(), which wakes it when a party stops blocking, and
// outputs are read from the Inbox once run() returned.  Metrics go to the
// Outbox's per-party slots, so neither sends nor deliveries take a lock for
// accounting.  crash(p) drops p's future sends and deliveries at once;
// mark_byzantine(p) is bookkeeping (see net::Inbox).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/ids.hpp"
#include "net/inbox.hpp"
#include "net/metrics.hpp"
#include "net/outbox.hpp"
#include "net/process.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace apxa::rt {

class ThreadNetwork final {
 public:
  explicit ThreadNetwork(SystemParams params);
  ~ThreadNetwork();

  ThreadNetwork(const ThreadNetwork&) = delete;
  ThreadNetwork& operator=(const ThreadNetwork&) = delete;

  /// Register party `id == number added so far`; all n before run().
  void add_process(std::unique_ptr<net::Process> p);

  /// Mark a party crashed: all its future sends and deliveries are dropped.
  /// Safe to call while running.
  void crash(ProcessId p);

  /// Crash `p` immediately before its (count+1)-th logical send (simulator-
  /// parity semantics; count == 0 crashes it at startup).  Must precede run().
  void crash_after_sends(ProcessId p, std::uint64_t count);

  /// Override the receiver order used by p's multicasts.  Must precede run().
  void set_multicast_order(ProcessId p, std::vector<ProcessId> order);

  /// Declare a party byzantine (bookkeeping only).  Must precede run().
  void mark_byzantine(ProcessId p);

  /// Override the worker (shard) count — default min(n, hardware
  /// concurrency).  Workers beyond n are legal (they idle and steal); 0 is
  /// rejected with an ensure error, never silently clamped.  Must precede
  /// run().
  void set_shards(std::uint32_t shards);

  /// Enable per-destination send batching (cap `max_frames` <=
  /// net::kMaxBatchFrames frames per packet).  Must precede run().
  void enable_batching(std::uint32_t max_frames);

  /// Attach a trace sink (null disables tracing; the default).  Workers
  /// record into per-thread rings, so the hot paths stay lock-free; the sink
  /// must outlive the network, and snapshots are safe once run() returned
  /// (it joins every worker).  Must precede run().
  void set_trace(obs::TraceSink* sink);

  /// Aggregated per-worker executor counters (claims, steals, parties run,
  /// idle spins).  Counted unconditionally — they ride on paths that already
  /// take a lock or cache miss — and aggregated when run() stops.
  [[nodiscard]] obs::ExecStats exec_stats() const { return exec_stats_; }

  /// Start the workers, wait until every correct party satisfies `done`
  /// (evaluated by the party's current owner between upcalls; empty = "has
  /// produced an output") or the timeout elapses; then stop and join.
  /// Returns true when all correct parties completed.
  bool run(std::chrono::milliseconds timeout, net::DoneProbe done = {});

  /// The party table; output times are wall seconds since run() started.
  /// Read it once run() returned.
  [[nodiscard]] const net::Inbox& inbox() const { return inbox_; }
  /// The per-party metrics slots merged; call once run() returned.
  [[nodiscard]] net::Metrics metrics() const { return outbox_.metrics(); }
  [[nodiscard]] SystemParams params() const { return params_; }
  /// Worker count run() will use (resolved from n / hardware / set_shards).
  [[nodiscard]] std::uint32_t shards() const;

 private:
  struct Item {
    ProcessId from;
    net::Payload payload;
  };

  /// Per-party mailbox.  `claimed` is the ownership token: the holder is the
  /// only thread that may invoke upcalls on the party's Process or touch
  /// `started`.  The release-store on token release and the acquire on the
  /// next claim (exchange) carry the happens-before edge for all per-party
  /// state between successive owners.
  struct Mailbox {
    std::mutex mu;
    std::deque<Item> queue;
    std::atomic<bool> claimed{false};
    bool started = false;  // token-holder only: on_start issued?
  };

  /// Per-worker runnable deque: the owner pops from the front, idle workers
  /// steal parties from the back.
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<ProcessId> runnable;
  };

  /// Per-worker executor counters, cache-line separated so workers never
  /// contend; each worker writes only its own entry, and run() aggregates
  /// them after the joins (which carry the happens-before edge).
  struct alignas(64) WorkerCounters {
    std::uint64_t claims = 0;
    std::uint64_t steals = 0;
    std::uint64_t parties_run = 0;
    std::uint64_t idle_spins = 0;
  };

  void worker_loop(std::uint32_t shard, std::stop_token st);
  bool next_party(std::uint32_t shard, ProcessId& out, const std::stop_token& st);
  void run_party(std::uint32_t shard, ProcessId p, const std::stop_token& st);
  void enqueue_runnable(std::uint32_t shard, ProcessId p);
  /// The Outbox's wire: push into the receiver's mailbox and claim it.
  void push_mail(ProcessId from, ProcessId to, net::Payload packet);
  /// Home shard — where a newly runnable party is first enqueued; it may
  /// then migrate to whichever worker processes it.
  [[nodiscard]] std::uint32_t home_shard(ProcessId p) const {
    return p % shard_count_;
  }

  SystemParams params_;
  std::vector<std::unique_ptr<Mailbox>> mail_;     // one per party
  std::vector<std::unique_ptr<Shard>> shards_;     // one per worker
  std::uint32_t shard_count_ = 1;                  // resolved in ctor
  net::Outbox outbox_;
  net::Inbox inbox_;
  std::vector<std::jthread> threads_;
  std::atomic<bool> started_{false};
  obs::TraceSink* trace_ = nullptr;
  std::vector<WorkerCounters> worker_stats_;  // sized at run()
  obs::ExecStats exec_stats_;                 // aggregated when run() stops

  static constexpr std::uint32_t kMaxShards = 4096;
};

}  // namespace apxa::rt
