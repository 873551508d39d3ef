#include "net/inbox.hpp"

#include <limits>
#include <thread>
#include <utility>

#include "common/ensure.hpp"
#include "net/envelope.hpp"

namespace apxa::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Inbox::Inbox(Outbox& out, const double* clock)
    : params_(out.params()),
      out_(out),
      clock_(clock),
      procs_(params_.n),
      byzantine_(params_.n, 0),
      output_time_(params_.n),
      done_flag_(params_.n) {
  for (auto& t : output_time_) t.store(kInf, std::memory_order_relaxed);
}

void Inbox::add_process(ProcessId id, std::unique_ptr<Process> p) {
  APXA_ENSURE(p != nullptr, "null process");
  APXA_ENSURE(id < params_.n, "all n processes already added");
  APXA_ENSURE(procs_[id] == nullptr, "party already has a process");
  procs_[id] = std::move(p);
  ++seated_;
}

void Inbox::mark_byzantine(ProcessId p) {
  APXA_ENSURE(p < params_.n, "byzantine id out of range");
  byzantine_[p] = 1;
}

const Process& Inbox::process(ProcessId p) const {
  APXA_ENSURE(p < params_.n && procs_[p] != nullptr, "no process in this slot");
  return *procs_[p];
}

void Inbox::set_trace(obs::TraceSink* sink) {
  trace_ = sink;
  out_.set_trace(sink, clock_);
}

std::chrono::steady_clock::time_point Inbox::start_clock() {
  start_ = std::chrono::steady_clock::now();
  return start_;
}

double Inbox::now() const {
  if (clock_) return *clock_;
  const std::chrono::duration<double> since = std::chrono::steady_clock::now() - start_;
  return since.count();
}

void Inbox::set_done(DoneProbe done) {
  done_ = std::move(done);
  done_scan_ = 0;
  for (ProcessId p = 0; p < params_.n; ++p) {
    done_flag_[p].store(procs_[p] == nullptr, std::memory_order_relaxed);
  }
}

void Inbox::start(ProcessId p) {
  if (out_.crashed(p)) return;
  OutboxContext ctx(out_, p);
  procs_[p]->on_start(ctx);
  out_.flush(p);
  settle(p);
}

bool Inbox::deliver(ProcessId from, ProcessId to, BytesView packet,
                    std::optional<double> latency) {
  if (out_.crashed(to)) {
    if (trace_) trace_->record(obs::EventKind::kDrop, from, to, -1, 0.0, stamp());
    return false;
  }
  Metrics& metrics = out_.metrics_of(to);
  if (latency) metrics.note_delivery(packet, *latency);

  OutboxContext ctx(out_, to);
  Process& proc = *procs_[to];
  if (out_.batching()) {
    // Deliver EVERY frame of the packet before flushing the receiver's send
    // buffers: an 8-frame batch advances up to 8 instances whose responses
    // then pack into full batches again, so batching efficiency
    // self-sustains down the cascade.
    if (trace_) {
      std::size_t frames = 0;
      for_each_frame(packet, [&frames](BytesView) { ++frames; });
      trace_->record(obs::EventKind::kDeliver, from, to, -1,
                     static_cast<double>(frames), stamp());
    }
    for_each_frame(packet, [&](BytesView frame) {
      ++metrics.messages_delivered;
      proc.on_message(ctx, from, frame);
    });
    out_.flush(to);
  } else {
    if (trace_) trace_->record(obs::EventKind::kDeliver, from, to, -1, 1.0, stamp());
    ++metrics.messages_delivered;
    proc.on_message(ctx, from, packet);
  }
  settle(to);
  return true;
}

void Inbox::settle(ProcessId p) {
  // Only p's own upcalls change p's state, so this is the only place its
  // output can have appeared.
  const Process& proc = *procs_[p];
  if (!has_output_time(p) && proc.has_output()) {
    output_time_[p].store(now(), std::memory_order_relaxed);
  }
  if (!is_correct(p) || done_flag_[p].load(std::memory_order_relaxed)) return;
  if (done_ ? done_(proc) : has_output_time(p)) {
    done_flag_[p].store(true, std::memory_order_relaxed);
  }
}

bool Inbox::all_done() {
  // Flags only latch and no party returns to correct, so a party passed
  // here never blocks again.
  while (done_scan_ < params_.n &&
         (!is_correct(done_scan_) ||
          done_flag_[done_scan_].load(std::memory_order_relaxed))) {
    ++done_scan_;
  }
  return done_scan_ == params_.n;
}

bool Inbox::await_done(std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    if (all_done()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return all_done();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool Inbox::has_output_time(ProcessId p) const {
  return output_time_[p].load(std::memory_order_relaxed) != kInf;
}

double Inbox::output_time(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return output_time_[p].load(std::memory_order_relaxed);
}

bool Inbox::all_correct_output() const {
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (procs_[p] && is_correct(p) && !has_output_time(p)) return false;
  }
  return true;
}

std::vector<double> Inbox::correct_outputs() const {
  std::vector<double> out;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (!procs_[p] || !is_correct(p) || !has_output_time(p)) continue;
    if (const auto y = procs_[p]->output()) out.push_back(*y);
  }
  return out;
}

std::vector<std::vector<double>> Inbox::correct_vector_outputs() const {
  std::vector<std::vector<double>> out;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (!procs_[p] || !is_correct(p) || !has_output_time(p)) continue;
    if (auto y = procs_[p]->vector_output()) out.push_back(std::move(*y));
  }
  return out;
}

}  // namespace apxa::net
