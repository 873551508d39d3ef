#include "exec/sim_backend.hpp"

#include <limits>
#include <utility>

namespace apxa::exec {

SimBackend::SimBackend(SystemParams params,
                       std::unique_ptr<sched::Scheduler> scheduler)
    : net_(params, std::move(scheduler)) {}

void SimBackend::add_process(std::unique_ptr<net::Process> p) {
  net_.add_process(std::move(p));
}

void SimBackend::mark_byzantine(ProcessId p) { net_.mark_byzantine(p); }

void SimBackend::crash_after_sends(ProcessId p, std::uint64_t count) {
  net_.crash_after_sends(p, count);
}

void SimBackend::set_multicast_order(ProcessId p, std::vector<ProcessId> order) {
  net_.set_multicast_order(p, std::move(order));
}

void SimBackend::enable_batching(std::uint32_t max_frames) {
  net_.enable_batching(max_frames);
}

ExecResult SimBackend::run(const ExecOptions& opts) {
  const auto n = net_.params().n;
  net_.start();

  // Per-party probe: stops exactly where the global all-correct-done
  // conjunction would (see net::SimNetwork::run_until_done).
  net::SimNetwork::PartyDone party_done;
  if (opts.done) {
    party_done = [&opts](ProcessId, const net::Process& proc) {
      return opts.done(proc);
    };
  }

  ExecResult res;
  res.status = net_.run_until_done(party_done, opts.max_deliveries);
  res.all_correct_output = net_.all_correct_output();
  res.outputs = net_.correct_outputs();
  res.vector_outputs = net_.correct_vector_outputs();
  res.metrics = net_.metrics();
  res.exec_stats = net_.exec_stats();
  res.correct.resize(n);
  res.output_times.resize(n);
  for (ProcessId p = 0; p < n; ++p) {
    res.correct[p] = net_.is_correct(p);
    res.output_times[p] = net_.output_time(p);
  }
  return res;
}

}  // namespace apxa::exec
