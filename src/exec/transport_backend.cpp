#include "exec/transport_backend.hpp"

#include <type_traits>

namespace apxa::exec {

template <class Net>
ExecResult TransportBackend<Net>::run(const ExecOptions& opts) {
  ExecResult res;
  if constexpr (std::is_same_v<Net, net::SimNetwork>) {
    net_.start();
    res.status = net_.run_until_done(opts.done, opts.max_deliveries);
  } else {
    res.status = net_.run(opts.timeout, opts.done) ? net::RunStatus::kPredicateSatisfied
                                                   : net::RunStatus::kTimedOut;
  }
  if constexpr (std::is_same_v<Net, rt::SocketNetwork>) {
    res.transport_state = net_.link_state_jsonl();
  }
  const net::Inbox& inbox = net_.inbox();
  res.all_correct_output = inbox.all_correct_output();
  res.outputs = inbox.correct_outputs();
  res.vector_outputs = inbox.correct_vector_outputs();
  res.metrics = net_.metrics();
  res.exec_stats = net_.exec_stats();
  const auto n = net_.params().n;
  res.correct.resize(n);
  res.output_times.resize(n);
  for (ProcessId p = 0; p < n; ++p) {
    res.correct[p] = inbox.is_correct(p);
    res.output_times[p] = inbox.output_time(p);
  }
  return res;
}

template <class Net>
std::string_view TransportBackend<Net>::name() const {
  if constexpr (std::is_same_v<Net, net::SimNetwork>) {
    return "sim";
  } else if constexpr (std::is_same_v<Net, rt::ThreadNetwork>) {
    return "thread";
  } else {
    return "socket";
  }
}

template class TransportBackend<net::SimNetwork>;
template class TransportBackend<rt::ThreadNetwork>;
template class TransportBackend<rt::SocketNetwork>;

}  // namespace apxa::exec
