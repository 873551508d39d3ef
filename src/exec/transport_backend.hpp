// The one exec::Backend implementation, over any of the three transports.
//
// Registration and fault injection go to the transport unchanged; run()
// runs it under the completion probe and fills the ExecResult from the
// transport's net::Inbox, the same way for every transport.  Determinism is
// the transport's: simulated runs replay bit for bit; on the threaded and
// socket runtimes interleavings — and with them finish times and exact
// crash cut points — are not reproducible, only the protocol-level
// guarantees (validity, eps-agreement, termination) are, which is what the
// harness checks there.
#pragma once

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/backend.hpp"
#include "net/sim.hpp"
#include "netio/socket_net.hpp"
#include "runtime/thread_net.hpp"

namespace apxa::exec {

/// `Net` is net::SimNetwork, rt::ThreadNetwork or rt::SocketNetwork.
template <class Net>
class TransportBackend final : public Backend {
 public:
  /// Constructs the transport from `args` (params, plus the scheduler on
  /// the simulator).
  template <class... Args>
  explicit TransportBackend(Args&&... args) : net_(std::forward<Args>(args)...) {}

  void add_process(std::unique_ptr<net::Process> p) override {
    net_.add_process(std::move(p));
  }
  void mark_byzantine(ProcessId p) override { net_.mark_byzantine(p); }
  void crash_after_sends(ProcessId p, std::uint64_t count) override {
    net_.crash_after_sends(p, count);
  }
  void set_multicast_order(ProcessId p, std::vector<ProcessId> order) override {
    net_.set_multicast_order(p, std::move(order));
  }
  void enable_batching(std::uint32_t max_frames) override {
    net_.enable_batching(max_frames);
  }
  void set_trace(obs::TraceSink* sink) override { net_.set_trace(sink); }
  ExecResult run(const ExecOptions& opts) override;

  [[nodiscard]] SystemParams params() const override { return net_.params(); }
  [[nodiscard]] std::string_view name() const override;

  /// The transport itself, for its own knobs (the simulator's duplication
  /// and timed crashes, the threaded runtime's shard count, the socket
  /// runtime's fault injection).  Code that uses it is tied to `Net`.
  [[nodiscard]] Net& network() { return net_; }

 private:
  Net net_;
};

extern template class TransportBackend<net::SimNetwork>;
extern template class TransportBackend<rt::ThreadNetwork>;
extern template class TransportBackend<rt::SocketNetwork>;

}  // namespace apxa::exec
