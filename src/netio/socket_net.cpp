#include "netio/socket_net.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "common/ensure.hpp"
#include "net/envelope.hpp"

namespace apxa::rt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
using Clock = std::chrono::steady_clock;
}  // namespace

SocketNetwork::SocketNetwork(SystemParams params)
    : params_(params),
      parties_(params.n),
      byzantine_(params.n, false),
      outbox_(params,
              [this](ProcessId from, ProcessId to, net::Payload packet) {
                link_send(from, to, packet, stop_token_of(from));
              }),
      unacked_now_(params.n),
      has_output_(params.n),
      has_scalar_(params.n),
      output_value_(params.n),
      output_vec_(params.n),
      output_time_(params.n),
      done_(params.n) {
  APXA_ENSURE(params_.n >= 1 && params_.t < params_.n, "bad system params");
  // One socket fd per local party; stay well under default fd limits.
  APXA_ENSURE(params_.n <= 512, "socket backend supports at most 512 parties");
  // The atomic flags and values start zeroed (vector value-initializes).
  for (std::uint32_t i = 0; i < params_.n; ++i) output_time_[i] = kInf;
}

SocketNetwork::~SocketNetwork() {
  for (auto& th : threads_) th.request_stop();
  // jthread joins on destruction; party loops poll their stop token at
  // millisecond granularity.
}

void SocketNetwork::add_process(std::unique_ptr<net::Process> p) {
  ProcessId id = 0;
  while (id < params_.n && (parties_[id].proc || parties_[id].remote)) ++id;
  add_process_at(id, std::move(p));
}

void SocketNetwork::add_process_at(ProcessId id, std::unique_ptr<net::Process> p) {
  APXA_ENSURE(!started_.load(), "cannot add processes after run()");
  APXA_ENSURE(p != nullptr, "null process");
  APXA_ENSURE(id < params_.n, "process id out of range");
  APXA_ENSURE(!parties_[id].remote, "party is declared remote");
  APXA_ENSURE(!parties_[id].proc, "party already has a process");
  parties_[id].proc = std::move(p);
  ++registered_;
}

void SocketNetwork::set_party_remote(ProcessId p) {
  APXA_ENSURE(!started_.load(), "set_party_remote must precede run()");
  APXA_ENSURE(p < params_.n, "party id out of range");
  APXA_ENSURE(!parties_[p].proc, "party already has a local process");
  parties_[p].remote = true;
}

void SocketNetwork::crash(ProcessId p) {
  APXA_ENSURE(p < params_.n, "crash id out of range");
  outbox_.crash(p);
}

void SocketNetwork::crash_after_sends(ProcessId p, std::uint64_t count) {
  APXA_ENSURE(!started_.load(), "crash_after_sends must precede run()");
  outbox_.crash_after_sends(p, count);
}

void SocketNetwork::set_multicast_order(ProcessId p, std::vector<ProcessId> order) {
  APXA_ENSURE(!started_.load(), "set_multicast_order must precede run()");
  outbox_.set_multicast_order(p, std::move(order));
}

void SocketNetwork::mark_byzantine(ProcessId p) {
  APXA_ENSURE(p < params_.n, "byzantine id out of range");
  APXA_ENSURE(!started_.load(), "mark_byzantine must precede run()");
  byzantine_[p] = true;
}

void SocketNetwork::set_done_predicate(DonePredicate pred) {
  APXA_ENSURE(!started_.load(), "set_done_predicate must precede run()");
  done_pred_ = std::move(pred);
}

void SocketNetwork::enable_batching(std::uint32_t max_frames) {
  APXA_ENSURE(!started_.load(), "enable_batching must precede run()");
  outbox_.enable_batching(max_frames);
}

void SocketNetwork::set_trace(obs::TraceSink* sink) {
  APXA_ENSURE(!started_.load(), "set_trace must precede run()");
  trace_ = sink;
  outbox_.set_trace(sink);
}

void SocketNetwork::set_fault_config(const netio::FaultConfig& cfg) {
  APXA_ENSURE(!started_.load(), "set_fault_config must precede run()");
  fault_cfg_ = cfg;
}

void SocketNetwork::set_link_config(const netio::LinkConfig& cfg) {
  APXA_ENSURE(!started_.load(), "set_link_config must precede run()");
  link_cfg_ = cfg;
}

void SocketNetwork::set_fixed_ports(std::uint16_t base_port) {
  APXA_ENSURE(!started_.load(), "set_fixed_ports must precede run()");
  APXA_ENSURE(base_port > 0, "base port must be nonzero");
  APXA_ENSURE(base_port + params_.n <= 65'536, "port range overflows");
  base_port_ = base_port;
}

void SocketNetwork::set_linger(std::chrono::milliseconds linger) {
  APXA_ENSURE(!started_.load(), "set_linger must precede run()");
  linger_ = linger;
}

void SocketNetwork::link_send(ProcessId from, ProcessId to, BytesView packet,
                              const std::stop_token& st) {
  Party& me = parties_[from];
  netio::PeerLink& link = me.links[to];
  // Bounded resend queue = backpressure: pump our own socket (acks shrink the
  // queue; DATA frames park in `pending` so protocol upcalls never nest) and
  // keep the retransmit timers honest while we wait.
  while (!link.has_capacity()) {
    if (st.stop_requested()) return;  // shutdown: message abandoned mid-run
    service_timers(from, st);
    pump_socket(from, 1'000);
  }
  const auto now = Clock::now();
  Bytes dgram = link.make_data(packet, now);
  emit_datagram(from, to, std::move(dgram), now);
}

void SocketNetwork::emit_datagram(ProcessId from, ProcessId to, Bytes dgram,
                                  Clock::time_point now) {
  Party& me = parties_[from];
  if (me.shim) {
    switch (me.shim->decide()) {
      case netio::FaultShim::Fate::kDrop:
        if (trace_) {
          trace_->record(obs::EventKind::kDrop, from, to, -1,
                         static_cast<double>(dgram.size()), 0.0);
        }
        return;  // the retransmit timer will try again
      case netio::FaultShim::Fate::kDelay:
        me.delayed.push_back(DelayedDatagram{
            to, std::move(dgram),
            now + std::chrono::microseconds(fault_cfg_.delay_us)});
        return;
      case netio::FaultShim::Fate::kPass:
        break;
    }
  }
  // A refused send (full kernel buffer) is indistinguishable from wire loss;
  // retransmission recovers either way.
  me.sock.send_to(addr_[to], dgram);
}

void SocketNetwork::pump_socket(ProcessId p, std::uint32_t wait_us) {
  Party& me = parties_[p];
  if (wait_us > 0) me.sock.wait_readable(wait_us);
  netio::UdpAddress src_addr;
  while (const auto size = me.sock.recv_into(me.rx, src_addr)) {
    const auto it = port_to_id_.find(src_addr.port);
    if (it == port_to_id_.end()) continue;  // stray datagram, not a peer
    const ProcessId src = it->second;
    if (src == p) continue;
    me.got.clear();
    me.links[src].on_datagram(BytesView(me.rx).first(*size), Clock::now(),
                              me.got);
    for (auto& d : me.got) me.pending.emplace_back(src, std::move(d));
  }
}

void SocketNetwork::drain_pending(ProcessId p, const std::stop_token& st) {
  Party& me = parties_[p];
  while (!me.pending.empty()) {
    if (st.stop_requested()) return;
    auto [src, d] = std::move(me.pending.front());
    me.pending.pop_front();
    // Link-level receipt already happened (the payload was acked and
    // deduplicated); a crashed party additionally drops the PROTOCOL
    // delivery, mirroring the other transports where crashed parties stop
    // processing but the wire keeps moving.
    if (outbox_.crashed(p)) continue;
    outbox_.metrics_of(p).note_delivery(d.payload, d.latency_s / kSocketLatencySpan);
    if (outbox_.batching()) {
      net::for_each_frame(d.payload, [&](BytesView frame) {
        deliver_frame(p, src, frame);
      });
      outbox_.flush(p);
    } else {
      deliver_frame(p, src, d.payload);
    }
    publish(p);
  }
}

void SocketNetwork::deliver_frame(ProcessId p, ProcessId from, BytesView frame) {
  if (trace_) trace_->record(obs::EventKind::kDeliver, from, p, -1, 1.0, 0.0);
  ++outbox_.metrics_of(p).messages_delivered;
  net::OutboxContext ctx(outbox_, p);
  parties_[p].proc->on_message(ctx, from, frame);
}

void SocketNetwork::service_timers(ProcessId p, const std::stop_token& st) {
  (void)st;
  Party& me = parties_[p];
  const auto now = Clock::now();
  // Release shim-held datagrams whose delay elapsed (their fate is already
  // decided; they go straight to the wire).
  while (!me.delayed.empty() && me.delayed.front().release <= now) {
    DelayedDatagram d = std::move(me.delayed.front());
    me.delayed.pop_front();
    me.sock.send_to(addr_[d.to], d.dgram);
  }
  for (ProcessId q = 0; q < params_.n; ++q) {
    if (q == p) continue;
    netio::PeerLink& link = me.links[q];
    me.resends.clear();
    link.collect_retransmits(now, me.resends);
    for (Bytes& r : me.resends) {
      // Physical-only accounting: retransmissions never touch the logical
      // counters (messages_sent, per-tag/round/instance), so msgs_per_packet
      // and message-complexity numbers stay loss-invariant.
      outbox_.metrics_of(p).note_retransmit(r.size());
      if (trace_) {
        trace_->record(obs::EventKind::kRetransmit, p, q, -1,
                       static_cast<double>(r.size()), 0.0);
      }
      emit_datagram(p, q, std::move(r), now);
    }
    // Acks not about to piggyback on DATA go out as pure ACK frames so
    // one-directional traffic still gets acknowledged.
    if (auto ack = link.take_ack_frame()) {
      emit_datagram(p, q, std::move(*ack), now);
    }
  }
}

void SocketNetwork::publish(ProcessId p) {
  if (!has_output_[p].load(std::memory_order_acquire)) {
    if (parties_[p].proc->has_output()) {
      const std::chrono::duration<double> since = Clock::now() - start_time_;
      if (auto vy = parties_[p].proc->vector_output()) {
        output_vec_[p] = std::move(*vy);
      }
      if (const auto y = parties_[p].proc->output()) {
        output_value_[p].store(*y, std::memory_order_relaxed);
        has_scalar_[p].store(true, std::memory_order_relaxed);
      }
      output_time_[p].store(since.count(), std::memory_order_release);
      has_output_[p].store(true, std::memory_order_release);
    }
  }
  if (!byzantine_[p] && !outbox_.crashed(p) &&
      !done_[p].load(std::memory_order_acquire)) {
    const bool d = done_pred_ ? done_pred_(*parties_[p].proc)
                              : has_output_[p].load(std::memory_order_acquire);
    if (d) done_[p].store(true, std::memory_order_release);
  }
}

void SocketNetwork::party_loop(ProcessId p, std::stop_token st) {
  Party& me = parties_[p];
  current_stop_[p] = &st;
  if (!me.started) {
    me.started = true;
    if (!outbox_.crashed(p)) {
      net::OutboxContext ctx(outbox_, p);
      me.proc->on_start(ctx);
      outbox_.flush(p);
      publish(p);
    }
  }
  while (!st.stop_requested()) {
    // Wait until the earliest timer (retransmit deadline or shim release) or
    // at most 1 ms; incoming datagrams cut the wait short via ppoll().
    std::uint32_t wait_us = 1'000;
    const auto now = Clock::now();
    auto earliest = Clock::time_point::max();
    for (ProcessId q = 0; q < params_.n; ++q) {
      if (q == p) continue;
      earliest = std::min(earliest, me.links[q].next_deadline());
    }
    if (!me.delayed.empty()) {
      earliest = std::min(earliest, me.delayed.front().release);
    }
    if (earliest != Clock::time_point::max()) {
      wait_us = earliest <= now
                    ? 0
                    : static_cast<std::uint32_t>(std::min<std::int64_t>(
                          1'000, std::chrono::ceil<std::chrono::microseconds>(
                                     earliest - now)
                                     .count()));
    }
    pump_socket(p, wait_us);
    drain_pending(p, st);
    service_timers(p, st);
    std::uint64_t inflight = 0;
    for (ProcessId q = 0; q < params_.n; ++q) {
      if (q != p) inflight += me.links[q].unacked();
    }
    unacked_now_[p].store(inflight, std::memory_order_relaxed);
  }
  current_stop_[p] = nullptr;
}

const std::stop_token& SocketNetwork::stop_token_of(ProcessId p) const {
  APXA_ASSERT(current_stop_[p] != nullptr,
              "send outside the party's socket thread");
  return *current_stop_[p];
}

bool SocketNetwork::run(std::chrono::milliseconds timeout) {
  std::uint32_t local_count = 0;
  for (ProcessId p = 0; p < params_.n; ++p) {
    const Party& party = parties_[p];
    APXA_ENSURE(party.remote || party.proc != nullptr,
                "every party needs a process or a remote declaration");
    if (party.remote) {
      APXA_ENSURE(base_port_ != 0, "remote parties require set_fixed_ports");
    } else {
      ++local_count;
    }
  }
  APXA_ENSURE(local_count >= 1, "no local parties to run");
  APXA_ENSURE(!started_.exchange(true), "run() called twice");

  // Bind local sockets first (ephemeral ports resolve here), then assemble
  // the full address and port->party tables.
  for (ProcessId p = 0; p < params_.n; ++p) {
    Party& party = parties_[p];
    if (party.remote) continue;
    party.sock.bind(base_port_ == 0 ? 0 : static_cast<std::uint16_t>(base_port_ + p));
    party.links.assign(params_.n, netio::PeerLink(link_cfg_));
    party.rx.resize(netio::kMaxDatagram);
    if (fault_cfg_.enabled()) {
      party.shim = std::make_unique<netio::FaultShim>(fault_cfg_, p);
    }
  }
  addr_.assign(params_.n, netio::UdpAddress{});
  port_to_id_.clear();
  for (ProcessId p = 0; p < params_.n; ++p) {
    addr_[p].port = parties_[p].remote
                        ? static_cast<std::uint16_t>(base_port_ + p)
                        : parties_[p].sock.port();
    port_to_id_[addr_[p].port] = p;
  }
  current_stop_.assign(params_.n, nullptr);

  start_time_ = Clock::now();
  threads_.reserve(local_count);
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (parties_[p].remote) continue;
    threads_.emplace_back(
        [this, p](std::stop_token st) { party_loop(p, std::move(st)); });
  }

  const auto deadline = start_time_ + timeout;
  auto all_done = [this] {
    for (ProcessId p = 0; p < params_.n; ++p) {
      if (parties_[p].remote) continue;
      if (outbox_.crashed(p) || byzantine_[p]) continue;
      if (!done_[p].load(std::memory_order_acquire)) return false;
    }
    return true;
  };
  bool done = false;
  for (;;) {
    done = all_done();
    if (done || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Linger: keep party threads servicing acks/retransmits so remote peers
  // that decided later still drain our resend queues.
  if (done && linger_ > std::chrono::milliseconds(0)) {
    const auto linger_end = Clock::now() + linger_;
    while (Clock::now() < linger_end && total_unacked() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  for (auto& th : threads_) th.request_stop();
  for (auto& th : threads_) {
    if (th.joinable()) th.join();
  }

  // Quiescent now: snapshot link-layer state for the flight recorder and
  // aggregate counters while the party structs are safe to read.
  link_jsonl_.clear();
  link_totals_ = netio::LinkStats{};
  for (ProcessId p = 0; p < params_.n; ++p) {
    const Party& party = parties_[p];
    if (party.remote) continue;
    netio::LinkStats agg;
    std::size_t unacked_left = 0;
    std::ostringstream seqs;
    seqs << "[";
    for (ProcessId q = 0; q < params_.n; ++q) {
      if (q > 0) seqs << ",";
      if (q == p) {
        seqs << 0;
        continue;
      }
      const netio::LinkStats& s = party.links[q].stats();
      agg.data_sent += s.data_sent;
      agg.retransmits += s.retransmits;
      agg.data_received += s.data_received;
      agg.delivered += s.delivered;
      agg.duplicates_dropped += s.duplicates_dropped;
      agg.acks_sent += s.acks_sent;
      agg.acks_received += s.acks_received;
      agg.malformed += s.malformed;
      agg.unacked_peak = std::max(agg.unacked_peak, s.unacked_peak);
      unacked_left += party.links[q].unacked();
      seqs << party.links[q].last_seq_seen();
    }
    seqs << "]";
    link_totals_.data_sent += agg.data_sent;
    link_totals_.retransmits += agg.retransmits;
    link_totals_.data_received += agg.data_received;
    link_totals_.delivered += agg.delivered;
    link_totals_.duplicates_dropped += agg.duplicates_dropped;
    link_totals_.acks_sent += agg.acks_sent;
    link_totals_.acks_received += agg.acks_received;
    link_totals_.malformed += agg.malformed;
    link_totals_.unacked_peak =
        std::max(link_totals_.unacked_peak, agg.unacked_peak);
    std::ostringstream line;
    line << "{\"party\":" << p << ",\"unacked\":" << unacked_left
         << ",\"unacked_peak\":" << agg.unacked_peak
         << ",\"data_sent\":" << agg.data_sent
         << ",\"retransmits\":" << agg.retransmits
         << ",\"delivered\":" << agg.delivered
         << ",\"duplicates_dropped\":" << agg.duplicates_dropped
         << ",\"acks_sent\":" << agg.acks_sent
         << ",\"acks_received\":" << agg.acks_received
         << ",\"malformed\":" << agg.malformed << ",\"shim_dropped\":"
         << (party.shim ? party.shim->dropped() : 0) << ",\"shim_delayed\":"
         << (party.shim ? party.shim->delayed() : 0)
         << ",\"last_seq_seen\":" << seqs.str() << "}";
    link_jsonl_.push_back(line.str());
  }

  exec_stats_ = obs::ExecStats{};
  exec_stats_.workers = local_count;
  return done;
}

std::uint64_t SocketNetwork::total_unacked() const {
  std::uint64_t total = 0;
  for (ProcessId p = 0; p < params_.n; ++p) {
    total += unacked_now_[p].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> SocketNetwork::correct_outputs() const {
  std::vector<double> out;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (parties_[p].remote || !is_correct(p)) continue;
    if (has_output_[p].load(std::memory_order_acquire) &&
        has_scalar_[p].load(std::memory_order_relaxed)) {
      out.push_back(output_value_[p].load(std::memory_order_relaxed));
    }
  }
  return out;
}

std::vector<std::vector<double>> SocketNetwork::correct_vector_outputs() const {
  std::vector<std::vector<double>> out;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (parties_[p].remote || !is_correct(p)) continue;
    if (has_output_[p].load(std::memory_order_acquire)) {
      out.push_back(output_vec_[p]);
    }
  }
  return out;
}

bool SocketNetwork::is_correct(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return !outbox_.crashed(p) && !byzantine_[p];
}

bool SocketNetwork::is_local(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return !parties_[p].remote;
}

bool SocketNetwork::has_output(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return has_output_[p].load(std::memory_order_acquire);
}

double SocketNetwork::output_value(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return output_value_[p].load(std::memory_order_acquire);
}

double SocketNetwork::output_time(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return output_time_[p].load(std::memory_order_acquire);
}

bool SocketNetwork::all_correct_output() const {
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (parties_[p].remote) continue;
    if (is_correct(p) && !has_output_[p].load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> SocketNetwork::link_state_jsonl() const {
  return link_jsonl_;
}

netio::LinkStats SocketNetwork::link_totals() const { return link_totals_; }

}  // namespace apxa::rt
