#include "netio/socket_net.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "common/ensure.hpp"

namespace apxa::rt {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

SocketNetwork::SocketNetwork(SystemParams params)
    : params_(params),
      parties_(params.n),
      outbox_(params,
              [this](ProcessId from, ProcessId to, net::Payload packet) {
                // Sends happen only in `from`'s upcalls, on its thread; the
                // loop's next flush_sends frames the packet.
                parties_[from].outq[to].push_back(std::move(packet));
              }),
      inbox_(outbox_),
      unacked_now_(params.n) {
  APXA_ENSURE(params_.n >= 1 && params_.t < params_.n, "bad system params");
  // One socket fd per local party; stay well under default fd limits.
  APXA_ENSURE(params_.n <= 512, "socket backend supports at most 512 parties");
}

SocketNetwork::~SocketNetwork() {
  for (auto& th : threads_) th.request_stop();
  // The wake cuts every party's ppoll short; the jthreads join on
  // destruction, before stop_wake_ (declared earlier) closes.
  stop_wake_.signal();
}

void SocketNetwork::add_process(std::unique_ptr<net::Process> p) {
  ProcessId id = 0;
  while (id < params_.n && (inbox_.has_process(id) || parties_[id].remote)) ++id;
  add_process_at(id, std::move(p));
}

void SocketNetwork::add_process_at(ProcessId id, std::unique_ptr<net::Process> p) {
  APXA_ENSURE(!started_.load(), "cannot add processes after run()");
  APXA_ENSURE(id < params_.n, "process id out of range");
  APXA_ENSURE(!parties_[id].remote, "party is declared remote");
  inbox_.add_process(id, std::move(p));
}

void SocketNetwork::set_party_remote(ProcessId p) {
  APXA_ENSURE(!started_.load(), "set_party_remote must precede run()");
  APXA_ENSURE(p < params_.n, "party id out of range");
  APXA_ENSURE(!inbox_.has_process(p), "party already has a local process");
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
  APXA_ENSURE(!started_.load(), "mark_byzantine must precede run()");
  inbox_.mark_byzantine(p);
}

void SocketNetwork::enable_batching(std::uint32_t max_frames) {
  APXA_ENSURE(!started_.load(), "enable_batching must precede run()");
  outbox_.enable_batching(max_frames);
}

void SocketNetwork::set_trace(obs::TraceSink* sink) {
  APXA_ENSURE(!started_.load(), "set_trace must precede run()");
  trace_ = sink;
  inbox_.set_trace(sink);
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

void SocketNetwork::flush_sends(ProcessId p, const std::stop_token& st) {
  Party& me = parties_[p];
  for (ProcessId q = 0; q < params_.n; ++q) {
    std::vector<net::Payload>& queue = me.outq[q];
    if (queue.empty()) continue;
    netio::PeerLink& link = me.links[q];
    me.views.assign(queue.begin(), queue.end());
    std::span<const BytesView> rest(me.views);
    while (!rest.empty()) {
      // Bounded resend queue = backpressure: pump our own socket (acks
      // shrink the queue; DATA frames park in `pending` so protocol upcalls
      // never nest) and keep the retransmit timers honest while we wait.
      while (!link.has_capacity()) {
        if (st.stop_requested()) return;  // shutdown: packets abandoned
        service_timers(p);
        pump_socket(p, 1'000);
      }
      const std::size_t k = link.frame_fit(rest);
      const auto now = Clock::now();
      emit_datagram(p, q, link.make_data(rest.first(k), now), now);
      rest = rest.subspan(k);
    }
    queue.clear();
  }
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
  if (wait_us > 0) me.sock.wait_readable(wait_us, stop_wake_.fd());
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
    const ProcessId src = me.pending.front().first;
    const netio::Delivered d = std::move(me.pending.front().second);
    me.pending.pop_front();
    // Link-level receipt already happened (the payload was acked and
    // deduplicated); a crashed party additionally drops the PROTOCOL
    // delivery, as on the other transports: crashed parties stop
    // processing but the wire keeps moving.
    const double latency = d.latency_s / kSocketLatencySpan;
    netio::for_each_packet(d.packets, [&](BytesView packet) {
      inbox_.deliver(src, p, packet, latency);
    });
  }
}

void SocketNetwork::service_timers(ProcessId p) {
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
    const std::size_t packets = link.collect_retransmits(now, me.resends);
    std::size_t bytes = 0;
    for (Bytes& r : me.resends) {
      bytes += r.size();
      if (trace_) {
        trace_->record(obs::EventKind::kRetransmit, p, q, -1,
                       static_cast<double>(r.size()), 0.0);
      }
      emit_datagram(p, q, std::move(r), now);
    }
    // Physical-only accounting: retransmissions never touch the logical
    // counters (messages_sent, per-tag/round/instance), so msgs_per_packet
    // and message-complexity numbers stay loss-invariant.
    outbox_.metrics_of(p).note_retransmit(packets, bytes);
    // Acks not about to piggyback on DATA go out as pure ACK frames so
    // one-directional traffic still gets acknowledged.
    if (auto ack = link.take_ack_frame()) {
      emit_datagram(p, q, std::move(*ack), now);
    }
  }
}

void SocketNetwork::party_loop(ProcessId p, std::stop_token st) {
  Party& me = parties_[p];
  if (!me.started) {
    me.started = true;
    inbox_.start(p);
    flush_sends(p, st);
  }
  // Last value stored in unacked_now_[p]; all n slots share one line, and
  // only the linger loop reads them, so a pass stores only a change.
  std::uint64_t stored_unacked = 0;
  while (!st.stop_requested()) {
    // Wait until the earliest timer (retransmit deadline or shim release) or
    // at most 1 ms; incoming datagrams and the stop wake cut the wait short
    // via ppoll().
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
    flush_sends(p, st);
    service_timers(p);
    std::uint64_t inflight = 0;
    for (ProcessId q = 0; q < params_.n; ++q) {
      if (q != p) inflight += me.links[q].unacked();
    }
    if (inflight != stored_unacked) {
      stored_unacked = inflight;
      unacked_now_[p].store(inflight, std::memory_order_relaxed);
    }
  }
}

bool SocketNetwork::run(std::chrono::milliseconds timeout, net::DoneProbe done) {
  std::uint32_t local_count = 0;
  for (ProcessId p = 0; p < params_.n; ++p) {
    const Party& party = parties_[p];
    APXA_ENSURE(party.remote || inbox_.has_process(p),
                "every party needs a process or a remote declaration");
    if (party.remote) {
      APXA_ENSURE(base_port_ != 0, "remote parties require set_fixed_ports");
    } else {
      ++local_count;
    }
  }
  APXA_ENSURE(local_count >= 1, "no local parties to run");
  APXA_ENSURE(!started_.exchange(true), "run() called twice");
  inbox_.set_done(std::move(done));

  // Bind local sockets first (ephemeral ports resolve here), then assemble
  // the full address and port->party tables.
  for (ProcessId p = 0; p < params_.n; ++p) {
    Party& party = parties_[p];
    if (party.remote) continue;
    party.sock.bind(base_port_ == 0 ? 0 : static_cast<std::uint16_t>(base_port_ + p));
    party.links.assign(params_.n, netio::PeerLink(link_cfg_));
    party.outq.assign(params_.n, {});
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

  const auto start = inbox_.start_clock();
  threads_.reserve(local_count);
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (parties_[p].remote) continue;
    threads_.emplace_back(
        [this, p](std::stop_token st) { party_loop(p, std::move(st)); });
  }

  const bool completed = inbox_.await_done(start + timeout);

  // Linger: keep party threads servicing acks/retransmits so remote peers
  // that decided later still drain our resend queues.
  if (completed && linger_ > std::chrono::milliseconds(0)) {
    const auto linger_end = Clock::now() + linger_;
    while (Clock::now() < linger_end && total_unacked() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  for (auto& th : threads_) th.request_stop();
  stop_wake_.signal();
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
    agg.wire = party.sock.counts();
    std::size_t unacked_left = 0;
    std::ostringstream seqs;
    seqs << "[";
    for (ProcessId q = 0; q < params_.n; ++q) {
      if (q > 0) seqs << ",";
      if (q == p) {
        seqs << 0;
        continue;
      }
      agg.merge(party.links[q].stats());
      unacked_left += party.links[q].unacked();
      seqs << party.links[q].last_seq_seen();
    }
    seqs << "]";
    link_totals_.merge(agg);
    std::ostringstream line;
    line << "{\"party\":" << p << ",\"unacked\":" << unacked_left
         << ",\"unacked_peak\":" << agg.unacked_peak
         << ",\"data_sent\":" << agg.data_sent
         << ",\"retransmits\":" << agg.retransmits
         << ",\"delivered\":" << agg.delivered
         << ",\"duplicates_dropped\":" << agg.duplicates_dropped
         << ",\"acks_sent\":" << agg.acks_sent
         << ",\"acks_received\":" << agg.acks_received
         << ",\"malformed\":" << agg.malformed
         << ",\"wire_sends\":" << agg.wire.sends
         << ",\"wire_recvs\":" << agg.wire.recvs
         << ",\"wire_recvs_empty\":" << agg.wire.recvs_empty
         << ",\"wire_waits\":" << agg.wire.waits << ",\"shim_dropped\":"
         << (party.shim ? party.shim->dropped() : 0) << ",\"shim_delayed\":"
         << (party.shim ? party.shim->delayed() : 0)
         << ",\"last_seq_seen\":" << seqs.str() << "}";
    link_jsonl_.push_back(line.str());
  }

  exec_stats_ = obs::ExecStats{};
  exec_stats_.workers = local_count;
  return completed;
}

std::uint64_t SocketNetwork::total_unacked() const {
  std::uint64_t total = 0;
  for (ProcessId p = 0; p < params_.n; ++p) {
    total += unacked_now_[p].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::string> SocketNetwork::link_state_jsonl() const {
  return link_jsonl_;
}

netio::LinkStats SocketNetwork::link_totals() const { return link_totals_; }

}  // namespace apxa::rt
