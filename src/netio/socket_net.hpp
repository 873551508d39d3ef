// Real-network UDP runtime: the same Process objects, real sockets.
//
// Third transport next to the deterministic simulator (net::SimNetwork) and
// the in-process threaded runtime (rt::ThreadNetwork): every party runs as a
// thread that owns ONE loopback UDP socket and speaks to each peer through a
// retransmit+ack perfect link (netio/link.hpp), so the protocol state
// machines execute against genuine packet loss, duplication-at-the-wire,
// reordering and OS scheduling — the asynchronous message-passing model the
// paper assumes, realized by an actual network stack instead of a scheduler
// abstraction.  Seated behind exec::TransportBackend, every existing
// ProtocolKind x scheduler x adversary scenario runs unchanged over sockets
// (the simulator-only scheduler/seed knobs are ignored, as on the threaded
// runtime).
//
// Topology modes:
//   all-local  (the backend path) — all n parties are threads in this
//     process, sockets bound to ephemeral loopback ports; the port table is
//     assembled after binding, so concurrent runs never collide.
//   multi-process (examples/socket_party) — fixed ports base_port + id; only
//     some parties are local (set_party_remote + add_process_at), the rest
//     are reachable addresses.  Completion waits on LOCAL correct parties
//     only, and a linger window keeps the link layer retransmitting after
//     the local decision so slower peers still converge.
//
// Sends go through net::Outbox, the send path all transports share.  Its
// wire here puts each packet on a per-peer queue of the sending party (a
// reference to the packet's buffer, not a copy); the party's loop flushes
// the queues after each pass of deliveries and after on_start, and each
// non-empty queue leaves as ONE perfect-link DATA frame — more only when
// the frame would exceed netio::kMaxDatagram.  So one loop pass sends one
// DATA datagram per peer, however many instances and batch packets it
// advanced.
// Backpressure holds per frame: a frame waits for room in its link's resend
// queue, pumping the socket meanwhile.  Deliveries, output times (wall
// seconds since run()) and done latches go through net::Inbox, the receive
// path all transports share, which takes a received frame's packets one by
// one as views into the frame; a remote party is a slot with no process.
// A deterministic loss/reorder/delay shim (netio/fault.hpp) at the socket
// boundary makes retransmission paths CI-testable: fault decisions are a
// pure function of the seed, while the perfect link restores eventual
// delivery above them.
//
// Tracing: kSend and kDeliver per packet (in the Outbox and Inbox), kDrop
// and kRetransmit per datagram (here).
//
// Metrics: each party's socket thread writes only that party's Outbox slot.
// Retransmissions count only in packets_retransmitted (every packet of a
// resent frame) and retransmit_bytes (its datagram), so messages_sent and
// msgs_per_packet stay batching- and loss-invariant.
// Delivery latency is real wall clock (the link stamps each DATA frame),
// recorded into the per-tag histogram scaled by kSocketLatencySpan (the
// full histogram range spans that many seconds).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "net/inbox.hpp"
#include "net/metrics.hpp"
#include "net/outbox.hpp"
#include "net/process.hpp"
#include "netio/fault.hpp"
#include "netio/link.hpp"
#include "netio/udp.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace apxa::rt {

/// Seconds spanned by the full delivery-latency histogram on this transport:
/// 32 buckets over 32 ms = 1 ms resolution, sized for loopback RTTs plus
/// injected delays.  Quantiles from net::Metrics::latency_quantile are in
/// units of this span (multiply by kSocketLatencySpan * 1e3 for ms).
inline constexpr double kSocketLatencySpan = 0.032;

class SocketNetwork final {
 public:
  explicit SocketNetwork(SystemParams params);
  ~SocketNetwork();

  SocketNetwork(const SocketNetwork&) = delete;
  SocketNetwork& operator=(const SocketNetwork&) = delete;

  /// Register party `id == number added so far` (all-local mode).
  void add_process(std::unique_ptr<net::Process> p);
  /// Register a specific local party (multi-process mode; pair with
  /// set_party_remote for the peers this OS process does not host).
  void add_process_at(ProcessId id, std::unique_ptr<net::Process> p);
  /// Declare `p` hosted by another OS process at base_port + p (requires
  /// set_fixed_ports).  Must precede run().
  void set_party_remote(ProcessId p);

  /// Mark a party crashed: future sends and deliveries drop.  Safe while
  /// running.
  void crash(ProcessId p);
  /// Crash `p` immediately before its (count+1)-th logical send (see
  /// net::Outbox).  Must precede run().
  void crash_after_sends(ProcessId p, std::uint64_t count);
  /// Receiver order used by p's multicasts.  Must precede run().
  void set_multicast_order(ProcessId p, std::vector<ProcessId> order);
  /// Bookkeeping (see net::Inbox).  Must precede run().
  void mark_byzantine(ProcessId p);
  /// Per-destination send batching (net::Outbox).  Must precede run().
  void enable_batching(std::uint32_t max_frames);
  /// Trace sink (null disables; the default).  Link-layer send / deliver /
  /// drop / retransmit events are recorded from the party threads.  Must
  /// precede run().
  void set_trace(obs::TraceSink* sink);

  /// Deterministic loss/reorder/delay injection at the socket boundary.
  /// Must precede run().
  void set_fault_config(const netio::FaultConfig& cfg);
  /// Perfect-link tuning (retransmission timeouts, queue bound).  Must
  /// precede run().
  void set_link_config(const netio::LinkConfig& cfg);
  /// Fixed port table: party p binds (or is reached at) 127.0.0.1:base + p.
  /// Default is ephemeral ports, all-local only.  Must precede run().
  void set_fixed_ports(std::uint16_t base_port);
  /// Keep servicing the link layer (acks, retransmits) this long after the
  /// local completion predicate holds — multi-process mode, where remote
  /// peers may still need our retransmissions.  Default 0.
  void set_linger(std::chrono::milliseconds linger);

  /// Bind sockets, start one thread per local party, wait until every local
  /// correct party satisfies `done` (evaluated by the party's own socket
  /// thread between deliveries; empty = "has produced an output") or the
  /// timeout elapses; service the linger window; stop and join.  Returns
  /// true when all local correct parties completed.
  bool run(std::chrono::milliseconds timeout, net::DoneProbe done = {});

  /// The party table; remote parties are slots with no process.  Output
  /// times are wall seconds since run() started.  Read it once run()
  /// returned.
  [[nodiscard]] const net::Inbox& inbox() const { return inbox_; }
  /// The per-party metrics slots merged; call once run() returned.
  [[nodiscard]] net::Metrics metrics() const { return outbox_.metrics(); }
  [[nodiscard]] SystemParams params() const { return params_; }
  /// One worker thread per local party.
  [[nodiscard]] obs::ExecStats exec_stats() const { return exec_stats_; }

  /// Per-local-party link-layer state as JSONL lines (unacked queue depth,
  /// last sequence seen per peer, retransmit/duplicate counters, socket
  /// calls) — the flight-recorder payload for failed verdicts on this
  /// backend.  Valid after run() returned.
  [[nodiscard]] std::vector<std::string> link_state_jsonl() const;
  /// Aggregated link counters over every local party.  Valid after run().
  [[nodiscard]] netio::LinkStats link_totals() const;

 private:
  struct DelayedDatagram {
    ProcessId to = 0;
    Bytes dgram;
    std::chrono::steady_clock::time_point release;
  };

  /// Everything one party's socket thread owns exclusively.
  struct Party {
    bool remote = false;
    bool started = false;
    netio::UdpSocket sock;
    std::vector<netio::PeerLink> links;  // by peer id; self entry unused
    /// Packets the Outbox put on the wire this pass, by peer id; flush_sends
    /// frames them.
    std::vector<std::vector<net::Payload>> outq;
    std::unique_ptr<netio::FaultShim> shim;
    std::deque<DelayedDatagram> delayed;  // shim-held outgoing datagrams
    /// Frames received by pump_socket, delivered by drain_pending, so
    /// protocol upcalls never nest.
    std::deque<std::pair<ProcessId, netio::Delivered>> pending;
    // Buffers reused by every pump, flush and timer pass (allocated once).
    Bytes rx;                              // netio::kMaxDatagram bytes
    std::vector<netio::Delivered> got;     // one datagram's deliveries
    std::vector<BytesView> views;          // one queue's packets
    std::vector<Bytes> resends;            // one link's due retransmits
  };

  void party_loop(ProcessId p, std::stop_token st);
  /// Frame each non-empty send queue of `p` as DATA frames to its peer and
  /// emit them, waiting per frame for room in the link's resend queue.
  void flush_sends(ProcessId p, const std::stop_token& st);
  /// Shim verdict + socket write for one encoded link datagram.
  void emit_datagram(ProcessId from, ProcessId to, Bytes dgram,
                     std::chrono::steady_clock::time_point now);
  /// Drain the socket; acks are consumed inline, DATA frames queue as
  /// pending.
  void pump_socket(ProcessId p, std::uint32_t wait_us);
  void drain_pending(ProcessId p, const std::stop_token& st);
  void service_timers(ProcessId p);
  [[nodiscard]] std::uint64_t total_unacked() const;

  SystemParams params_;
  std::vector<Party> parties_;
  std::vector<netio::UdpAddress> addr_;            // filled at run()
  std::unordered_map<std::uint16_t, ProcessId> port_to_id_;
  netio::FaultConfig fault_cfg_;
  netio::LinkConfig link_cfg_;
  std::uint16_t base_port_ = 0;                    // 0 = ephemeral
  std::chrono::milliseconds linger_{0};

  net::Outbox outbox_;
  net::Inbox inbox_;
  std::vector<std::atomic<std::uint64_t>> unacked_now_;  // per local party
  /// Signalled right after request_stop(); in every party's ppoll set.
  /// Declared before threads_, so it closes only after they joined.
  netio::WakeFd stop_wake_;
  std::vector<std::jthread> threads_;
  std::atomic<bool> started_{false};
  obs::TraceSink* trace_ = nullptr;
  obs::ExecStats exec_stats_;
  std::vector<std::string> link_jsonl_;   // snapshot taken at end of run()
  netio::LinkStats link_totals_;
};

}  // namespace apxa::rt
