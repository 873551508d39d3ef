// netio — thin POSIX UDP socket wrapper.
//
// One non-blocking IPv4/UDP socket bound to the loopback interface.  The
// socket backend binds one per party: ephemeral ports (port 0) for the
// all-in-one-process backend path — no port conflicts, the OS picks — and
// fixed ports (base_port + party id) for the multi-OS-process deployment of
// examples/socket_party, where peers must be addressable without a
// rendezvous service.
//
// This is the only file in the library that talks to BSD sockets (and to
// the eventfd a stop wakes their waits with); everything above it (perfect
// link, fault shim, SocketNetwork) moves bytes through this interface, which
// is what keeps the retransmission logic testable without a network.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.hpp"

namespace apxa::netio {

/// The largest UDP payload over IPv4 (65,535 minus the 20-byte IP and 8-byte
/// UDP headers): the size cap of every datagram the backend sends — the
/// perfect link packs a DATA frame's packets up to it (PeerLink::frame_fit)
/// — and the receive-buffer size that holds any datagram it can receive.
/// A sendto of more fails with EMSGSIZE, every time.
inline constexpr std::size_t kMaxDatagram = 65'507;

/// Loopback UDP address: 127.0.0.1:port.
struct UdpAddress {
  std::uint16_t port = 0;
};

/// Socket calls one UdpSocket made: what the wire costs in syscalls.
struct WireCounts {
  std::uint64_t sends = 0;        ///< sendto calls (refused ones included)
  std::uint64_t recvs = 0;        ///< recvfrom calls, empty ones included
  std::uint64_t recvs_empty = 0;  ///< recvfrom calls that found nothing
  std::uint64_t waits = 0;        ///< ppoll calls
};

class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;

  /// Bind to 127.0.0.1:port (0 = ephemeral, the OS picks).  Throws
  /// std::invalid_argument on failure (port in use, no socket fd left).
  void bind(std::uint16_t port);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  /// Actual bound port (resolves ephemeral binds).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Fire-and-forget datagram to 127.0.0.1:to.port.  Returns false when the
  /// kernel refused (full buffers): UDP semantics, the link layer's
  /// retransmission recovers.
  bool send_to(const UdpAddress& to, BytesView datagram);

  /// Non-blocking receive of one datagram into `buf` (size it kMaxDatagram);
  /// returns the datagram's length, or nullopt when nothing is queued.
  /// `from` receives the sender's port.
  std::optional<std::size_t> recv_into(std::span<std::byte> buf,
                                       UdpAddress& from);

  /// Block until the socket is readable, `wake_fd` (a WakeFd's fd(); -1 =
  /// none) is readable, or `timeout_us` elapsed (0 = just poll), to the
  /// microsecond: sub-millisecond timer waits sleep rather than spin.
  /// Returns true when the socket is readable.
  bool wait_readable(std::uint32_t timeout_us, int wake_fd = -1);

  void close();

  /// Calls made so far; only the thread using the socket may read it.
  [[nodiscard]] const WireCounts& counts() const { return counts_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  WireCounts counts_;
};

/// A descriptor that becomes readable at signal() and stays readable (an
/// eventfd that is never read): waiters pass fd() to wait_readable, so one
/// signal cuts every current and later wait short.  SocketNetwork signals
/// it on stop, so its party threads join without waiting out a timer.
class WakeFd {
 public:
  /// Throws std::invalid_argument when no descriptor is left.
  WakeFd();
  ~WakeFd();
  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  /// Make fd() readable for good.  Any thread.
  void signal();
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

}  // namespace apxa::netio
