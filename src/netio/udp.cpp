#include "netio/udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>

#include "common/ensure.hpp"

namespace apxa::netio {

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

UdpSocket::~UdpSocket() { close(); }

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)),
      counts_(std::exchange(other.counts_, {})) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
    counts_ = std::exchange(other.counts_, {});
  }
  return *this;
}

void UdpSocket::bind(std::uint16_t port) {
  APXA_ENSURE(fd_ < 0, "socket already bound");
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  APXA_ENSURE(fd_ >= 0, "socket() failed");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    close();
    APXA_ENSURE(false, "could not set O_NONBLOCK");
  }
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    close();
    APXA_ENSURE(false, std::string("bind(127.0.0.1:") + std::to_string(port) +
                           ") failed: " + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    close();
    APXA_ENSURE(false, "getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);
}

bool UdpSocket::send_to(const UdpAddress& to, BytesView datagram) {
  APXA_ENSURE(fd_ >= 0, "send on unbound socket");
  const sockaddr_in addr = loopback_addr(to.port);
  ++counts_.sends;
  const ssize_t sent =
      ::sendto(fd_, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  return sent == static_cast<ssize_t>(datagram.size());
}

std::optional<std::size_t> UdpSocket::recv_into(std::span<std::byte> buf,
                                                 UdpAddress& from) {
  APXA_ENSURE(fd_ >= 0, "recv on unbound socket");
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  ++counts_.recvs;
  const ssize_t got = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                                 reinterpret_cast<sockaddr*>(&addr), &len);
  if (got < 0) {  // EWOULDBLOCK or transient error
    ++counts_.recvs_empty;
    return std::nullopt;
  }
  from.port = ntohs(addr.sin_port);
  return static_cast<std::size_t>(got);
}

bool UdpSocket::wait_readable(std::uint32_t timeout_us, int wake_fd) {
  APXA_ENSURE(fd_ >= 0, "wait on unbound socket");
  // ppoll ignores an entry whose fd is negative.
  pollfd pfd[2]{{fd_, POLLIN, 0}, {wake_fd, POLLIN, 0}};
  // ppoll() takes a timespec: the retransmit timers run at tens of
  // microseconds, which poll()'s millisecond timeout would round to 0 (a
  // busy spin).
  const timespec timeout{static_cast<time_t>(timeout_us / 1'000'000),
                         static_cast<long>(timeout_us % 1'000'000) * 1'000};
  ++counts_.waits;
  const int rc = ::ppoll(pfd, 2, &timeout, nullptr);
  return rc > 0 && (pfd[0].revents & POLLIN) != 0;
}

void UdpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    port_ = 0;
  }
}

WakeFd::WakeFd() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  APXA_ENSURE(fd_ >= 0, "eventfd() failed");
}

WakeFd::~WakeFd() { ::close(fd_); }

void WakeFd::signal() {
  const std::uint64_t one = 1;
  // Cannot fail short of counter overflow, which would take 2^64 - 1 signals.
  [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
}

}  // namespace apxa::netio
