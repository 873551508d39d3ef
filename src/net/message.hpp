// Network message envelope and the packet buffer it carries.
//
// A Message is what travels between parties: an opaque serialized payload
// plus routing metadata.  The simulator assigns each message a global
// sequence number (deterministic tie-breaking) and a virtual send time.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <new>
#include <utility>

#include "common/bytes.hpp"
#include "common/ids.hpp"

namespace apxa::net {

/// An immutable, reference-counted packet buffer.  One allocation holds the
/// count and the bytes, and copies share it, so a multicast to n - 1
/// receivers costs one buffer, not n - 1.  The count is atomic because
/// copies cross threads on the threaded and socket transports.  An empty
/// payload holds no buffer.
class Payload {
 public:
  Payload() noexcept = default;
  /// Copies `bytes` into a fresh buffer (one allocation).
  explicit Payload(BytesView bytes)
      : Payload(build(bytes.size(), [bytes](std::byte* out) {
          std::copy(bytes.begin(), bytes.end(), out);
        })) {}

  /// A fresh `size`-byte buffer written once by `fill(out)`.
  template <class Fill>
  static Payload build(std::size_t size, Fill&& fill) {
    Payload p;
    if (size == 0) return p;
    APXA_ENSURE(size <= UINT32_MAX, "payload exceeds 4 GiB");
    p.block_ = new (::operator new(sizeof(Block) + size))
        Block{{1}, static_cast<std::uint32_t>(size)};
    fill(p.block_->data());
    return p;
  }

  Payload(const Payload& o) noexcept : block_(o.block_) {
    if (block_) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& o) noexcept : block_(std::exchange(o.block_, nullptr)) {}
  Payload& operator=(Payload o) noexcept {
    std::swap(block_, o.block_);
    return *this;
  }
  ~Payload() {
    // acq_rel: the last owner's free happens after every other owner's reads.
    if (block_ && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      block_->~Block();
      ::operator delete(block_);
    }
  }

  [[nodiscard]] BytesView view() const noexcept {
    return block_ ? BytesView(block_->data(), block_->size) : BytesView{};
  }
  /// Implicit, so a Payload passes wherever a packet view is read.
  operator BytesView() const noexcept { return view(); }
  [[nodiscard]] std::size_t size() const noexcept { return block_ ? block_->size : 0; }
  [[nodiscard]] bool empty() const noexcept { return block_ == nullptr; }

 private:
  struct Block {
    std::atomic<std::uint32_t> refs;
    std::uint32_t size;
    std::byte* data() noexcept { return reinterpret_cast<std::byte*>(this + 1); }
  };
  Block* block_ = nullptr;
};

struct Message {
  std::uint64_t seq = 0;     ///< global send order, unique per simulation
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  double send_time = 0.0;    ///< virtual time at which send() was called
  Payload payload;

  [[nodiscard]] std::size_t payload_bytes() const { return payload.size(); }
};

}  // namespace apxa::net
