#include "net/outbox.hpp"

#include <span>
#include <utility>

#include "common/ensure.hpp"
#include "net/envelope.hpp"

namespace apxa::net {

namespace {

/// encode_batch into one Payload buffer, reading the frames as views.
Payload encode_batch_payload(std::span<const Payload> frames) {
  return Payload::build(detail::batch_size(frames), [frames](std::byte* out) {
    detail::write_batch(frames, out);
  });
}

}  // namespace

Outbox::Outbox(SystemParams params, Wire wire)
    : params_(params),
      wire_(std::move(wire)),
      crashed_(params.n),
      send_limit_(params.n, kNoLimit),
      multicast_order_(params.n),
      slots_(params.n) {}

void Outbox::crash(ProcessId p) {
  if (!crashed_[p].exchange(true, std::memory_order_relaxed) && crash_listener_) {
    crash_listener_();
  }
}

void Outbox::crash_after_sends(ProcessId p, std::uint64_t count) {
  APXA_ENSURE(p < params_.n, "crash id out of range");
  send_limit_[p] = count;
  if (slots_[p].sends_made >= count) crash(p);
}

void Outbox::set_multicast_order(ProcessId p, std::vector<ProcessId> order) {
  APXA_ENSURE(p < params_.n, "multicast order id out of range");
  for (ProcessId q : order) {
    APXA_ENSURE(q < params_.n && q != p, "multicast order must list other parties");
  }
  multicast_order_[p] = std::move(order);
}

void Outbox::enable_batching(std::uint32_t max_frames) {
  APXA_ENSURE(max_frames >= 1 && max_frames <= kMaxBatchFrames,
              "batch cap must be in [1, kMaxBatchFrames]");
  max_batch_ = max_frames;
  for (Slot& s : slots_) s.batch.assign(params_.n, {});
}

void Outbox::drop(ProcessId from, ProcessId to) {
  ++slots_[from].m.messages_dropped;
  if (trace_) trace_->record(obs::EventKind::kDrop, from, to, -1, 0.0, now());
}

void Outbox::note_crash(ProcessId p) {
  crash(p);
  if (trace_) {
    trace_->record(obs::EventKind::kCrash, p, p, -1,
                   static_cast<double>(slots_[p].sends_made), now());
  }
}

void Outbox::send(ProcessId from, ProcessId to, Payload frame) {
  if (crashed(from)) {
    // Every send attempted by an already-crashed party counts as dropped.
    drop(from, to);
    return;
  }
  Slot& slot = slots_[from];
  if (slot.sends_made >= send_limit_[from]) {
    // The crash fires exactly at this send: the message is lost.
    note_crash(from);
    drop(from, to);
    return;
  }
  ++slot.sends_made;

  // Batching buffers the LOGICAL frame per destination; the crash accounting
  // above already happened, so a crash firing on a later frame of the same
  // multicast still lets this one flush.  Frames that are themselves batch
  // packets (byzantine forgeries) never nest — they go out as their own
  // packet and the receiver's total decoders reject them.
  if (max_batch_ > 0 && !frame.empty() && !detail::is_batch(frame)) {
    auto& buf = slot.batch[to];
    buf.push_back(std::move(frame));
    if (buf.size() >= max_batch_) {
      Payload packet = encode_batch_payload(buf);
      buf.clear();
      put(from, to, std::move(packet));
    }
  } else {
    put(from, to, std::move(frame));
  }

  // A budget that lands exactly on the new count takes effect now, so a
  // multicast in progress stops at this receiver.
  if (slot.sends_made >= send_limit_[from]) note_crash(from);
}

void Outbox::multicast(ProcessId from, const Payload& payload) {
  if (!multicast_order_[from].empty()) {
    for (ProcessId to : multicast_order_[from]) send(from, to, payload);
    return;
  }
  for (ProcessId to = 0; to < params_.n; ++to) {
    if (to != from) send(from, to, payload);
  }
}

void Outbox::flush(ProcessId from) {
  if (max_batch_ == 0) return;
  // Receiver-id order keeps flushes deterministic.  Pre-crash frames flush
  // even if `from` has since crashed: they were sent before the crash.
  for (ProcessId to = 0; to < params_.n; ++to) {
    auto& buf = slots_[from].batch[to];
    if (buf.empty()) continue;
    Payload packet = buf.size() == 1 ? std::move(buf.front()) : encode_batch_payload(buf);
    buf.clear();
    put(from, to, std::move(packet));
  }
}

void Outbox::put(ProcessId from, ProcessId to, Payload packet) {
  slots_[from].m.note_send(from, packet);
  if (trace_) {
    trace_->record(obs::EventKind::kSend, from, to, -1,
                   static_cast<double>(packet.size()), now());
  }
  wire_(from, to, std::move(packet));
}

Metrics Outbox::metrics() const {
  Metrics all;
  all.reset(params_.n);
  for (ProcessId p = 0; p < params_.n; ++p) {
    const Metrics& m = slots_[p].m;
    all.merge(m);
    all.sent_by[p] = m.messages_sent;
    all.bytes_by[p] = m.payload_bytes;
  }
  return all;
}

void OutboxContext::send(ProcessId to, Payload payload) {
  APXA_ENSURE(to < out_.params().n, "send: receiver out of range");
  APXA_ENSURE(to != self_, "send: no self-messages");
  out_.send(self_, to, std::move(payload));
}

}  // namespace apxa::net
