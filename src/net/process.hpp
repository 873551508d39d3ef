// Protocol process interface.
//
// Protocol logic is written as an event-driven state machine against this
// interface, independent of the transport that runs it.  The same Process
// objects run on the deterministic simulator (net::SimNetwork), the
// threaded runtime (rt::ThreadNetwork) and the socket runtime
// (rt::SocketNetwork).
//
// Conventions:
//  - multicast(payload) sends to every *other* party; a process accounts for
//    its own contribution locally (the classic "n - t values including your
//    own" rule is implemented inside the protocols).
//  - output() becomes non-empty at most once and never changes afterwards.
//    Vector-valued protocols decide through vector_output() instead; the two
//    are linked by has_output(), which transports use for completion checks
//    so scalar and vector protocols run on the same engines.
//  - Byzantine parties are ordinary Process implementations that misbehave;
//    per-receiver send() already gives them full equivocation power.
//  - Own-upcall contract: a process's state — and with it has_output() and
//    any completion probe a transport runs on it — changes only inside its
//    own on_start / on_message upcalls, never from another party's upcall or
//    from outside.  Every transport relies on it through net::Inbox, which
//    after each upcall re-checks only the party it ran (capturing its output
//    time once, latching its done flag) and reads outputs after the run.
//    Processes must not share mutable protocol state with each other.
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "net/message.hpp"

namespace apxa::net {

/// Transport handle given to a process on every upcall.
class Context {
 public:
  virtual ~Context() = default;

  /// Send payload to one party.  Sending to self is a usage error; protocols
  /// consume their own values directly.
  virtual void send(ProcessId to, Payload payload) = 0;

  /// Send payload to every other party (n - 1 point-to-point messages).  The
  /// receivers share the one buffer.
  virtual void multicast(Payload payload) = 0;

  /// The same sends from encoded bytes: one copy into a shared buffer.
  void send(ProcessId to, BytesView payload) { send(to, Payload(payload)); }
  void multicast(BytesView payload) { multicast(Payload(payload)); }

  [[nodiscard]] virtual ProcessId self() const = 0;
  [[nodiscard]] virtual SystemParams params() const = 0;
};

class Process {
 public:
  virtual ~Process() = default;

  /// Called once, before any message delivery.
  virtual void on_start(Context& ctx) = 0;

  /// Called for each delivered message.
  virtual void on_message(Context& ctx, ProcessId from, BytesView payload) = 0;

  /// Protocol output, if decided.  Remains stable once set.  Vector-valued
  /// protocols leave this empty and decide through vector_output().
  [[nodiscard]] virtual std::optional<double> output() const { return std::nullopt; }

  /// True when the protocol has decided (scalar or vector).  Transports use
  /// this — not output() — for completion checks, so it must stay allocation
  /// free; override it alongside vector_output().
  [[nodiscard]] virtual bool has_output() const { return output().has_value(); }

  /// Vector-valued protocol output.  The default adapts a scalar decision to
  /// a 1-vector, so every deciding process — scalar or vector — exposes its
  /// result here and backends collect outputs uniformly.
  [[nodiscard]] virtual std::optional<std::vector<double>> vector_output() const {
    if (const auto y = output()) return std::vector<double>{*y};
    return std::nullopt;
  }
};

}  // namespace apxa::net
