// Message-delay schedulers: the adversary's handle on asynchrony.
//
// The asynchronous model lets the adversary delay every message arbitrarily,
// subject to eventual delivery.  Latency is normalized so the maximum delay
// between correct parties is Delta = 1.0; a scheduler therefore assigns each
// message a delay in (0, 1].  Different Scheduler implementations realize
// different adversary strategies (random, FIFO-ish, value-aware split-brain,
// targeted biases).  The worst case over *all* schedules is computed exactly,
// without simulation, by analysis/worst_case.*; the schedulers here exist to
// drive end-to-end executions and to show how close simple adversaries get to
// that bound.
#pragma once

#include <functional>
#include <optional>

#include "common/ids.hpp"
#include "net/message.hpp"

namespace apxa::sched {

/// Decoded view of a protocol value-exchange message, for value-aware
/// (adaptive) adversaries.  Produced by a probe supplied by the harness that
/// knows the protocol's codec; empty when the payload is not a value message.
struct ValueProbe {
  Round round = 0;
  double value = 0.0;
};

using ProbeFn = std::function<std::optional<ValueProbe>(BytesView)>;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Delay, in (0, 1], to apply to this message.  Called exactly once per
  /// message at send time.
  virtual double delay(const net::Message& m) = 0;

  /// Observation hook, called when a message is delivered.
  virtual void on_deliver(const net::Message& m) { (void)m; }
};

/// Clamp helper shared by implementations: keeps delays legal, in
/// [1e-9, 1]; NaN maps to Delta = 1.
double clamp_delay(double d);

}  // namespace apxa::sched
