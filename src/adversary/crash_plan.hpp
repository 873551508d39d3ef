// Crash-fault injection plans.
//
// A crash fault stops a party permanently; if it strikes mid-multicast, only
// the receivers already sent to get the message (the "partial multicast" that
// makes crash faults strictly harder than clean stops).  Plans are expressed
// in terms the simulator enforces: a send-count budget and, optionally, a
// multicast receiver order so the adversary chooses *which* subset survives.
#pragma once

#include <vector>

#include "common/ensure.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"

namespace apxa::adversary {

struct CrashSpec {
  ProcessId who = kNoProcess;
  /// The party's k-th send (0-based count reached) is the first to be lost.
  std::uint64_t after_sends = 0;
  /// Optional multicast receiver order (empty = id order).
  std::vector<ProcessId> multicast_order;
};

/// Install the specs on any transport exposing params() /
/// set_multicast_order() / crash_after_sends() — net::SimNetwork,
/// rt::ThreadNetwork, or an exec::Backend — before it starts running.
/// Single definition so every entry point gets identical crash semantics.
template <class Transport>
void install(Transport& net, const std::vector<CrashSpec>& specs) {
  for (const CrashSpec& s : specs) {
    APXA_ENSURE(s.who < net.params().n, "crash victim out of range");
    if (!s.multicast_order.empty()) {
      net.set_multicast_order(s.who, s.multicast_order);
    }
    net.crash_after_sends(s.who, s.after_sends);
  }
}

/// `count` random crash victims (distinct, chosen from [0, n)), each crashing
/// at a uniformly random point within its first `rounds` multicasts.
std::vector<CrashSpec> random_crashes(Rng& rng, SystemParams params,
                                      std::uint32_t count, Round rounds);

/// A targeted plan: party `who` completes `full_rounds` multicasts, then its
/// next multicast reaches exactly `survivors` (in that order) before the
/// crash.  This is the classic "split the audience" crash.
CrashSpec partial_multicast_crash(SystemParams params, ProcessId who,
                                  Round full_rounds,
                                  std::vector<ProcessId> survivors);

}  // namespace apxa::adversary
