// obs — executor telemetry counters.
//
// ExecStats is the aggregate side of tracing: cheap per-worker counters the
// transports keep unconditionally (they are bumped on paths that already
// take a cache miss) and flatten into ExecResult after a run.  Every
// transport sets `workers` (the simulator's event loop is 1); only the thread
// backend's stealing executor fills the claim/steal/idle counters.  The
// struct lives in obs, below both transports, so net, runtime, exec and
// harness can all carry it without a layering cycle.
#pragma once

#include <cstdint>

namespace apxa::obs {

struct ExecStats {
  std::uint32_t workers = 0;       // worker threads (1 on the simulator)
  std::uint64_t claims = 0;        // parties popped off the worker's own shard
  std::uint64_t steals = 0;        // parties taken from another shard
  std::uint64_t parties_run = 0;   // run_party batches executed
  std::uint64_t idle_spins = 0;    // empty scans that ended in a timed wait
  // No transport fills these two; they stay 0 and exist only because the
  // end-to-end benchmark still reports them as net.sim_steps and
  // net.sim_fanned_events.
  std::uint64_t steps = 0;
  std::uint64_t fanned_events = 0;

  void merge(const ExecStats& o) {
    workers = workers > o.workers ? workers : o.workers;
    claims += o.claims;
    steals += o.steals;
    parties_run += o.parties_run;
    idle_spins += o.idle_spins;
    steps += o.steps;
    fanned_events += o.fanned_events;
  }
};

}  // namespace apxa::obs
