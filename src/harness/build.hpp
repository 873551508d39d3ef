// Scenario staging: turn a RunConfig or VectorRunConfig into backend,
// scheduler, processes and fault plan, and install them on the backend.
// Everything that does not depend on the value domain — fault-plan checks,
// byzantine ids, the backend factory, the staging tail — works on the
// shared RunConfigBase; only input checks, process construction and the
// scheduler's value probe differ per domain.
//
// Split out of the execution entry points so tests and custom drivers can
// stage a scenario on a hand-constructed backend (e.g. a simulator backend
// with duplication enabled through its network() escape hatch) and still share the exact
// process/fault construction the stock harness uses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "core/multidim.hpp"
#include "exec/backend.hpp"
#include "harness/scenario.hpp"
#include "sched/scheduler.hpp"

namespace apxa::harness {

/// Seats a caller-supplied process in place of a built one: called once per
/// party after the config's processes are built, and a non-null result
/// replaces that party's process (its byzantine mark and crash plan stay).
/// Test and fuzz drivers use it to seat attackers no config describes.
using ProcessSubstitute =
    std::function<std::unique_ptr<net::Process>(ProcessId)>;

/// Check the config's structural invariants (protocol kind, input shape,
/// fault budget, distinct in-range byzantine ids, no byz+crash overlap).
/// Throws std::invalid_argument.
void validate(const RunConfig& cfg);
void validate(const VectorRunConfig& cfg);

/// The byzantine party ids declared by the config.
std::set<ProcessId> byzantine_ids(const RunConfigBase& cfg);

/// The payload probe value-aware schedulers snoop with — the one part of the
/// transport setup that depends on the value domain: ROUND frames for scalar
/// runs, the first coordinate of vector-round and vector-RB frames (instance
/// == round) for vector runs.  Single instance envelopes are unwrapped before
/// probing, so multiplexed sessions stay value-aware.
sched::ProbeFn value_probe(const RunConfig& cfg);
sched::ProbeFn value_probe(const VectorRunConfig& cfg);

/// The message scheduler the config asks for (simulator backends only).
std::unique_ptr<sched::Scheduler> make_scheduler(const RunConfig& cfg);
std::unique_ptr<sched::Scheduler> make_scheduler(const VectorRunConfig& cfg);

/// The transport cfg.backend names: the simulator runs the config's scheduler
/// over `probe`, the socket runtime injects cfg.socket_faults, and the
/// threaded runtime uses `shards` executor workers (0 = its default).
std::unique_ptr<exec::Backend> make_backend(const RunConfigBase& cfg,
                                            sched::ProbeFn probe,
                                            std::uint32_t shards = 0);

/// The run budgets the config sets (delivery cap, wall-clock timeout).
exec::ExecOptions exec_options(const RunConfigBase& cfg);

/// Build all n protocol/attacker processes in id order.  `trace` observes
/// honest parties' per-round values; under a threaded backend it is invoked
/// concurrently from several worker threads, so it must be thread-safe.
std::vector<std::unique_ptr<net::Process>> build_processes(const RunConfig& cfg,
                                                           const core::TraceFn& trace);
/// Vector runs: `trace` observes per-round vectors, and `view_trace`
/// additionally observes honest parties' frozen views (core::ViewTraceFn) —
/// the harness measures view overlap from it.  Same thread-safety contract.
std::vector<std::unique_ptr<net::Process>> build_processes(
    const VectorRunConfig& cfg, const core::VecTraceFn& trace,
    const core::ViewTraceFn& view_trace = {});

/// Validate, build the processes (applying `substitute`), register them and
/// install the fault plan (byzantine marks, crash send budgets, multicast
/// orders) on the backend.
void stage(const RunConfig& cfg, const core::TraceFn& trace,
           exec::Backend& backend, const ProcessSubstitute& substitute = {});
void stage(const VectorRunConfig& cfg, const core::VecTraceFn& trace,
           exec::Backend& backend, const core::ViewTraceFn& view_trace = {});

/// The completion probe for a scalar config's termination mode: "has output"
/// for outputting modes, "reached the round/iteration horizon" for kLive.
/// Vector protocols decide through the process interface's vector side, so
/// the default "has output" probe covers them.
net::DoneProbe make_done_predicate(const RunConfig& cfg);

}  // namespace apxa::harness
