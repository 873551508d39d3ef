// Parallel simulator bit-identity: the SAME configuration run with
// sim_workers > 1 must produce reports BYTE-identical to the serial
// simulator — every verdict, metric counter, trace-derived spread and
// finish time, not merely the same invariants.  This is the contract that
// makes within-run parallelism (net::SimNetwork::run_until_done) safe to
// enable by default in benchmarks: staged sends are replayed through the
// serial commit walk in event order, so the scheduler, the crash-budget
// machine and the duplication RNG observe exactly the serial call sequence.
//
// Runs in the TSan lane (name matched by the CI regex) — the staging
// buffers, the crew barrier and the deferred side effects are exactly the
// code paths a data race would corrupt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "adversary/byzantine.hpp"
#include "adversary/crash_plan.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"
#include "harness/session.hpp"
#include "net/sim.hpp"
#include "obs/trace.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa::harness {
namespace {

// --- exact-equality comparators ---------------------------------------------
//
// EXPECT_EQ on doubles (not EXPECT_DOUBLE_EQ): bit-identity is the claim, so
// even a 1-ulp drift is a bug.

void expect_metrics_eq(const net::Metrics& a, const net::Metrics& b) {
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.sent_by, b.sent_by);
  EXPECT_EQ(a.bytes_by, b.bytes_by);
  EXPECT_EQ(a.sent_by_tag, b.sent_by_tag);
  EXPECT_EQ(a.sent_by_round, b.sent_by_round);
  EXPECT_EQ(a.sent_by_instance, b.sent_by_instance);
}

void expect_report_eq(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.all_output, b.all_output);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.validity_ok, b.validity_ok);
  EXPECT_EQ(a.worst_pair_gap, b.worst_pair_gap);
  EXPECT_EQ(a.agreement_ok, b.agreement_ok);
  EXPECT_EQ(a.finish_time, b.finish_time);
  expect_metrics_eq(a.metrics, b.metrics);
  EXPECT_EQ(a.spread_by_round, b.spread_by_round);
  EXPECT_EQ(a.max_round_reached, b.max_round_reached);
  EXPECT_EQ(a.round_factors, b.round_factors);
}

void expect_vector_report_eq(const VectorRunReport& a, const VectorRunReport& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.all_output, b.all_output);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.box_validity_ok, b.box_validity_ok);
  EXPECT_EQ(a.convex_validity_ok, b.convex_validity_ok);
  EXPECT_EQ(a.outputs_outside_hull, b.outputs_outside_hull);
  EXPECT_EQ(a.worst_linf_gap, b.worst_linf_gap);
  EXPECT_EQ(a.worst_l2_gap, b.worst_l2_gap);
  EXPECT_EQ(a.agreement_ok, b.agreement_ok);
  EXPECT_EQ(a.finish_time, b.finish_time);
  expect_metrics_eq(a.metrics, b.metrics);
  EXPECT_EQ(a.linf_spread_by_round, b.linf_spread_by_round);
  EXPECT_EQ(a.max_round_reached, b.max_round_reached);
  EXPECT_EQ(a.rounds_to_eps, b.rounds_to_eps);
  EXPECT_EQ(a.reached_eps, b.reached_eps);
  EXPECT_EQ(a.view_overlap_measured, b.view_overlap_measured);
  EXPECT_EQ(a.view_overlap_min, b.view_overlap_min);
  EXPECT_EQ(a.view_overlap_ok, b.view_overlap_ok);
  EXPECT_EQ(a.msgs_value, b.msgs_value);
  EXPECT_EQ(a.msgs_rb_send, b.msgs_rb_send);
  EXPECT_EQ(a.msgs_rb_echo, b.msgs_rb_echo);
  EXPECT_EQ(a.msgs_rb_ready, b.msgs_rb_ready);
  EXPECT_EQ(a.msgs_report, b.msgs_report);
}

constexpr SchedKind kAllScheds[] = {SchedKind::kRandom, SchedKind::kFifo,
                                    SchedKind::kGreedySplit, SchedKind::kTargeted,
                                    SchedKind::kClique};

const char* sched_name(SchedKind s) {
  switch (s) {
    case SchedKind::kRandom: return "random";
    case SchedKind::kFifo: return "fifo";
    case SchedKind::kGreedySplit: return "greedy_split";
    case SchedKind::kTargeted: return "targeted";
    case SchedKind::kClique: return "clique";
  }
  return "?";
}

// Tracing is part of the identity claim: the whole matrix runs with a
// TraceSink attached, and the parallel run's committed protocol-event
// stream (send/deliver/drop/crash/round-advance/view-freeze) must be
// bit-identical to the serial one, field by field.  Executor-domain events
// (step stage/commit) are timing-shaped by design and excluded — exactly
// the contract obs::protocol_events/protocol_digest encode.
void expect_trace_eq(const obs::TraceSink& a, const obs::TraceSink& b) {
  const auto ea = obs::protocol_events(a.snapshot());
  const auto eb = obs::protocol_events(b.snapshot());
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(ea[i].party, eb[i].party);
    EXPECT_EQ(ea[i].peer, eb[i].peer);
    EXPECT_EQ(ea[i].round, eb[i].round);
    EXPECT_EQ(ea[i].value, eb[i].value);
    EXPECT_EQ(ea[i].vtime, eb[i].vtime);
  }
  EXPECT_EQ(obs::protocol_digest(ea), obs::protocol_digest(eb));
}

void expect_parallel_matches_serial(RunConfig cfg) {
  cfg.backend = BackendKind::kSim;
  obs::TraceSink serial_trace;
  cfg.trace = &serial_trace;
  cfg.sim_workers = 1;
  const RunReport serial = run(cfg);
  obs::TraceSink parallel_trace;
  cfg.trace = &parallel_trace;
  cfg.sim_workers = 4;
  const RunReport parallel = run(cfg);
  expect_report_eq(serial, parallel);
  expect_trace_eq(serial_trace, parallel_trace);
}

void expect_parallel_matches_serial(VectorRunConfig cfg) {
  cfg.backend = BackendKind::kSim;
  obs::TraceSink serial_trace;
  cfg.trace = &serial_trace;
  cfg.sim_workers = 1;
  const VectorRunReport serial = run(cfg);
  obs::TraceSink parallel_trace;
  cfg.trace = &parallel_trace;
  cfg.sim_workers = 4;
  const VectorRunReport parallel = run(cfg);
  expect_vector_report_eq(serial, parallel);
  expect_trace_eq(serial_trace, parallel_trace);
}

// --- scalar protocol x scheduler matrix -------------------------------------

RunConfig crash_round_cfg(SchedKind sched) {
  const SystemParams p{5, 1};
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.fixed_rounds = 6;
  cfg.epsilon = 1e-2;
  cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  cfg.sched = sched;
  cfg.seed = 11;
  cfg.crashes = {adversary::partial_multicast_crash(p, 4, /*full_rounds=*/1,
                                                    {0, 1})};
  return cfg;
}

TEST(SimParallelIdentity, CrashRoundAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    expect_parallel_matches_serial(crash_round_cfg(sched));
  }
}

TEST(SimParallelIdentity, ByzRoundAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{6, 1};  // n > 5t for the DLPSW-async protocol
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kByzRound;
    cfg.fixed_rounds = 8;
    cfg.epsilon = 5e-2;
    cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
    cfg.sched = sched;
    cfg.seed = 13;
    adversary::ByzSpec b;
    b.who = 0;
    b.kind = adversary::ByzKind::kEquivocate;
    b.lo = -5.0;
    b.hi = 5.0;
    cfg.byz = {b};
    expect_parallel_matches_serial(cfg);
  }
}

TEST(SimParallelIdentity, WitnessAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{4, 1};  // n > 3t for the witness technique
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kWitness;
    cfg.fixed_rounds = 3;
    cfg.epsilon = 0.2;
    cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
    cfg.sched = sched;
    cfg.seed = 17;
    adversary::ByzSpec b;
    b.who = 3;
    b.kind = adversary::ByzKind::kSilent;
    cfg.byz = {b};
    expect_parallel_matches_serial(cfg);
  }
}

// --- vector protocol x scheduler matrix -------------------------------------

TEST(SimParallelIdentity, VectorCrashAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{5, 1};
    VectorRunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kVectorCrash;
    cfg.dim = 2;
    cfg.fixed_rounds = 8;
    cfg.epsilon = 1e-2;
    Rng rng(17);
    cfg.inputs = random_vector_inputs(rng, p.n, 2, 0.0, 1.0);
    cfg.sched = sched;
    cfg.seed = 19;
    cfg.crashes = {adversary::partial_multicast_crash(p, 4, /*full_rounds=*/1,
                                                      {0, 1})};
    expect_parallel_matches_serial(cfg);
  }
}

TEST(SimParallelIdentity, VectorByzAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{6, 1};
    VectorRunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kVectorByz;
    cfg.dim = 2;
    cfg.fixed_rounds = 8;
    cfg.epsilon = 5e-2;
    cfg.inputs = corner_split_inputs(p.n, 2, p.n / 2, 0.0, 1.0);
    cfg.sched = sched;
    cfg.seed = 23;
    adversary::ByzSpec b;
    b.who = 0;
    b.kind = adversary::ByzKind::kEquivocate;
    b.lo = -5.0;
    b.hi = 5.0;
    cfg.byz = {b};
    expect_parallel_matches_serial(cfg);
  }
}

TEST(SimParallelIdentity, VectorConvexAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{7, 1};  // n > 3t
    VectorRunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kVectorConvex;
    cfg.dim = 2;
    cfg.fixed_rounds = 6;
    cfg.epsilon = 1e-2;
    Rng rng(31);
    cfg.inputs = random_vector_inputs(rng, p.n, 2, -5.0, 5.0);
    cfg.sched = sched;
    cfg.seed = 29;
    adversary::ByzSpec b;
    b.who = 0;
    b.kind = adversary::ByzKind::kHullEscape;
    b.lo = -5.0;
    b.hi = 5.0;
    b.seed = 1;
    cfg.byz = {b};
    expect_parallel_matches_serial(cfg);
  }
}

TEST(SimParallelIdentity, VectorConvexRbAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{7, 1};  // n > 3t; Theta(n^3) traffic per round
    VectorRunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kVectorConvexRB;
    cfg.dim = 2;
    cfg.fixed_rounds = 4;
    cfg.epsilon = 1e-2;
    Rng rng(37);
    cfg.inputs = random_vector_inputs(rng, p.n, 2, -5.0, 5.0);
    cfg.sched = sched;
    cfg.seed = 37;
    expect_parallel_matches_serial(cfg);
  }
}

// --- harder-to-parallelize paths --------------------------------------------

TEST(SimParallelIdentity, BudgetExhaustionCutsAtTheSameDelivery) {
  // A budget that lands mid-run (and, for most step sizes, mid-step) must
  // leave identical partial state: the parallel path falls back to serial
  // per-event delivery whenever the remaining budget cannot cover a full
  // step, so the cut lands on exactly the serial delivery.
  for (const std::uint64_t budget : {37u, 138u, 517u}) {
    SCOPED_TRACE(budget);
    auto cfg = crash_round_cfg(SchedKind::kRandom);
    cfg.fixed_rounds = 50;  // never finishes inside the budget
    cfg.max_deliveries = budget;
    cfg.sim_workers = 1;
    const RunReport serial = run(cfg);
    cfg.sim_workers = 4;
    const RunReport parallel = run(cfg);
    EXPECT_EQ(serial.status, net::RunStatus::kBudgetExhausted);
    expect_report_eq(serial, parallel);
  }
}

TEST(SimParallelIdentity, DuplicationRngDrawsInSerialOrder) {
  // Link duplication draws one RNG sample per delivered frame; the commit
  // walk must replay do_send in event order so the parallel run consumes the
  // duplication stream exactly as the serial run does.
  const SystemParams p{5, 1};
  auto run_once = [&p](std::uint32_t workers) {
    net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(5));
    net.enable_duplication(0.5, 7);
    if (workers > 1) net.set_parallel_workers(workers);
    for (ProcessId i = 0; i < p.n; ++i) {
      net.add_process(std::make_unique<core::RoundAaProcess>(
          core::crash_aa_config(p, static_cast<double>(i), 4)));
    }
    net.start();
    const auto status = net.run_until_done({});
    EXPECT_EQ(status, net::RunStatus::kPredicateSatisfied);
    return std::pair{net.correct_outputs(), net.metrics().messages_delivered};
  };
  const auto serial = run_once(1);
  const auto parallel = run_once(4);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

TEST(SimParallelIdentity, MultiplexedSessionWithBatchingAndCrashes) {
  // The full service stack at once: K instances behind router processes,
  // per-destination batching, a session-level crash budget counted in
  // logical sends — every per-instance verdict and the session-wide
  // transport metrics must survive parallel execution bit-identically.
  auto session_report = [](std::uint32_t workers, obs::TraceSink* trace) {
    std::vector<RunConfig> cfgs;
    for (std::uint64_t k = 0; k < 6; ++k) {
      const SystemParams p{5, 1};
      RunConfig cfg;
      cfg.params = p;
      cfg.protocol = ProtocolKind::kCrashRound;
      cfg.fixed_rounds = 4 + (k % 3);
      cfg.epsilon = 1e-2;
      cfg.inputs = linear_inputs(p.n, 0.0, 1.0 + 0.25 * static_cast<double>(k));
      cfg.sched = SchedKind::kRandom;
      cfg.seed = 41;
      cfgs.push_back(cfg);
    }
    SessionOptions opts;
    opts.batching = 8;
    opts.force_multiplex = true;
    opts.sim_workers = workers;
    opts.trace = trace;
    adversary::CrashSpec s;
    s.who = 4;
    s.after_sends = 30;  // logical sends across all 6 instances
    opts.crashes = {s};
    return run_session(cfgs, opts);
  };
  obs::TraceSink serial_trace;
  obs::TraceSink parallel_trace;
  const SessionReport serial = session_report(1, &serial_trace);
  const SessionReport parallel = session_report(4, &parallel_trace);
  // The session path adds kInstanceFinish (router decides) and batched
  // kDeliver events to the stream; they must commit in serial order too.
  expect_trace_eq(serial_trace, parallel_trace);
  EXPECT_EQ(serial.status, parallel.status);
  EXPECT_EQ(serial.all_output, parallel.all_output);
  EXPECT_EQ(serial.finish_times, parallel.finish_times);
  EXPECT_EQ(serial.msgs_per_packet, parallel.msgs_per_packet);
  expect_metrics_eq(serial.metrics, parallel.metrics);
  ASSERT_EQ(serial.scalar_reports.size(), parallel.scalar_reports.size());
  for (std::size_t i = 0; i < serial.scalar_reports.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(serial.scalar_reports[i].has_value());
    ASSERT_TRUE(parallel.scalar_reports[i].has_value());
    expect_report_eq(*serial.scalar_reports[i], *parallel.scalar_reports[i]);
  }
}

TEST(SimParallelIdentity, ManyWorkerCountsAgree) {
  // Worker count must be performance-only: 2, 3 and 8 workers (more than
  // there are parties) all reproduce the serial run.
  auto cfg = crash_round_cfg(SchedKind::kFifo);
  cfg.sim_workers = 1;
  const RunReport serial = run(cfg);
  for (const std::uint32_t workers : {2u, 3u, 8u}) {
    SCOPED_TRACE(workers);
    cfg.sim_workers = workers;
    expect_report_eq(serial, run(cfg));
  }
}

// --- configuration surface --------------------------------------------------

TEST(SimParallelConfig, ZeroWorkersIsRejectedNotClamped) {
  const SystemParams p{3, 0};
  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(1));
  EXPECT_THROW(net.set_parallel_workers(0), std::invalid_argument);
}

TEST(SimParallelConfig, ResolvedWorkersPrecedence) {
  // Explicit request wins over the environment; the environment fills in
  // only when the config leaves workers at 0; garbage and non-positive env
  // values fall back to serial rather than crashing the run.
  ASSERT_EQ(::unsetenv("APXA_SIM_WORKERS"), 0);
  EXPECT_EQ(net::resolved_sim_workers(0), 1u);
  EXPECT_EQ(net::resolved_sim_workers(6), 6u);
  ASSERT_EQ(::setenv("APXA_SIM_WORKERS", "3", 1), 0);
  EXPECT_EQ(net::resolved_sim_workers(0), 3u);
  EXPECT_EQ(net::resolved_sim_workers(2), 2u);
  for (const char* bad : {"0", "-4", "abc", "2x", ""}) {
    ASSERT_EQ(::setenv("APXA_SIM_WORKERS", bad, 1), 0);
    EXPECT_EQ(net::resolved_sim_workers(0), 1u) << '"' << bad << '"';
  }
  ASSERT_EQ(::unsetenv("APXA_SIM_WORKERS"), 0);
}

/// `instances` crash-round instances (n = 5, t = 1) for one session.
std::vector<RunConfig> crash_session(std::size_t instances) {
  std::vector<RunConfig> cfgs;
  for (std::size_t k = 0; k < instances; ++k) {
    const SystemParams p{5, 1};
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kCrashRound;
    cfg.fixed_rounds = 3 + (k % 3);
    cfg.epsilon = 1e-2;
    cfg.inputs = linear_inputs(p.n, 0.0, 1.0 + 0.1 * static_cast<double>(k));
    cfg.sched = SchedKind::kRandom;
    cfg.seed = 43;
    cfgs.push_back(cfg);
  }
  return cfgs;
}

TEST(SimParallelConfig, LargeSessionsDefaultToSerial) {
  // Sessions resolve sim_workers exactly like single runs: explicit request,
  // then APXA_SIM_WORKERS, then serial — however many instances they carry
  // (measured on svc_sim, the parallel default was slower with zero fanned
  // events).
  ASSERT_EQ(::unsetenv("APXA_SIM_WORKERS"), 0);
  const auto cfgs = crash_session(32);
  EXPECT_EQ(run_session(cfgs, SessionOptions{}).exec_stats.workers, 1u);
  ASSERT_EQ(::setenv("APXA_SIM_WORKERS", "2", 1), 0);
  EXPECT_EQ(run_session(cfgs, SessionOptions{}).exec_stats.workers, 2u);
  ASSERT_EQ(::unsetenv("APXA_SIM_WORKERS"), 0);
}

TEST(SimParallelIdentity, ExplicitWorkerSessionMatchesSerial) {
  // An explicit sim_workers keeps the parallel path for sessions, and it
  // reproduces the serial session bit-for-bit.
  ASSERT_EQ(::unsetenv("APXA_SIM_WORKERS"), 0);
  auto session_report = [](std::uint32_t workers) {
    SessionOptions opts;
    opts.batching = 8;
    opts.force_multiplex = true;
    opts.sim_workers = workers;
    return run_session(crash_session(16), opts);
  };
  const SessionReport serial = session_report(1);
  const SessionReport par = session_report(4);
  EXPECT_EQ(par.exec_stats.workers, 4u);
  EXPECT_EQ(serial.status, par.status);
  EXPECT_EQ(serial.all_output, par.all_output);
  EXPECT_EQ(serial.finish_times, par.finish_times);
  expect_metrics_eq(serial.metrics, par.metrics);
  ASSERT_EQ(serial.scalar_reports.size(), par.scalar_reports.size());
  for (std::size_t i = 0; i < serial.scalar_reports.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(serial.scalar_reports[i].has_value());
    ASSERT_TRUE(par.scalar_reports[i].has_value());
    expect_report_eq(*serial.scalar_reports[i], *par.scalar_reports[i]);
  }
}

}  // namespace
}  // namespace apxa::harness
