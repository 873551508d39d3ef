// Multi-instance AA-as-a-service: harness::Session semantics.
//
// What these tests pin down:
//  - a size-1 Session reaches the same outputs, traces and verdicts as plain
//    harness::run through the router path (only envelope bytes differ);
//  - the router path is deterministic: bit-identical across repeats, and
//    across instance registration order under a slot-order-free scheduler;
//  - batching changes packets, never logical counts or verdicts, and packs
//    >= 2 msgs/packet at service scale (the CI gate's invariant);
//  - session-level crash budgets count LOGICAL sends across instances;
//  - the multiplexing constraints are enforced.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "core/async_byz.hpp"
#include "harness/harness.hpp"
#include "harness/session.hpp"

namespace apxa::harness {
namespace {

/// rounds == 0 means "enough rounds to provably reach epsilon" (the tests
/// that assert agreement_ok use it; equality-only tests pick small counts).
RunConfig scalar_cfg(std::uint32_t n, std::uint32_t t, double lo, double hi,
                     Round rounds) {
  RunConfig cfg;
  cfg.params = {n, t};
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.mode = core::TerminationMode::kFixedRounds;
  cfg.epsilon = 1e-2;
  cfg.fixed_rounds = rounds > 0 ? rounds
                                : core::rounds_for_bound(hi - lo, cfg.epsilon,
                                                         core::Averager::kMean,
                                                         cfg.params);
  cfg.inputs = linear_inputs(n, lo, hi);
  cfg.sched = SchedKind::kRandom;
  cfg.seed = 42;
  return cfg;
}

VectorRunConfig vector_cfg(std::uint32_t n, std::uint32_t t, Round rounds) {
  VectorRunConfig cfg;
  cfg.params = {n, t};
  cfg.protocol = ProtocolKind::kVectorCrash;
  cfg.dim = 2;
  cfg.epsilon = 1e-2;
  cfg.fixed_rounds = rounds > 0 ? rounds
                                : core::rounds_for_bound(1.0, cfg.epsilon,
                                                         core::Averager::kMean,
                                                         cfg.params);
  cfg.inputs = corner_split_inputs(n, cfg.dim, n / 2, 0.0, 1.0);
  cfg.sched = SchedKind::kRandom;
  cfg.seed = 42;
  return cfg;
}

/// Full bitwise comparison of two scalar reports (verdicts, traces, logical
/// transport counters).
void expect_scalar_equal(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.all_output, b.all_output);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.validity_ok, b.validity_ok);
  EXPECT_EQ(a.worst_pair_gap, b.worst_pair_gap);
  EXPECT_EQ(a.agreement_ok, b.agreement_ok);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.spread_by_round, b.spread_by_round);
  EXPECT_EQ(a.round_factors, b.round_factors);
  EXPECT_EQ(a.max_round_reached, b.max_round_reached);
  EXPECT_EQ(a.metrics.messages_sent, b.metrics.messages_sent);
  EXPECT_EQ(a.metrics.packets_sent, b.metrics.packets_sent);
  EXPECT_EQ(a.metrics.payload_bytes, b.metrics.payload_bytes);
  EXPECT_EQ(a.metrics.sent_by, b.metrics.sent_by);
  EXPECT_EQ(a.metrics.sent_by_round, b.metrics.sent_by_round);
  EXPECT_EQ(a.metrics.sent_by_instance, b.metrics.sent_by_instance);
}

TEST(Session, SizeOneMatchesPlainRunVerbatim) {
  // One instance through the full router/envelope machinery: the scheduler
  // is payload-blind and the send sequence is unchanged, so outputs, traces
  // and timing must be bit-identical to the plain path — only wire bytes
  // (envelope framing) and per-instance attribution may differ.
  const RunConfig cfg = scalar_cfg(5, 1, 0.0, 1.0, 4);
  const RunReport plain = run(cfg);

  Session s;
  EXPECT_EQ(s.add(cfg), 0u);
  const SessionReport rep = s.run();
  ASSERT_EQ(rep.scalar_reports.size(), 1u);
  ASSERT_TRUE(rep.scalar_reports[0].has_value());
  ASSERT_FALSE(rep.vector_reports[0].has_value());
  const RunReport& r = *rep.scalar_reports[0];
  EXPECT_EQ(r.status, plain.status);
  EXPECT_EQ(r.all_output, plain.all_output);
  EXPECT_EQ(r.outputs, plain.outputs);
  EXPECT_EQ(r.validity_ok, plain.validity_ok);
  EXPECT_EQ(r.agreement_ok, plain.agreement_ok);
  EXPECT_EQ(r.worst_pair_gap, plain.worst_pair_gap);
  EXPECT_EQ(r.spread_by_round, plain.spread_by_round);
  EXPECT_EQ(r.round_factors, plain.round_factors);
  EXPECT_EQ(r.max_round_reached, plain.max_round_reached);
  EXPECT_EQ(r.finish_time, plain.finish_time);
  EXPECT_EQ(r.metrics.messages_sent, plain.metrics.messages_sent);
  EXPECT_EQ(r.metrics.packets_sent, plain.metrics.packets_sent);
  EXPECT_EQ(r.metrics.sent_by, plain.metrics.sent_by);
  EXPECT_EQ(r.metrics.sent_by_round, plain.metrics.sent_by_round);
  EXPECT_EQ(rep.all_output, plain.all_output);
  EXPECT_EQ(rep.finish_times, std::vector<double>{plain.finish_time});
  // Unbatched, every message is one packet: efficiency is exactly 1.
  EXPECT_EQ(rep.msgs_per_packet, 1.0);
  // Envelope framing costs wire bytes but no extra packets or messages.
  EXPECT_GT(r.metrics.payload_bytes, plain.metrics.payload_bytes);
  // All traffic was attributed to instance 0.
  ASSERT_EQ(r.metrics.sent_by_instance.size(), 1u);
  EXPECT_EQ(r.metrics.sent_by_instance[0], r.metrics.messages_sent);
}

TEST(Session, SizeOneVectorMatchesPlainRun) {
  const VectorRunConfig cfg = vector_cfg(5, 1, 4);
  const VectorRunReport plain = run(cfg);

  Session s;
  EXPECT_EQ(s.add(cfg), 0u);
  const SessionReport rep = s.run();
  ASSERT_TRUE(rep.vector_reports[0].has_value());
  const VectorRunReport& r = *rep.vector_reports[0];
  EXPECT_EQ(r.outputs, plain.outputs);
  EXPECT_EQ(r.box_validity_ok, plain.box_validity_ok);
  EXPECT_EQ(r.convex_validity_ok, plain.convex_validity_ok);
  EXPECT_EQ(r.agreement_ok, plain.agreement_ok);
  EXPECT_EQ(r.worst_linf_gap, plain.worst_linf_gap);
  EXPECT_EQ(r.linf_spread_by_round, plain.linf_spread_by_round);
  EXPECT_EQ(r.finish_time, plain.finish_time);
  EXPECT_EQ(r.metrics.messages_sent, plain.metrics.messages_sent);
}

TEST(Session, RepeatRunsBitIdentical) {
  // A heterogeneous batched multiplexed session replayed from scratch must
  // reproduce every per-instance report bitwise (simulator determinism
  // survives the router + batching layers).
  auto run_once = [] {
    SessionOptions opts;
    opts.batching = 8;
    Session s(opts);
    for (std::uint32_t i = 0; i < 6; ++i) {
      RunConfig cfg = scalar_cfg(5, 1, 0.1 * i, 1.0 + 0.3 * i, 3 + (i % 3));
      s.add(cfg);
    }
    return s.run();
  };
  const SessionReport a = run_once();
  const SessionReport b = run_once();
  EXPECT_EQ(a.finish_times, b.finish_times);
  EXPECT_EQ(a.metrics.messages_sent, b.metrics.messages_sent);
  EXPECT_EQ(a.metrics.packets_sent, b.metrics.packets_sent);
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(a.scalar_reports[i].has_value());
    ASSERT_TRUE(b.scalar_reports[i].has_value());
    expect_scalar_equal(*a.scalar_reports[i], *b.scalar_reports[i]);
  }
}

TEST(Session, InstanceOrderPermutationInvariant) {
  // Registration order must not leak into per-instance verdicts.  Under the
  // FIFO scheduler every message of virtual round k arrives at time k and
  // the within-instance arrival order is sender-id order regardless of which
  // router slot the instance occupies, so each instance's report is a
  // function of its config alone — bit-identical across permutations.
  std::vector<RunConfig> cfgs;
  for (std::uint32_t i = 0; i < 4; ++i) {
    RunConfig cfg = scalar_cfg(5, 1, 0.2 * i, 2.0 + 0.5 * i, 4);
    cfg.sched = SchedKind::kFifo;
    cfgs.push_back(cfg);
  }
  const SessionReport base = run_session(cfgs);

  const std::vector<std::size_t> perm{2, 0, 3, 1};
  std::vector<RunConfig> shuffled;
  for (std::size_t i : perm) shuffled.push_back(cfgs[i]);
  const SessionReport permuted = run_session(shuffled);

  for (std::size_t slot = 0; slot < perm.size(); ++slot) {
    ASSERT_TRUE(base.scalar_reports[perm[slot]].has_value());
    ASSERT_TRUE(permuted.scalar_reports[slot].has_value());
    const RunReport& want = *base.scalar_reports[perm[slot]];
    const RunReport& got = *permuted.scalar_reports[slot];
    EXPECT_EQ(got.outputs, want.outputs);
    EXPECT_EQ(got.spread_by_round, want.spread_by_round);
    EXPECT_EQ(got.finish_time, want.finish_time);
    EXPECT_EQ(got.validity_ok, want.validity_ok);
    EXPECT_EQ(got.agreement_ok, want.agreement_ok);
  }
}

TEST(Session, BatchingPreservesLogicalCountsAndPacksAtScale) {
  // 64 concurrent instances on one 4-party network: the batched session must
  // report the SAME logical message count as the unbatched one while packing
  // at least 2 logical messages per packet (the CI bench gate's invariant).
  auto run_at = [](std::uint32_t batching) {
    SessionOptions opts;
    opts.batching = batching;
    Session s(opts);
    for (std::uint32_t i = 0; i < 64; ++i) {
      RunConfig cfg = scalar_cfg(4, 1, 0.0, 1.0 + 0.01 * i, 0);
      s.add(cfg);
    }
    return s.run();
  };
  const SessionReport plain = run_at(0);
  const SessionReport batched = run_at(8);

  EXPECT_EQ(plain.metrics.messages_sent, batched.metrics.messages_sent);
  EXPECT_EQ(plain.metrics.packets_sent, plain.metrics.messages_sent);
  EXPECT_LT(batched.metrics.packets_sent, plain.metrics.packets_sent);
  EXPECT_GE(batched.msgs_per_packet, 2.0);

  // Per-instance attribution is batching-invariant and accounts for every
  // logical message (all session traffic is enveloped).
  ASSERT_EQ(batched.metrics.sent_by_instance.size(), 64u);
  EXPECT_EQ(plain.metrics.sent_by_instance, batched.metrics.sent_by_instance);
  const std::uint64_t attributed =
      std::accumulate(batched.metrics.sent_by_instance.begin(),
                      batched.metrics.sent_by_instance.end(), std::uint64_t{0});
  EXPECT_EQ(attributed, batched.metrics.messages_sent);

  // Verdicts are batching-invariant too (delivery order shifts, correctness
  // must not).
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(batched.scalar_reports[i].has_value());
    EXPECT_TRUE(batched.scalar_reports[i]->validity_ok);
    EXPECT_TRUE(batched.scalar_reports[i]->agreement_ok);
    EXPECT_TRUE(batched.scalar_reports[i]->all_output);
  }
}

TEST(Session, MixedScalarAndVectorInstances) {
  SessionOptions opts;
  opts.batching = 4;
  Session s(opts);
  s.add(scalar_cfg(5, 1, 0.0, 1.0, 0));
  s.add(vector_cfg(5, 1, 0));
  s.add(scalar_cfg(5, 1, -1.0, 1.0, 0));
  const SessionReport rep = s.run();
  EXPECT_TRUE(rep.all_output);
  ASSERT_TRUE(rep.scalar_reports[0].has_value());
  ASSERT_TRUE(rep.vector_reports[1].has_value());
  ASSERT_TRUE(rep.scalar_reports[2].has_value());
  EXPECT_TRUE(rep.scalar_reports[0]->validity_ok);
  EXPECT_TRUE(rep.scalar_reports[0]->agreement_ok);
  EXPECT_TRUE(rep.vector_reports[1]->box_validity_ok);
  EXPECT_TRUE(rep.vector_reports[1]->agreement_ok);
  EXPECT_TRUE(rep.scalar_reports[2]->validity_ok);
  EXPECT_TRUE(rep.scalar_reports[2]->agreement_ok);
  for (double ft : rep.finish_times) EXPECT_GT(ft, 0.0);
}

TEST(Session, CrashBudgetCountsLogicalSendsAcrossInstances) {
  // A session-level crash budget of 5 logical sends: party 0 completes its
  // instance-0 round-0 multicast (4 frames) and one frame of instance 1,
  // then crashes — every instance must still converge on the surviving
  // quorum, and the victim's logical send count must be exactly the budget.
  SessionOptions opts;
  opts.batching = 8;
  opts.crashes.push_back({0, 5, {}});
  Session s(opts);
  for (std::uint32_t i = 0; i < 4; ++i) s.add(scalar_cfg(5, 1, 0.0, 1.0, 0));
  const SessionReport rep = s.run();
  EXPECT_EQ(rep.metrics.sent_by[0], 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(rep.scalar_reports[i].has_value());
    const RunReport& r = *rep.scalar_reports[i];
    EXPECT_TRUE(r.all_output);
    EXPECT_EQ(r.outputs.size(), 4u);  // the 4 surviving parties
    EXPECT_TRUE(r.validity_ok);
    EXPECT_TRUE(r.agreement_ok);
  }
}

TEST(Session, ThreadAndSocketBackendsReachSameVerdicts) {
  // Sim/thread/socket parity at the session level: same instances, batched
  // transport (sharded threads or loopback UDP), same per-instance verdicts
  // (outputs differ by interleaving; correctness must not).  The socket row
  // repeats under injected datagram loss, which the perfect link must
  // absorb WITHOUT inflating logical message counts — retransmits are
  // physical, msgs are loss-invariant.  Rounds are the PROVABLE count
  // (rounds = 0 -> rounds_for_bound): retransmission delays give the socket
  // rows genuinely adversarial schedules, so verdicts may only be compared
  // where the theory guarantees them on every schedule.
  auto build = [](BackendKind backend, double loss) {
    std::vector<RunConfig> cfgs;
    for (std::uint32_t i = 0; i < 3; ++i) {
      RunConfig cfg = scalar_cfg(5, 1, 0.1 * i, 1.0 + 0.2 * i, 0);
      cfg.backend = backend;
      cfg.socket_faults.loss = loss;
      cfg.socket_faults.seed = 7;
      cfgs.push_back(cfg);
    }
    return cfgs;
  };
  SessionOptions opts;
  opts.batching = 8;
  opts.shards = 2;
  const SessionReport sim = run_session(build(BackendKind::kSim, 0.0), opts);
  EXPECT_TRUE(sim.all_output);
  struct Row {
    BackendKind backend;
    double loss;
    const char* name;
  };
  for (const Row row : {Row{BackendKind::kThread, 0.0, "thread"},
                        Row{BackendKind::kSocket, 0.0, "socket"},
                        Row{BackendKind::kSocket, 0.10, "socket_lossy"}}) {
    SCOPED_TRACE(row.name);
    const SessionReport rep = run_session(build(row.backend, row.loss), opts);
    EXPECT_TRUE(rep.all_output);
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(sim.scalar_reports[i].has_value());
      ASSERT_TRUE(rep.scalar_reports[i].has_value());
      EXPECT_EQ(rep.scalar_reports[i]->outputs.size(),
                sim.scalar_reports[i]->outputs.size());
      EXPECT_EQ(rep.scalar_reports[i]->validity_ok,
                sim.scalar_reports[i]->validity_ok);
      EXPECT_EQ(rep.scalar_reports[i]->agreement_ok,
                sim.scalar_reports[i]->agreement_ok);
      EXPECT_EQ(rep.metrics.messages_sent, sim.metrics.messages_sent);
    }
  }
}

TEST(Session, ValidatesMultiplexingConstraints) {
  // Mismatched seeds cannot share one simulator.
  {
    Session s;
    s.add(scalar_cfg(5, 1, 0.0, 1.0, 2));
    RunConfig other = scalar_cfg(5, 1, 0.0, 2.0, 2);
    other.seed = 7;
    s.add(other);
    EXPECT_THROW(s.run(), std::invalid_argument);
  }
  // Per-instance crash plans are not multiplexable.
  {
    Session s;
    RunConfig cfg = scalar_cfg(5, 1, 0.0, 1.0, 2);
    cfg.crashes.push_back({0, 2, {}});
    s.add(cfg);
    s.add(scalar_cfg(5, 1, 0.0, 1.0, 2));
    EXPECT_THROW(s.run(), std::invalid_argument);
  }
  // kLive instances have no output to wait on.
  {
    Session s;
    RunConfig cfg = scalar_cfg(5, 1, 0.0, 1.0, 2);
    cfg.mode = core::TerminationMode::kLive;
    s.add(cfg);
    s.add(scalar_cfg(5, 1, 0.0, 1.0, 2));
    EXPECT_THROW(s.run(), std::invalid_argument);
  }
  // A vector instance must match the scalar instance's system size,
  // backend and byzantine id set, exactly as a second scalar instance must.
  {
    Session s;
    s.add(scalar_cfg(5, 1, 0.0, 1.0, 2));
    s.add(vector_cfg(7, 1, 2));
    EXPECT_THROW(s.run(), std::invalid_argument);
  }
  {
    Session s;
    s.add(scalar_cfg(5, 1, 0.0, 1.0, 2));
    VectorRunConfig other = vector_cfg(5, 1, 2);
    other.backend = BackendKind::kThread;
    s.add(other);
    EXPECT_THROW(s.run(), std::invalid_argument);
  }
  {
    Session s;
    s.add(scalar_cfg(5, 1, 0.0, 1.0, 2));
    VectorRunConfig other = vector_cfg(5, 1, 2);
    adversary::ByzSpec b;
    b.who = 4;
    other.byz.push_back(b);
    s.add(other);
    EXPECT_THROW(s.run(), std::invalid_argument);
  }
  // Session faults respect the budget t.
  {
    SessionOptions opts;
    opts.crashes.push_back({0, 1, {}});
    opts.crashes.push_back({1, 1, {}});
    Session s(opts);
    s.add(scalar_cfg(5, 1, 0.0, 1.0, 2));
    s.add(scalar_cfg(5, 1, 0.0, 1.0, 2));
    EXPECT_THROW(s.run(), std::invalid_argument);
  }
  // run() is one-shot and needs at least one instance.
  {
    Session s;
    EXPECT_THROW(s.run(), std::invalid_argument);
  }
  {
    Session s;
    s.add(scalar_cfg(5, 1, 0.0, 1.0, 2));
    (void)s.run();
    EXPECT_THROW(s.run(), std::invalid_argument);
    EXPECT_THROW(s.add(scalar_cfg(5, 1, 0.0, 1.0, 2)), std::invalid_argument);
  }
}

}  // namespace
}  // namespace apxa::harness
