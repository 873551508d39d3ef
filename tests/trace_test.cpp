// TraceSink and exporter behavior: seq-ordered merge across writer threads,
// bounded rings (wrap drops oldest, never blocks), the protocol/executor
// domain split behind protocol_events()/protocol_digest(), and the two
// export formats.  Harness-level cases check that traced runs actually
// record the event kinds each layer owns — transports (send/deliver/drop/
// crash), the round engines (round-advance), the collect engine
// (view-freeze) and the threaded executor (claim/steal/idle) — that
// executor telemetry surfaces in the reports, and that traced sim runs
// replay their protocol trace and report bit for bit.
//
// Runs in the TSan lane (name matched by the CI regex): the per-thread
// rings plus the relaxed global ticket are exactly the code a data race
// would corrupt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "adversary/crash_plan.hpp"
#include "core/async_byz.hpp"
#include "harness/harness.hpp"
#include "harness/session.hpp"
#include "net/sim.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa::obs {
namespace {

TEST(TraceSink, RecordsFieldsAndMergesInSeqOrder) {
  TraceSink sink;
  sink.record(EventKind::kSend, 1, 2, 3, 4.5, 6.5);
  sink.record(EventKind::kDeliver, 2, 1, 3, 1.0, 7.0);
  sink.record(EventKind::kRoundAdvance, 1, 0, 4, 0.25, 7.0);

  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.seq < b.seq;
                             }));
  EXPECT_EQ(events[0].kind, EventKind::kSend);
  EXPECT_EQ(events[0].party, 1u);
  EXPECT_EQ(events[0].peer, 2u);
  EXPECT_EQ(events[0].round, 3);
  EXPECT_EQ(events[0].value, 4.5);
  EXPECT_EQ(events[0].vtime, 6.5);
  EXPECT_EQ(events[2].kind, EventKind::kRoundAdvance);
  EXPECT_EQ(sink.recorded(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, CapacityRoundsUpToPowerOfTwoWithFloor) {
  EXPECT_EQ(TraceSink(1).ring_capacity(), 64u);
  EXPECT_EQ(TraceSink(64).ring_capacity(), 64u);
  EXPECT_EQ(TraceSink(100).ring_capacity(), 128u);
  EXPECT_EQ(TraceSink().ring_capacity(), TraceSink::kDefaultRingCapacity);
}

TEST(TraceSink, RingWrapKeepsNewestEventsAndCountsDrops) {
  TraceSink sink(64);
  for (int i = 0; i < 200; ++i) {
    sink.record(EventKind::kSend, 0, 0, i, 0.0, 0.0);
  }
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 64u);
  EXPECT_EQ(sink.recorded(), 200u);
  EXPECT_EQ(sink.dropped(), 136u);
  // The survivors are exactly the newest 64, still in order.
  EXPECT_EQ(events.front().round, 136);
  EXPECT_EQ(events.back().round, 199);
}

TEST(TraceSink, WriterThreadsGetDistinctSeqTickets) {
  TraceSink sink;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.record(EventKind::kClaim, static_cast<std::uint32_t>(t), 0, i,
                    0.0, 0.0);
      }
    });
  }
  for (auto& w : writers) w.join();

  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::set<std::uint64_t> seqs;
  for (const auto& e : events) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), events.size());  // tickets never collide
  // Per-thread order is preserved in the merged stream.
  std::vector<std::int64_t> last(kThreads, -1);
  for (const auto& e : events) {
    EXPECT_LT(last[e.party], e.round);
    last[e.party] = e.round;
  }
}

TEST(TraceSink, ThreadLocalCacheRoutesAcrossSinks) {
  // The fast path caches (sink id, ring) per thread; interleaving two sinks
  // on one thread must re-resolve instead of writing into the wrong ring.
  TraceSink a;
  TraceSink b;
  a.record(EventKind::kSend, 1, 0, 0, 0.0, 0.0);
  b.record(EventKind::kSend, 2, 0, 0, 0.0, 0.0);
  a.record(EventKind::kSend, 1, 0, 1, 0.0, 0.0);
  EXPECT_EQ(a.snapshot().size(), 2u);
  EXPECT_EQ(b.snapshot().size(), 1u);
  for (const auto& e : a.snapshot()) EXPECT_EQ(e.party, 1u);
  for (const auto& e : b.snapshot()) EXPECT_EQ(e.party, 2u);
}

TEST(TraceDomains, ProtocolFilterExcludesExecutorEvents) {
  TraceSink sink;
  sink.record(EventKind::kSend, 0, 1, 0, 1.0, 0.5);
  sink.record(EventKind::kIdle, 1, 0, -1, 1.0, 0.5);
  sink.record(EventKind::kDeliver, 0, 1, 0, 1.0, 1.0);
  sink.record(EventKind::kClaim, 0, 1, -1, 2.0, 1.0);
  sink.record(EventKind::kClaim, 0, 3, -1, 0.0, 0.0);
  sink.record(EventKind::kInstanceFinish, 3, 0, -1, 2.0, 2.0);

  const auto prot = protocol_events(sink.snapshot());
  ASSERT_EQ(prot.size(), 3u);
  EXPECT_EQ(prot[0].kind, EventKind::kSend);
  EXPECT_EQ(prot[1].kind, EventKind::kDeliver);
  EXPECT_EQ(prot[2].kind, EventKind::kInstanceFinish);
}

TEST(TraceDomains, DigestIgnoresExecutorNoiseButSeesProtocolChanges) {
  auto digest_of = [](bool with_noise, double send_value) {
    TraceSink sink;
    sink.record(EventKind::kSend, 0, 1, 0, send_value, 0.5);
    if (with_noise) {
      sink.record(EventKind::kClaim, 7, 0, -1, 1.0, 0.5);
      sink.record(EventKind::kIdle, 2, 0, -1, 0.0, 0.0);
    }
    sink.record(EventKind::kDeliver, 0, 1, 0, send_value, 1.0);
    return protocol_digest(sink.snapshot());
  };
  EXPECT_EQ(digest_of(false, 1.0), digest_of(true, 1.0));
  EXPECT_NE(digest_of(false, 1.0), digest_of(false, 2.0));
}

TEST(TraceDomains, KindNamesCoverEveryKind) {
  for (const EventKind k :
       {EventKind::kSend, EventKind::kDeliver, EventKind::kDrop,
        EventKind::kCrash, EventKind::kRoundAdvance, EventKind::kViewFreeze,
        EventKind::kInstanceFinish, EventKind::kClaim, EventKind::kSteal,
        EventKind::kIdle, EventKind::kRetransmit}) {
    EXPECT_STRNE(kind_name(k), "");
  }
  EXPECT_TRUE(is_protocol_event(EventKind::kInstanceFinish));
  EXPECT_FALSE(is_protocol_event(EventKind::kClaim));
}

// --- exporters ---------------------------------------------------------------

TEST(TraceExport, JsonlEmitsOneObjectPerEventInSeqOrder) {
  TraceSink sink;
  sink.record(EventKind::kSend, 0, 1, 2, 0.5, 1.0);
  sink.record(EventKind::kDeliver, 0, 1, 2, 0.5, 1.5);
  const std::string jsonl = to_jsonl(sink.snapshot());
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  const auto first_line = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_EQ(first_line.front(), '{');
  EXPECT_EQ(first_line.back(), '}');
  EXPECT_NE(first_line.find("\"kind\":\"send\""), std::string::npos);
  EXPECT_NE(first_line.find("\"round\":2"), std::string::npos);
  EXPECT_LT(jsonl.find("\"kind\":\"send\""), jsonl.find("\"kind\":\"deliver\""));
}

TEST(TraceExport, ChromeJsonCarriesBothProcessTracks) {
  TraceSink sink;
  sink.record(EventKind::kSend, 0, 1, 2, 0.5, 1.0);    // protocol -> pid 0
  sink.record(EventKind::kClaim, 3, 0, -1, 0.0, 0.0);  // executor -> pid 1
  const std::string doc = to_chrome_json(sink.snapshot());
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc[doc.find_last_not_of('\n')], '}');
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("process_name"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"send\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"claim\""), std::string::npos);
  // Braces/brackets balance — cheap structural sanity without a parser
  // (tools/trace_view.py and the CI artifact load do the strict parse).
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
}

// --- traced runs through the harness -----------------------------------------

TEST(TraceHarness, SimRunRecordsEveryProtocolLayer) {
  using namespace apxa::harness;
  const SystemParams p{5, 1};
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.fixed_rounds = 4;
  cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  adversary::CrashSpec crash;  // crash mid-run: kCrash + kDrop must appear
  crash.who = 4;
  crash.after_sends = 10;
  cfg.crashes = {crash};
  cfg.backend = BackendKind::kSim;

  obs::TraceSink trace;
  cfg.trace = &trace;
  const RunReport rep = run(cfg);
  EXPECT_TRUE(rep.validity_ok);

  std::uint64_t sends = 0, delivers = 0, drops = 0, crashes = 0, rounds = 0;
  for (const auto& e : trace.snapshot()) {
    switch (e.kind) {
      case EventKind::kSend: ++sends; break;
      case EventKind::kDeliver: ++delivers; break;
      case EventKind::kDrop: ++drops; break;
      case EventKind::kCrash: ++crashes; break;
      case EventKind::kRoundAdvance: ++rounds; break;
      default: break;
    }
  }
  EXPECT_EQ(sends, rep.metrics.packets_sent);
  EXPECT_EQ(delivers, rep.metrics.messages_delivered);
  EXPECT_EQ(crashes, 1u);
  EXPECT_GT(drops, 0u);   // the crashed party's queued traffic
  EXPECT_GT(rounds, 0u);  // harness kRoundAdvance hook
}

TEST(TraceHarness, ConvexRunRecordsViewFreezes) {
  using namespace apxa::harness;
  const SystemParams p{4, 1};
  VectorRunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kVectorConvex;
  cfg.dim = 2;
  cfg.fixed_rounds = 3;
  cfg.inputs = corner_split_inputs(p.n, 2, 2, 0.0, 1.0);
  cfg.backend = BackendKind::kSim;

  obs::TraceSink trace;
  cfg.trace = &trace;
  const VectorRunReport rep = run(cfg);
  EXPECT_TRUE(rep.all_output);

  std::uint64_t freezes = 0;
  for (const auto& e : trace.snapshot()) {
    if (e.kind != EventKind::kViewFreeze) continue;
    ++freezes;
    EXPECT_GE(e.value, p.quorum());  // frozen views hold >= n - t entries
  }
  // Every correct party freezes one view per round.
  EXPECT_EQ(freezes, static_cast<std::uint64_t>(p.n) * cfg.fixed_rounds);
}

TEST(TraceHarness, ThreadRunSurfacesExecutorTelemetry) {
  using namespace apxa::harness;
  const SystemParams p{5, 1};
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.fixed_rounds = 4;
  cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  cfg.backend = BackendKind::kThread;

  obs::TraceSink trace;
  cfg.trace = &trace;
  const RunReport rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_GT(rep.exec_stats.workers, 0u);
  EXPECT_GT(rep.exec_stats.claims, 0u);
  EXPECT_GT(rep.exec_stats.parties_run, 0u);

  std::uint64_t claims = 0, protocol = 0;
  for (const auto& e : trace.snapshot()) {
    if (e.kind == EventKind::kClaim) ++claims;
    if (is_protocol_event(e.kind)) ++protocol;
  }
  EXPECT_GT(claims, 0u);
  EXPECT_GT(protocol, 0u);
}

}  // namespace
}  // namespace apxa::obs

// --- traced sim replay --------------------------------------------------------
//
// The simulator records every protocol-domain event inline, from its one
// event loop, so running a config twice must replay the trace and the
// report bit for bit, and attaching a trace must not change the run.

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

// Field by field over the protocol-domain events, then their digest.
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

RunConfig scalar_replay_cfg(ProtocolKind kind, SchedKind sched) {
  RunConfig cfg;
  cfg.protocol = kind;
  cfg.sched = sched;
  cfg.epsilon = 1e-2;
  adversary::ByzSpec b;
  switch (kind) {
    case ProtocolKind::kCrashRound:
      cfg.params = {5, 1};
      cfg.fixed_rounds = 6;
      cfg.seed = 11;
      cfg.crashes = {adversary::partial_multicast_crash(cfg.params, 4,
                                                        /*full_rounds=*/1, {0, 1})};
      break;
    case ProtocolKind::kByzRound:
      cfg.params = {6, 1};  // n > 5t for the DLPSW-async protocol
      cfg.fixed_rounds = 8;
      cfg.epsilon = 5e-2;
      cfg.seed = 13;
      b.who = 0;
      b.kind = adversary::ByzKind::kEquivocate;
      b.lo = -5.0;
      b.hi = 5.0;
      cfg.byz = {b};
      break;
    default:  // kWitness
      cfg.params = {4, 1};  // n > 3t for the witness technique
      cfg.fixed_rounds = 3;
      cfg.epsilon = 0.2;
      cfg.seed = 17;
      b.who = 3;
      b.kind = adversary::ByzKind::kSilent;
      cfg.byz = {b};
      break;
  }
  cfg.inputs = linear_inputs(cfg.params.n, 0.0, 1.0);
  return cfg;
}

VectorRunConfig vector_replay_cfg(ProtocolKind kind, SchedKind sched) {
  VectorRunConfig cfg;
  cfg.protocol = kind;
  cfg.sched = sched;
  cfg.dim = 2;
  cfg.epsilon = 1e-2;
  adversary::ByzSpec b;
  switch (kind) {
    case ProtocolKind::kVectorCrash: {
      cfg.params = {5, 1};
      cfg.fixed_rounds = 8;
      Rng rng(17);
      cfg.inputs = random_vector_inputs(rng, cfg.params.n, 2, 0.0, 1.0);
      cfg.seed = 19;
      cfg.crashes = {adversary::partial_multicast_crash(cfg.params, 4,
                                                        /*full_rounds=*/1, {0, 1})};
      break;
    }
    case ProtocolKind::kVectorByz:
      cfg.params = {6, 1};
      cfg.fixed_rounds = 8;
      cfg.epsilon = 5e-2;
      cfg.inputs = corner_split_inputs(cfg.params.n, 2, cfg.params.n / 2, 0.0, 1.0);
      cfg.seed = 23;
      b.who = 0;
      b.kind = adversary::ByzKind::kEquivocate;
      b.lo = -5.0;
      b.hi = 5.0;
      cfg.byz = {b};
      break;
    case ProtocolKind::kVectorConvex: {
      cfg.params = {7, 1};  // n > 3t
      cfg.fixed_rounds = 6;
      Rng rng(31);
      cfg.inputs = random_vector_inputs(rng, cfg.params.n, 2, -5.0, 5.0);
      cfg.seed = 29;
      b.who = 0;
      b.kind = adversary::ByzKind::kHullEscape;
      b.lo = -5.0;
      b.hi = 5.0;
      b.seed = 1;
      cfg.byz = {b};
      break;
    }
    default: {  // kVectorConvexRB: Theta(n^3) traffic per round
      cfg.params = {7, 1};  // n > 3t
      cfg.fixed_rounds = 4;
      Rng rng(37);
      cfg.inputs = random_vector_inputs(rng, cfg.params.n, 2, -5.0, 5.0);
      cfg.seed = 37;
      break;
    }
  }
  return cfg;
}

/// `instances` crash-round instances (n = 5, t = 1) behind one batched,
/// multiplexed session with a crash budget of 30 logical sends, under
/// `sched`, traced into `trace` (may be null).
SessionReport batched_crash_session(obs::TraceSink* trace,
                                    std::size_t instances = 6,
                                    SchedKind sched = SchedKind::kRandom) {
  std::vector<RunConfig> cfgs;
  for (std::uint64_t k = 0; k < instances; ++k) {
    const SystemParams p{5, 1};
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kCrashRound;
    cfg.fixed_rounds = 4 + (k % 3);
    cfg.epsilon = 1e-2;
    cfg.inputs = linear_inputs(p.n, 0.0, 1.0 + 0.25 * static_cast<double>(k));
    cfg.sched = sched;
    cfg.seed = 41;
    cfgs.push_back(cfg);
  }
  SessionOptions opts;
  opts.batching = 8;
  opts.force_multiplex = true;
  opts.trace = trace;
  adversary::CrashSpec s;
  s.who = 4;
  s.after_sends = 30;  // logical sends across all instances
  opts.crashes = {s};
  return run_session(cfgs, opts);
}

void expect_session_eq(const SessionReport& a, const SessionReport& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.all_output, b.all_output);
  EXPECT_EQ(a.finish_times, b.finish_times);
  EXPECT_EQ(a.msgs_per_packet, b.msgs_per_packet);
  expect_metrics_eq(a.metrics, b.metrics);
  ASSERT_EQ(a.scalar_reports.size(), b.scalar_reports.size());
  for (std::size_t i = 0; i < a.scalar_reports.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(a.scalar_reports[i].has_value());
    ASSERT_TRUE(b.scalar_reports[i].has_value());
    expect_report_eq(*a.scalar_reports[i], *b.scalar_reports[i]);
  }
}

/// Runs `kind`'s replay config under every scheduler twice, each run with a
/// TraceSink attached, and requires the two reports and protocol traces to
/// match exactly.
void expect_scalar_replay(ProtocolKind kind) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    RunConfig cfg = scalar_replay_cfg(kind, sched);
    obs::TraceSink ta;
    obs::TraceSink tb;
    cfg.trace = &ta;
    const RunReport a = run(cfg);
    cfg.trace = &tb;
    const RunReport b = run(cfg);
    EXPECT_FALSE(obs::protocol_events(ta.snapshot()).empty());
    expect_report_eq(a, b);
    expect_trace_eq(ta, tb);
  }
}

void expect_vector_replay(ProtocolKind kind) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    VectorRunConfig cfg = vector_replay_cfg(kind, sched);
    obs::TraceSink ta;
    obs::TraceSink tb;
    cfg.trace = &ta;
    const VectorRunReport a = run(cfg);
    cfg.trace = &tb;
    const VectorRunReport b = run(cfg);
    EXPECT_FALSE(obs::protocol_events(ta.snapshot()).empty());
    expect_vector_report_eq(a, b);
    expect_trace_eq(ta, tb);
  }
}

TEST(TraceReplay, CrashRoundAllSchedulers) {
  expect_scalar_replay(ProtocolKind::kCrashRound);
}

TEST(TraceReplay, ByzRoundAllSchedulers) {
  expect_scalar_replay(ProtocolKind::kByzRound);
}

TEST(TraceReplay, WitnessAllSchedulers) {
  expect_scalar_replay(ProtocolKind::kWitness);
}

TEST(TraceReplay, VectorCrashAllSchedulers) {
  expect_vector_replay(ProtocolKind::kVectorCrash);
}

TEST(TraceReplay, VectorByzAllSchedulers) {
  expect_vector_replay(ProtocolKind::kVectorByz);
}

TEST(TraceReplay, VectorConvexAllSchedulers) {
  expect_vector_replay(ProtocolKind::kVectorConvex);
}

TEST(TraceReplay, VectorConvexRbAllSchedulers) {
  expect_vector_replay(ProtocolKind::kVectorConvexRB);
}

TEST(TraceReplay, MultiplexedSessionWithBatchingAndCrashes) {
  // The session path adds router kInstanceFinish records and batched
  // kDeliver events to the stream.
  obs::TraceSink ta;
  obs::TraceSink tb;
  const SessionReport a = batched_crash_session(&ta);
  const SessionReport b = batched_crash_session(&tb);
  EXPECT_FALSE(obs::protocol_events(ta.snapshot()).empty());
  expect_trace_eq(ta, tb);
  expect_session_eq(a, b);
}

TEST(TraceReplay, LargeUntracedSessionReplays) {
  const SessionReport a = batched_crash_session(nullptr, 16);
  const SessionReport b = batched_crash_session(nullptr, 16);
  EXPECT_EQ(a.scalar_reports.size(), 16u);
  expect_session_eq(a, b);
}

TEST(TraceReplay, BudgetExhaustionCutsAtTheSameDelivery) {
  // A budget that lands mid-run stops the loop after exactly that many
  // deliveries (drops to the crashed party do not count), and a second run
  // leaves the same partial state.
  for (const std::uint64_t budget : {37u, 138u, 517u}) {
    SCOPED_TRACE(budget);
    RunConfig cfg = scalar_replay_cfg(ProtocolKind::kCrashRound, SchedKind::kRandom);
    cfg.fixed_rounds = 50;  // never finishes inside the budget
    cfg.max_deliveries = budget;
    const RunReport a = run(cfg);
    const RunReport b = run(cfg);
    EXPECT_EQ(a.status, net::RunStatus::kBudgetExhausted);
    EXPECT_EQ(a.metrics.messages_delivered, budget);
    expect_report_eq(a, b);
  }
}

TEST(TraceReplay, DuplicationRngReplays) {
  // Link duplication draws one RNG sample per send; the same duplication
  // seed must duplicate the same messages, run after run.
  const SystemParams p{5, 1};
  auto run_once = [&p] {
    net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(5));
    net.enable_duplication(0.5, 7);
    for (ProcessId i = 0; i < p.n; ++i) {
      net.add_process(std::make_unique<core::RoundAaProcess>(
          core::crash_aa_config(p, static_cast<double>(i), 4)));
    }
    net.start();
    EXPECT_EQ(net.run_until_done({}), net::RunStatus::kPredicateSatisfied);
    return std::tuple{net.correct_outputs(), net.metrics().messages_sent,
                      net.metrics().messages_delivered, net.now()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  // Some, not all, messages were duplicated.
  EXPECT_GT(std::get<2>(a), 0u);
  EXPECT_LT(std::get<2>(a), 2 * std::get<1>(a));
}

TEST(TraceReplay, TracingDoesNotPerturbScalarRuns) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    for (const ProtocolKind kind : {ProtocolKind::kCrashRound, ProtocolKind::kByzRound,
                                    ProtocolKind::kWitness}) {
      SCOPED_TRACE(static_cast<int>(kind));
      RunConfig cfg = scalar_replay_cfg(kind, sched);
      const RunReport untraced = run(cfg);
      obs::TraceSink trace;
      cfg.trace = &trace;
      expect_report_eq(untraced, run(cfg));
    }
  }
}

TEST(TraceReplay, TracingDoesNotPerturbVectorRuns) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    for (const ProtocolKind kind :
         {ProtocolKind::kVectorCrash, ProtocolKind::kVectorByz,
          ProtocolKind::kVectorConvex, ProtocolKind::kVectorConvexRB}) {
      SCOPED_TRACE(static_cast<int>(kind));
      VectorRunConfig cfg = vector_replay_cfg(kind, sched);
      const VectorRunReport untraced = run(cfg);
      obs::TraceSink trace;
      cfg.trace = &trace;
      expect_vector_report_eq(untraced, run(cfg));
    }
  }
}

TEST(TraceReplay, TracingDoesNotPerturbSessions) {
  obs::TraceSink trace;
  expect_session_eq(batched_crash_session(nullptr), batched_crash_session(&trace));
}

TEST(TraceReplay, DigestSeparatesSeeds) {
  // The replay checks have teeth only if the digest tracks the schedule.
  auto digest = [](std::uint64_t seed) {
    RunConfig cfg = scalar_replay_cfg(ProtocolKind::kCrashRound, SchedKind::kRandom);
    cfg.seed = seed;
    obs::TraceSink trace;
    cfg.trace = &trace;
    (void)run(cfg);
    return obs::protocol_digest(obs::protocol_events(trace.snapshot()));
  };
  EXPECT_EQ(digest(11), digest(11));
  EXPECT_NE(digest(11), digest(12));
}

TEST(TraceReplay, UpcallEventsPrecedeTheFlushedBatch) {
  // Round advances and instance finishes are recorded inside the upcall, so
  // in a batched run none of them follows a send its party flushed after
  // the delivery that caused it: the last send/deliver event touching the
  // party before each such record is a delivery to that party.
  obs::TraceSink trace;
  (void)batched_crash_session(&trace);
  std::vector<int> last(5, 0);  // 0 none, 1 delivered to, 2 sent from
  std::uint64_t checked = 0;
  for (const auto& e : obs::protocol_events(trace.snapshot())) {
    switch (e.kind) {
      case obs::EventKind::kDeliver: last[e.peer] = 1; break;
      case obs::EventKind::kSend: last[e.party] = 2; break;
      case obs::EventKind::kRoundAdvance:
      case obs::EventKind::kInstanceFinish:
        if (last[e.party] == 0) break;  // start-up round entries
        ++checked;
        EXPECT_EQ(last[e.party], 1) << obs::kind_name(e.kind) << " party "
                                    << e.party << " round " << e.round;
        break;
      default: break;
    }
  }
  EXPECT_GT(checked, 0u);
}

// Golden protocol digests, recorded before the simulator's event heap and
// the Bracha hub's slot storage were rewritten.  Any change to the order in
// which the simulator delivers events, or to what a party sends in
// response, changes them.  Update them only for a change that is meant to
// move simulated runs, and say so.
TEST(TraceGolden, WitnessN16EquivocatorsDigest) {
  RunConfig cfg;
  cfg.params = {16, 5};
  cfg.protocol = ProtocolKind::kWitness;
  cfg.sched = SchedKind::kRandom;
  cfg.fixed_rounds = 2;
  cfg.epsilon = 0.5;
  cfg.seed = 23;
  cfg.inputs = linear_inputs(cfg.params.n, 0.0, 1.0);
  for (const ProcessId who : {1u, 4u, 7u, 10u, 13u}) {
    adversary::ByzSpec b;
    b.who = who;
    b.kind = adversary::ByzKind::kEquivocate;
    b.lo = -5.0;
    b.hi = 5.0;
    cfg.byz.push_back(b);
  }
  obs::TraceSink trace(std::size_t{1} << 18);
  cfg.trace = &trace;
  const RunReport rep = run(cfg);
  ASSERT_EQ(trace.dropped(), 0u);
  EXPECT_TRUE(rep.all_output);
  EXPECT_EQ(obs::protocol_digest(obs::protocol_events(trace.snapshot())),
            0x50dff5b5f4813d37ull);
}

TEST(TraceGolden, FifoCrashSessionDigest) {
  obs::TraceSink trace(std::size_t{1} << 16);
  const SessionReport rep = batched_crash_session(&trace, 6, SchedKind::kFifo);
  ASSERT_EQ(trace.dropped(), 0u);
  EXPECT_TRUE(rep.all_output);
  EXPECT_EQ(obs::protocol_digest(obs::protocol_events(trace.snapshot())),
            0xbdfdde633455a09full);
}

TEST(TraceReplay, SimReportsOneWorker) {
  // The simulator has one event loop; APXA_SIM_WORKERS no longer exists
  // and must not change what any simulated run reports.
  ASSERT_EQ(::setenv("APXA_SIM_WORKERS", "4", 1), 0);
  RunConfig scalar = scalar_replay_cfg(ProtocolKind::kCrashRound, SchedKind::kFifo);
  VectorRunConfig vec = vector_replay_cfg(ProtocolKind::kVectorCrash, SchedKind::kFifo);
  EXPECT_EQ(run(scalar).exec_stats.workers, 1u);
  EXPECT_EQ(run(vec).exec_stats.workers, 1u);
  EXPECT_EQ(batched_crash_session(nullptr).exec_stats.workers, 1u);
  ASSERT_EQ(::unsetenv("APXA_SIM_WORKERS"), 0);
}

}  // namespace
}  // namespace apxa::harness
