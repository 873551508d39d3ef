// F7 — Multi-instance throughput frontier.
//
// K concurrent AA instances share one transport through harness::Session
// (instance envelopes + per-destination batch packets).  For each backend
// (deterministic simulator / threaded runtime) and each batching mode
// (unbatched / cap-8 packing) the driver sweeps the concurrency level K and
// reports service throughput (instances completed per wall second), the
// p50/p99 per-instance finish time, and the packing efficiency msgs/packet.
//
// Expected shape: batching never changes logical message counts, so the
// sim rows show identical `messages` columns per K; at service scale
// (K >= 64) the round-0 bursts pack >= 2 msgs/packet (the CI gate), and on
// the threaded runtime fewer packets means fewer mailbox lock/wake cycles,
// so the batched rows overtake the unbatched ones as K grows.
//
// Finish-time units differ per backend (Delta units on sim, wall seconds on
// thread) — compare p50/p99 within a backend, never across.
//
// APXA_F7_FULL=1 extends the K sweep to {1024, 4096} (minutes, kept out of
// the CI smoke, which asserts the 16-row shape of the default sweep).
// `workers_scaling` sweeps the stealing executor's shard count at K=256, and
// `trace_overhead` times the same session with the trace recorder off and on
// (medians of alternating off/on pairs).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/async_byz.hpp"
#include "harness/session.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace {

using namespace apxa;

constexpr std::uint32_t kParties = 5;
constexpr std::uint32_t kFaults = 1;
constexpr Round kRounds = 4;

/// One service request: a small fixed-round crash-model instance.  Inputs
/// vary per instance (only params/sched/seed/backend must be shared), so the
/// instances are not trivially identical work items.
harness::RunConfig instance_cfg(
    std::size_t k, harness::BackendKind backend,
    harness::SchedKind sched = harness::SchedKind::kRandom) {
  harness::RunConfig cfg;
  cfg.params = {kParties, kFaults};
  cfg.protocol = harness::ProtocolKind::kCrashRound;
  cfg.mode = core::TerminationMode::kFixedRounds;
  cfg.fixed_rounds = kRounds;
  cfg.inputs =
      harness::linear_inputs(kParties, 0.0, 1.0 + 0.25 * (k % 8));
  cfg.sched = sched;
  cfg.seed = 7;
  cfg.backend = backend;
  cfg.thread_timeout = std::chrono::milliseconds{120'000};
  return cfg;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank > 0 ? rank - 1 : 0)];
}

struct Cell {
  const char* backend_name;
  const char* mode_name;
  std::size_t instances;
  double wall_ms;
  double inst_per_sec;
  double p50;
  double p99;
  std::uint64_t messages;
  std::uint64_t packets;
  double mpp;
};

/// Run one (backend, batching, K) point.  The threaded runtime is timed
/// best-of-`reps` to tame OS scheduling noise; the simulator is
/// deterministic, so one rep suffices.
Cell run_cell(harness::BackendKind backend, std::uint32_t batching,
              std::size_t instances, int reps) {
  Cell cell{};
  cell.backend_name =
      backend == harness::BackendKind::kSim ? "sim" : "thread";
  cell.mode_name = batching > 0 ? "batched" : "unbatched";
  cell.instances = instances;
  cell.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    harness::SessionOptions opts;
    opts.batching = batching;
    harness::Session session(opts);
    for (std::size_t k = 0; k < instances; ++k) {
      session.add(instance_cfg(k, backend));
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = session.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (!report.all_output) {
      std::fprintf(stderr, "f7: %s/%s K=%zu failed to complete all instances\n",
                   cell.backend_name, cell.mode_name, instances);
      std::exit(1);
    }
    if (ms < cell.wall_ms) {
      cell.wall_ms = ms;
      cell.inst_per_sec = static_cast<double>(instances) / (ms / 1e3);
      cell.p50 = percentile(report.finish_times, 0.50);
      cell.p99 = percentile(report.finish_times, 0.99);
      cell.messages = report.metrics.messages_sent;
      cell.packets = report.metrics.packets_sent;
      cell.mpp = report.msgs_per_packet;
    }
  }
  return cell;
}

/// One timed session run for the K=256 sections: FIFO scheduler, cap-8
/// batching, an explicit shard count (0 = the thread backend's default).
struct TimedSession {
  harness::SessionReport report;
  double wall_ms = 0.0;
};

TimedSession run_timed_session(harness::BackendKind backend,
                               std::size_t instances, std::uint32_t shards,
                               int reps,
                               obs::TraceSink* trace = nullptr) {
  TimedSession best;
  best.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    harness::SessionOptions opts;
    opts.batching = 8;
    opts.shards = shards;
    opts.trace = trace;
    harness::Session session(opts);
    for (std::size_t k = 0; k < instances; ++k) {
      session.add(instance_cfg(k, backend, harness::SchedKind::kFifo));
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto report = session.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (!report.all_output) {
      std::fprintf(stderr, "f7: backend=%d K=%zu shards=%u failed\n",
                   static_cast<int>(backend), instances, shards);
      std::exit(1);
    }
    if (ms < best.wall_ms) {
      best.wall_ms = ms;
      best.report = std::move(report);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonSink sink(argc, argv, "f7");
  // --trace-out <path>: dump the Chrome trace_event JSON of the traced
  // K=256 sim session from the trace_overhead section (Perfetto-loadable;
  // CI uploads it as the sample trace artifact).
  const char* trace_out = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--trace-out") trace_out = argv[i + 1];
  }
  std::printf(
      "F7 — Multi-instance AA service throughput vs concurrency.\n"
      "n=%u t=%u crash-model instances, %u fixed rounds each; finish times\n"
      "are Delta units on sim and wall seconds on thread.\n\n",
      kParties, kFaults, static_cast<unsigned>(kRounds));
  std::printf(
      "backend,mode,instances,wall_ms,inst_per_sec,p50_finish,p99_finish,"
      "messages,packets,msgs_per_packet\n");
  sink.begin_section("throughput",
                     {"backend", "mode", "instances", "wall_ms",
                      "inst_per_sec", "p50_finish", "p99_finish", "messages",
                      "packets", "msgs_per_packet"});

  // The CI smoke asserts the 16-row default shape; the thousands-scale
  // points take minutes and are opt-in.
  std::vector<std::size_t> sweep = {1, 16, 64, 256};
  if (std::getenv("APXA_F7_FULL") != nullptr) {
    sweep.push_back(1024);
    sweep.push_back(4096);
  }
  for (const auto backend :
       {harness::BackendKind::kSim, harness::BackendKind::kThread}) {
    const bool is_thread = backend == harness::BackendKind::kThread;
    for (const std::uint32_t batching : {0u, 8u}) {
      for (const std::size_t instances : sweep) {
        const Cell c = run_cell(backend, batching, instances,
                                is_thread ? (instances >= 1024 ? 1 : 3) : 1);
        std::printf("%s,%s,%zu,%.3f,%.1f,%.6f,%.6f,%llu,%llu,%.3f\n",
                    c.backend_name, c.mode_name, c.instances, c.wall_ms,
                    c.inst_per_sec, c.p50, c.p99,
                    static_cast<unsigned long long>(c.messages),
                    static_cast<unsigned long long>(c.packets), c.mpp);
        sink.add_row({c.backend_name, c.mode_name,
                      std::to_string(c.instances), bench::fmt(c.wall_ms),
                      bench::fmt(c.inst_per_sec, 1), bench::fmt(c.p50, 6),
                      bench::fmt(c.p99, 6), bench::fmt_u(c.messages),
                      bench::fmt_u(c.packets), bench::fmt(c.mpp)});
      }
    }
  }

  std::printf(
      "\nExpected shape: per K the batched and unbatched rows carry identical\n"
      "`messages` (batching is invisible to logical traffic); msgs/packet\n"
      "climbs with K as round-0 bursts fill cap-8 packets; on the threaded\n"
      "runtime the batched rows win throughput at high K (fewer packets =>\n"
      "fewer shard-mailbox lock/wake cycles).\n");

  // --- worker-pool scaling at K=256 -----------------------------------------
  //
  // Wall time as the stealing executor's worker count (shards) grows, on the
  // batched FIFO session, with its claim/steal/idle telemetry.
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::uint32_t> pool_sizes = {1, 2, 4};
  if (std::find(pool_sizes.begin(), pool_sizes.end(), hw) == pool_sizes.end()) {
    pool_sizes.push_back(hw);
  }
  std::printf(
      "\nworkers_scaling: K=256 FIFO batched session (executor telemetry)\n"
      "backend,knob,value,wall_ms,inst_per_sec,claims,steals,parties_run,"
      "idle_spins\n");
  sink.begin_section("workers_scaling",
                     {"backend", "knob", "value", "wall_ms", "inst_per_sec",
                      "claims", "steals", "parties_run", "idle_spins"});
  constexpr std::size_t kScalingK = 256;
  for (const std::uint32_t value : pool_sizes) {
    const TimedSession ts =
        run_timed_session(harness::BackendKind::kThread, kScalingK, value, 2);
    const double ips = static_cast<double>(kScalingK) / (ts.wall_ms / 1e3);
    const obs::ExecStats& es = ts.report.exec_stats;
    std::printf("thread,shards,%u,%.3f,%.1f,%llu,%llu,%llu,%llu\n", value,
                ts.wall_ms, ips, static_cast<unsigned long long>(es.claims),
                static_cast<unsigned long long>(es.steals),
                static_cast<unsigned long long>(es.parties_run),
                static_cast<unsigned long long>(es.idle_spins));
    sink.add_row({"thread", "shards", std::to_string(value),
                  bench::fmt(ts.wall_ms), bench::fmt(ips, 1),
                  bench::fmt_u(es.claims), bench::fmt_u(es.steals),
                  bench::fmt_u(es.parties_run), bench::fmt_u(es.idle_spins)});
  }

  // --- trace-recording overhead (CI-gated via compare_bench.py) -------------
  //
  // The same K=256 batched FIFO session per backend with the recorder
  // detached vs attached, run as kTracePairs alternating off/on pairs (which
  // of the two goes first alternates too); each row is the median of its
  // side.  CI splits these rows into a synthetic before/after bench-document
  // pair and fails the build if the `on` median regresses past the
  // threshold — the macro-level complement of t5's per-event
  // BM_TraceSinkRecord/BM_TraceSinkDisabled pins.  One pair of single runs
  // is too noisy for a 25% bound.
  constexpr int kTracePairs = 10;
  std::printf("\ntrace_overhead: K=256 FIFO batched session, recorder off vs on "
              "(median of %d alternating pairs)\n"
              "backend,trace,wall_ms,inst_per_sec,events\n",
              kTracePairs);
  sink.begin_section("trace_overhead",
                     {"backend", "trace", "wall_ms", "inst_per_sec", "events"});
  for (const auto backend :
       {harness::BackendKind::kSim, harness::BackendKind::kThread}) {
    const bool is_thread = backend == harness::BackendKind::kThread;
    std::vector<double> off_ms;
    std::vector<double> on_ms;
    std::unique_ptr<obs::TraceSink> trace;  // the last traced run's
    for (int pair = 0; pair < kTracePairs; ++pair) {
      for (const bool traced : {pair % 2 == 1, pair % 2 == 0}) {
        if (traced) {
          trace = std::make_unique<obs::TraceSink>();
          on_ms.push_back(
              run_timed_session(backend, kScalingK, 0, 1, trace.get()).wall_ms);
        } else {
          off_ms.push_back(run_timed_session(backend, kScalingK, 0, 1).wall_ms);
        }
      }
    }
    if (!is_thread && trace_out != nullptr) {
      if (!obs::write_text_file(trace_out,
                                obs::to_chrome_json(trace->snapshot()))) {
        std::fprintf(stderr, "f7: failed to write trace to %s\n", trace_out);
        return 1;
      }
      std::printf("(chrome trace written to %s)\n", trace_out);
    }
    for (const bool traced : {false, true}) {
      const double wall_ms = percentile(traced ? on_ms : off_ms, 0.50);
      const double ips = static_cast<double>(kScalingK) / (wall_ms / 1e3);
      const std::uint64_t events = traced ? trace->recorded() : 0;
      std::printf("%s,%s,%.3f,%.1f,%llu\n", is_thread ? "thread" : "sim",
                  traced ? "on" : "off", wall_ms, ips,
                  static_cast<unsigned long long>(events));
      sink.add_row({is_thread ? "thread" : "sim", traced ? "on" : "off",
                    bench::fmt(wall_ms), bench::fmt(ips, 1),
                    bench::fmt_u(events)});
    }
  }
  return sink.finish();
}
