// Workload table, request generation and request execution.
//
// Only the stable public entry points are called: harness::Session,
// harness::make_backend and harness::execute.  No knob is set: sim_workers,
// shards and the APXA_* environment stay at their defaults, so a change of a
// default shows up in the numbers.
#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "bench.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"
#include "harness/session.hpp"

namespace aabench {

namespace {

namespace harness = apxa::harness;
using harness::BackendKind;
using harness::ProtocolKind;

constexpr double kEpsilon = 1e-3;

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
}

double ms_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// The witness budget: enough halving iterations to take its input range
/// [0, 1) below epsilon, so eps-agreement is a guaranteed verdict.
std::uint32_t witness_iterations() {
  return apxa::core::rounds_needed(1.0, kEpsilon,
                                   apxa::core::predicted_factor_witness());
}

std::vector<apxa::adversary::ByzSpec> attackers(const Request& r,
                                                apxa::adversary::ByzKind kind) {
  std::vector<apxa::adversary::ByzSpec> out;
  for (const ProcessId who : r.byzantine) {
    apxa::adversary::ByzSpec b;
    b.who = who;
    b.kind = kind;
    b.seed = r.seed + who;
    out.push_back(b);
  }
  return out;
}

harness::RunConfig scalar_config(const Workload& w, const Request& r,
                                 std::size_t row) {
  harness::RunConfig cfg;
  cfg.params = {w.n, w.t};
  cfg.protocol = w.shape == Shape::kWitness ? ProtocolKind::kWitness
                                            : ProtocolKind::kCrashRound;
  cfg.fixed_rounds = w.rounds;
  cfg.epsilon = kEpsilon;
  const auto first = r.values.begin() + static_cast<std::ptrdiff_t>(row * w.n);
  cfg.inputs.assign(first, first + w.n);
  cfg.sched = harness::SchedKind::kRandom;
  cfg.seed = r.seed;
  cfg.backend = w.backend;
  cfg.socket_faults.loss = w.loss;
  cfg.socket_faults.seed = r.seed;
  if (w.shape == Shape::kWitness) {
    cfg.byz = attackers(r, apxa::adversary::ByzKind::kEquivocate);
  }
  return cfg;
}

Outcome run_session(const Workload& w, const Request& r,
                    apxa::obs::TraceSink* sink) {
  Outcome out;
  const std::uint64_t t0 = now_ns();
  harness::SessionOptions opts;
  opts.batching = w.batching;
  if (w.crash) {
    opts.crashes = {apxa::adversary::CrashSpec{w.n - 1, 3ull * w.instances, {}}};
  }
  opts.trace = sink;
  std::uint64_t t1 = 0;
  {
    harness::Session session(opts);
    for (std::size_t k = 0; k < w.instances; ++k) {
      session.add(scalar_config(w, r, k));
    }
    t1 = now_ns();
    harness::SessionReport rep = session.run();
    for (const auto& ir : rep.scalar_reports) {
      if (!ir || !ir->all_output || !ir->validity_ok) ++out.failed;
    }
    out.metrics = std::move(rep.metrics);
    out.exec = rep.exec_stats;
    out.finish = std::move(rep.finish_times);
  }  // tearing down the session and its reports is part of the request
  const std::uint64_t t2 = now_ns();

  out.phases = {{"stage", t0, t1, 0}, {"run", t1, t2, 0}};
  out.stage_ms = ms_between(t0, t1);
  out.run_ms = ms_between(t1, t2);
  out.run_start_ns = t1;
  out.instances = w.instances;
  return out;
}

Outcome run_witness(const Workload& w, const Request& r,
                    apxa::obs::TraceSink* sink) {
  Outcome out;
  const std::uint64_t t0 = now_ns();
  harness::RunConfig cfg = scalar_config(w, r, 0);
  cfg.trace = sink;
  const std::uint64_t t1 = now_ns();
  std::uint64_t t2 = 0;
  {
    harness::RunReport rep;
    {
      const auto backend = harness::make_backend(cfg);
      t2 = now_ns();
      rep = harness::execute(cfg, *backend);
    }
    out.failed = rep.all_output && rep.validity_ok && rep.agreement_ok ? 0 : 1;
    out.metrics = std::move(rep.metrics);
    out.exec = rep.exec_stats;
    out.finish = {rep.finish_time};
  }  // tearing down the backend and the report is part of the request
  const std::uint64_t t3 = now_ns();

  out.phases = {{"stage", t0, t1, 0}, {"make_backend", t1, t2, 0},
                {"execute", t2, t3, 0}};
  out.stage_ms = ms_between(t0, t1);
  out.make_backend_ms = ms_between(t1, t2);
  out.run_ms = ms_between(t2, t3);
  out.run_start_ns = t2;
  out.instances = 1;
  return out;
}

Outcome run_convex(const Workload& w, const Request& r,
                   apxa::obs::TraceSink* sink) {
  Outcome out;
  const std::uint64_t t0 = now_ns();
  harness::VectorRunConfig cfg;
  cfg.params = {w.n, w.t};
  cfg.protocol = ProtocolKind::kVectorConvex;
  cfg.dim = w.dim;
  cfg.fixed_rounds = w.rounds;
  cfg.epsilon = kEpsilon;
  for (std::size_t p = 0; p < w.n; ++p) {
    const auto first = r.values.begin() + static_cast<std::ptrdiff_t>(p * w.dim);
    cfg.inputs.emplace_back(first, first + w.dim);
  }
  cfg.sched = harness::SchedKind::kRandom;
  cfg.seed = r.seed;
  cfg.byz = attackers(r, apxa::adversary::ByzKind::kHullEscape);
  cfg.backend = w.backend;
  cfg.trace = sink;
  const std::uint64_t t1 = now_ns();
  std::uint64_t t2 = 0;
  {
    harness::VectorRunReport rep;
    {
      const auto backend = harness::make_backend(cfg);
      t2 = now_ns();
      rep = harness::execute(cfg, *backend);
    }
    // Fixed rounds do not guarantee eps-agreement here, so it is not judged.
    out.failed =
        rep.all_output && rep.box_validity_ok && rep.convex_validity_ok ? 0 : 1;
    out.metrics = std::move(rep.metrics);
    out.exec = rep.exec_stats;
    out.finish = {rep.finish_time};
  }
  const std::uint64_t t3 = now_ns();

  out.phases = {{"stage", t0, t1, 0}, {"make_backend", t1, t2, 0},
                {"execute", t2, t3, 0}};
  out.stage_ms = ms_between(t0, t1);
  out.make_backend_ms = ms_between(t1, t2);
  out.run_ms = ms_between(t2, t3);
  out.run_start_ns = t2;
  out.instances = 1;
  return out;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const std::vector<Workload>& workloads() {
  // convex_lp_n13 runs at t = 1 with one attacker: at t = 2
  // geom::tverberg_point now and then returns a point outside its view, which
  // safe_midpoint adopts unchecked, and about one instance in 1,500 ends
  // outside the honest hull, with or without faults (README, "Workloads").
  // A workload's operations must all succeed.
  //
  // name, shape, backend, n, t, K, rounds, dim, batching, crash, loss,
  // byzantine, input range, nominal requests/s.
  static const std::vector<Workload> all = {
      {"svc_thread", Shape::kSession, BackendKind::kThread, 4, 1, 256, 4, 1, 8,
       true, 0.0, 0, 0.0, 1.0, 90.0},
      {"svc_sim", Shape::kSession, BackendKind::kSim, 4, 1, 256, 4, 1, 0, false,
       0.0, 0, 0.0, 1.0, 75.0},
      {"svc_socket_loss10", Shape::kSession, BackendKind::kSocket, 4, 1, 256, 4,
       1, 8, true, 0.10, 0, 0.0, 1.0, 45.0},
      {"witness_byz_n16", Shape::kWitness, BackendKind::kSim, 16, 5, 1,
       witness_iterations(), 1, 0, false, 0.0, 5, 0.0, 1.0, 7.0},
      {"convex_lp_n13", Shape::kConvex, BackendKind::kSim, 13, 1, 1, 10, 3, 0,
       false, 0.0, 1, -5.0, 5.0, 150.0},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Request make_request(const Workload& w, std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull;
  state ^= splitmix(state) + index * 0xD1B54A32D192ED03ull;
  Request r;
  r.seed = splitmix(state);
  const std::size_t rows = w.shape == Shape::kSession ? w.instances : 1;
  r.values.resize(rows * w.n * w.dim);
  for (double& v : r.values) {
    v = w.input_lo + (w.input_hi - w.input_lo) * uniform01(state);
  }
  std::vector<ProcessId> ids(w.n);
  std::iota(ids.begin(), ids.end(), 0u);
  for (std::size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[splitmix(state) % (i + 1)]);
  }
  r.byzantine.assign(ids.begin(), ids.begin() + w.byzantine);
  std::sort(r.byzantine.begin(), r.byzantine.end());
  return r;
}

Outcome execute_request(const Workload& w, const Request& r,
                        apxa::obs::TraceSink* sink) {
  switch (w.shape) {
    case Shape::kSession:
      return run_session(w, r, sink);
    case Shape::kWitness:
      return run_witness(w, r, sink);
    case Shape::kConvex:
      return run_convex(w, r, sink);
  }
  return {};
}

double time_make_backend(const Workload& w, const Request& r) {
  const harness::RunConfig cfg = scalar_config(w, r, 0);
  const std::uint64_t t0 = now_ns();
  const auto backend = harness::make_backend(cfg);
  return ms_between(t0, now_ns());
}

}  // namespace aabench
