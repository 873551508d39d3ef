#include "harness/session.hpp"

#include <chrono>
#include <functional>
#include <limits>
#include <utility>

#include "common/ensure.hpp"
#include "exec/transport_backend.hpp"
#include "harness/build.hpp"
#include "net/envelope.hpp"

namespace apxa::harness {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-(instance, party) decide times.  Routers write disjoint slots (their
/// own party column) from their owning delivery thread, so no lock is
/// needed; `now` reads virtual time on the simulator, wall time on the
/// threaded runtime.
struct DecideClock {
  std::function<double()> now;
  std::uint32_t n = 0;
  std::vector<double> time;  // [instance * n + party]; +inf = undecided
};

/// One wire party serving K agreement instances: demultiplexes incoming
/// envelopes to the owning sub-process and reports "decided" only when every
/// instance has.  Junk frames — truncated envelopes, out-of-range instance
/// ids, non-envelope bytes — are dropped (the decoders are total, so a
/// forger costs the honest router nothing but the lookup).
class RouterProcess final : public net::Process {
 public:
  RouterProcess(ProcessId self, std::vector<std::unique_ptr<net::Process>> subs,
                DecideClock* clock, obs::TraceSink* trace)
      : self_(self),
        subs_(std::move(subs)),
        clock_(clock),
        trace_(trace),
        decided_(subs_.size(), false) {}

  void on_start(net::Context& ctx) override {
    for (std::uint32_t i = 0; i < subs_.size(); ++i) {
      net::EnvelopeContext sub(ctx, i);
      subs_[i]->on_start(sub);
      note_decided(i);
    }
  }

  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override {
    const auto env = net::decode_envelope(payload);
    if (!env || env->instance >= subs_.size()) return;
    net::EnvelopeContext sub(ctx, env->instance);
    subs_[env->instance]->on_message(sub, from, env->payload);
    note_decided(env->instance);
  }

  [[nodiscard]] bool has_output() const override {
    for (const auto& s : subs_) {
      if (!s->has_output()) return false;
    }
    return true;
  }

 private:
  void note_decided(std::uint32_t i) {
    if (decided_[i] || !subs_[i]->has_output()) return;
    decided_[i] = true;
    const double t = clock_->now();
    clock_->time[static_cast<std::size_t>(i) * clock_->n + self_] = t;
    if (trace_) trace_->record(obs::EventKind::kInstanceFinish, self_, i, -1, t, t);
  }

  ProcessId self_;
  std::vector<std::unique_ptr<net::Process>> subs_;
  DecideClock* clock_;
  obs::TraceSink* trace_;
  std::vector<bool> decided_;
};

}  // namespace

Session::Session(SessionOptions opts) : opts_(std::move(opts)) {}

std::size_t Session::add(RunConfig cfg) {
  APXA_ENSURE(!ran_, "cannot add instances after run()");
  validate(cfg);
  instances_.push_back(Instance{std::move(cfg), std::nullopt});
  return instances_.size() - 1;
}

std::size_t Session::add(VectorRunConfig cfg) {
  APXA_ENSURE(!ran_, "cannot add instances after run()");
  validate(cfg);
  instances_.push_back(Instance{std::nullopt, std::move(cfg)});
  return instances_.size() - 1;
}

SessionReport Session::run() {
  APXA_ENSURE(!instances_.empty(), "session needs at least one instance");
  APXA_ENSURE(!ran_, "Session::run may be called once");
  ran_ = true;

  const std::size_t K = instances_.size();
  APXA_ENSURE(K <= 1u << 20, "session too large");

  const RunConfigBase& shared = instances_.front().base();
  const auto byz = byzantine_ids(shared);
  for (auto& in : instances_) {
    const RunConfigBase& c = in.base();
    APXA_ENSURE(c.params.n == shared.params.n && c.params.t == shared.params.t,
                "all session instances must share SystemParams");
    APXA_ENSURE(c.sched == shared.sched && c.seed == shared.seed,
                "all session instances must share scheduler and seed");
    APXA_ENSURE(c.backend == shared.backend,
                "all session instances must share the backend");
    APXA_ENSURE(byzantine_ids(c) == byz,
                "all session instances must share the byzantine id set");
    APXA_ENSURE(c.crashes.empty(),
                "per-instance crash plans are not multiplexable; use "
                "SessionOptions::crashes (budgets count session-wide "
                "logical sends)");
    APXA_ENSURE(!in.scalar || in.scalar->mode != core::TerminationMode::kLive,
                "kLive instances cannot be multiplexed (no output to wait on)");
  }
  for (const auto& c : opts_.crashes) {
    APXA_ENSURE(c.who < shared.params.n, "session crash id out of range");
    APXA_ENSURE(!byz.contains(c.who), "party cannot be both byz and crashed");
  }
  APXA_ENSURE(opts_.crashes.size() + byz.size() <= shared.params.t,
              "session faults cannot exceed the budget t");

  const std::uint32_t n = shared.params.n;

  // Propagate the session sink into every instance config so instance-level
  // hooks (collect kViewFreeze, finalize flight dumps) see the same trace
  // the transport records into.
  if (opts_.trace) {
    for (auto& in : instances_) in.base().trace = opts_.trace;
  }

  // NOTE: everything routers reference (traces, rows, clock) is declared
  // BEFORE the backend so it outlives the transport's worker threads.  Party
  // p's sub-processes record only into party p's column of each trace, from
  // the thread running p, so the hooks take no lock.
  std::vector<RoundTrace<double>> straces(K);
  std::vector<RoundTrace<std::vector<double>>> vtraces(K);
  std::vector<RoundTrace<std::vector<core::CollectEntry>>> viewtraces(K);

  std::vector<std::vector<std::unique_ptr<net::Process>>> rows(K);
  for (std::size_t i = 0; i < K; ++i) {
    // Traces are sized to the instance's round bound here, so recording a
    // scalar never allocates.
    if (instances_[i].scalar) {
      straces[i] = RoundTrace<double>(n, trace_rounds(*instances_[i].scalar));
      core::TraceFn fn = [&trace = straces[i]](ProcessId p, Round r, double v) {
        trace.record(p, r, v);
      };
      rows[i] = build_processes(*instances_[i].scalar, fn);
    } else {
      const Round rounds = trace_rounds(*instances_[i].vec);
      vtraces[i] = RoundTrace<std::vector<double>>(n, rounds);
      viewtraces[i] = RoundTrace<std::vector<core::CollectEntry>>(n, rounds);
      core::VecTraceFn fn = [&trace = vtraces[i]](ProcessId p, Round r,
                                                 const std::vector<double>& v) {
        trace.record(p, r, v);
      };
      core::ViewTraceFn vfn = [&trace = viewtraces[i]](
                                  ProcessId p, Round r,
                                  const std::vector<core::CollectEntry>& view) {
        trace.record(p, r, view);
      };
      rows[i] = build_processes(*instances_[i].vec, fn, vfn);
    }
  }

  DecideClock clock;
  clock.n = n;
  clock.time.assign(K * n, kInf);

  const Instance& front = instances_.front();
  const auto backend = make_backend(
      shared,
      front.scalar ? value_probe(*front.scalar) : value_probe(*front.vec),
      opts_.shards);
  if (shared.backend == BackendKind::kSim) {
    auto* sim = static_cast<exec::TransportBackend<net::SimNetwork>*>(backend.get());
    clock.now = [sim] { return sim->network().now(); };
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    clock.now = [t0] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
  }
  if (opts_.batching > 0) backend->enable_batching(opts_.batching);
  backend->set_trace(opts_.trace);

  // Routers: party p owns instance i's p-th process for every i.  Raw
  // pointers stay valid for post-run reads — the router (and the backend
  // holding it) lives until the end of this function.
  std::vector<std::vector<net::Process*>> subs(
      n, std::vector<net::Process*>(K, nullptr));
  for (ProcessId p = 0; p < n; ++p) {
    std::vector<std::unique_ptr<net::Process>> mine;
    mine.reserve(K);
    for (std::size_t i = 0; i < K; ++i) {
      subs[p][i] = rows[i][p].get();
      mine.push_back(std::move(rows[i][p]));
    }
    backend->add_process(
        std::make_unique<RouterProcess>(p, std::move(mine), &clock,
                                        opts_.trace));
  }
  for (ProcessId b : byz) backend->mark_byzantine(b);
  adversary::install(*backend, opts_.crashes);

  exec::ExecResult res = backend->run(exec_options(shared));

  SessionReport out;
  out.status = res.status;
  out.metrics = std::move(res.metrics);
  out.msgs_per_packet = out.metrics.msgs_per_packet();
  out.exec_stats = res.exec_stats;
  out.scalar_reports.resize(K);
  out.vector_reports.resize(K);
  out.finish_times.assign(K, kInf);
  out.all_output = true;

  // One synthetic ExecResult, refilled per instance with that instance's
  // outputs and decide times next to the session's status and correctness
  // flags, is fed to the same finalize() as single-instance runs.  Its
  // metrics stay empty and so do the reports': the session's transport
  // metrics are kept once, in out.metrics, which the vector finalize reads
  // for its per-phase counts.
  exec::ExecResult ri;
  ri.status = res.status;
  ri.correct = res.correct;
  ri.exec_stats = res.exec_stats;
  for (std::size_t i = 0; i < K; ++i) {
    const bool scalar = instances_[i].scalar.has_value();
    const auto decided = clock.time.begin() + static_cast<std::ptrdiff_t>(i * n);
    ri.output_times.assign(decided, decided + n);
    ri.outputs.clear();
    ri.vector_outputs.clear();
    ri.all_correct_output = true;
    for (ProcessId p = 0; p < n; ++p) {
      if (!res.correct[p]) continue;
      const net::Process& sub = *subs[p][i];
      if (!sub.has_output()) {
        ri.all_correct_output = false;
        continue;
      }
      if (scalar) {
        if (const auto y = sub.output()) ri.outputs.push_back(*y);
      } else if (auto vy = sub.vector_output()) {
        ri.vector_outputs.push_back(std::move(*vy));
      }
    }
    if (!ri.all_correct_output) out.all_output = false;
    if (scalar) {
      out.finish_times[i] =
          out.scalar_reports[i]
              .emplace(finalize(*instances_[i].scalar, ri, straces[i]))
              .finish_time;
    } else {
      out.finish_times[i] =
          out.vector_reports[i]
              .emplace(finalize(*instances_[i].vec, ri, out.metrics, vtraces[i],
                                viewtraces[i]))
              .finish_time;
    }
  }
  return out;
}

SessionReport run_session(const std::vector<RunConfig>& cfgs,
                          const SessionOptions& opts) {
  Session s(opts);
  for (const auto& c : cfgs) s.add(c);
  return s.run();
}

SessionReport run_session(const std::vector<VectorRunConfig>& cfgs,
                          const SessionOptions& opts) {
  Session s(opts);
  for (const auto& c : cfgs) s.add(c);
  return s.run();
}

}  // namespace apxa::harness
