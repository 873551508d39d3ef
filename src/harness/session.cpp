#include "harness/session.hpp"

#include <chrono>
#include <functional>
#include <limits>
#include <mutex>
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
  std::vector<std::vector<double>> time;  // [instance][party]; +inf = undecided
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
    clock_->time[i][self_] = t;
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
  // BEFORE the backend so it outlives the transport's worker threads.
  std::vector<RoundTrace<double>> straces(K);
  std::vector<RoundTrace<std::vector<double>>> vtraces(K);
  std::vector<ViewTrace> viewtraces(K);
  std::mutex trace_mu;

  std::vector<std::vector<std::unique_ptr<net::Process>>> rows(K);
  for (std::size_t i = 0; i < K; ++i) {
    // Traces are sized to the instance's round bound here, so recording a
    // scalar under the lock never allocates.
    if (instances_[i].scalar) {
      straces[i] = RoundTrace<double>(n, trace_rounds(*instances_[i].scalar));
      core::TraceFn fn = [&straces, &trace_mu, i](ProcessId p, Round r,
                                                  double v) {
        std::scoped_lock lock(trace_mu);
        straces[i].record(p, r, v);
      };
      rows[i] = build_processes(*instances_[i].scalar, fn);
    } else {
      vtraces[i] = RoundTrace<std::vector<double>>(
          n, trace_rounds(*instances_[i].vec));
      core::VecTraceFn fn = [&vtraces, &trace_mu, i](
                                ProcessId p, Round r,
                                const std::vector<double>& v) {
        std::scoped_lock lock(trace_mu);
        vtraces[i].record(p, r, v);
      };
      core::ViewTraceFn vfn =
          [&viewtraces, &trace_mu, i](
              ProcessId p, Round r,
              const std::vector<core::CollectEntry>& view) {
            std::scoped_lock lock(trace_mu);
            viewtraces[i][r][p] = view;
          };
      rows[i] = build_processes(*instances_[i].vec, fn, vfn);
    }
  }

  DecideClock clock;
  clock.time.assign(K, std::vector<double>(n, kInf));

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

  const exec::ExecResult res = backend->run(exec_options(shared));

  SessionReport out;
  out.status = res.status;
  out.metrics = res.metrics;
  out.msgs_per_packet = res.metrics.msgs_per_packet();
  out.exec_stats = res.exec_stats;
  out.scalar_reports.resize(K);
  out.vector_reports.resize(K);
  out.finish_times.assign(K, kInf);
  out.all_output = true;

  for (std::size_t i = 0; i < K; ++i) {
    // Synthetic per-instance ExecResult: this instance's outputs and decide
    // times and the session's correctness flags, fed to the same finalize()
    // as single-instance runs together with the session's transport metrics.
    exec::ExecResult ri;
    ri.status = res.status;
    ri.correct = res.correct;
    ri.output_times = clock.time[i];
    ri.exec_stats = res.exec_stats;
    ri.all_correct_output = true;
    for (ProcessId p = 0; p < n; ++p) {
      if (!res.correct[p]) continue;
      const net::Process& sub = *subs[p][i];
      if (!sub.has_output()) {
        ri.all_correct_output = false;
        continue;
      }
      if (const auto y = sub.output()) ri.outputs.push_back(*y);
      if (auto vy = sub.vector_output()) {
        ri.vector_outputs.push_back(std::move(*vy));
      }
    }
    if (!ri.all_correct_output) out.all_output = false;
    if (instances_[i].scalar) {
      RunReport r = finalize(*instances_[i].scalar, ri, res.metrics, straces[i]);
      out.finish_times[i] = r.finish_time;
      out.scalar_reports[i] = std::move(r);
    } else {
      VectorRunReport r =
          finalize(*instances_[i].vec, ri, res.metrics, vtraces[i], viewtraces[i]);
      out.finish_times[i] = r.finish_time;
      out.vector_reports[i] = std::move(r);
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
