#include "harness/build.hpp"

#include <algorithm>
#include <utility>

#include "common/ensure.hpp"
#include "core/async_byz.hpp"
#include "core/codec.hpp"
#include "core/multidim.hpp"
#include "exec/transport_backend.hpp"
#include "net/envelope.hpp"
#include "sched/clique_scheduler.hpp"
#include "sched/crash_timing_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/greedy_split_scheduler.hpp"
#include "sched/random_scheduler.hpp"
#include "witness/aad04.hpp"

namespace apxa::harness {

namespace {

// The fault-plan check both value domains share.
void validate_faults(const RunConfigBase& cfg, bool allow_excess_faults) {
  APXA_ENSURE(allow_excess_faults ||
                  cfg.crashes.size() + cfg.byz.size() <= cfg.params.t,
              "cannot exceed the fault budget t");
  std::set<ProcessId> byz;
  for (const auto& b : cfg.byz) {
    APXA_ENSURE(b.who < cfg.params.n, "byzantine id out of range");
    APXA_ENSURE(byz.insert(b.who).second, "duplicate byzantine id");
  }
  for (const auto& c : cfg.crashes) {
    APXA_ENSURE(!byz.contains(c.who), "party cannot be both byz and crashed");
  }
}

bool is_vector(ProtocolKind kind) {
  return kind == ProtocolKind::kVectorCrash ||
         kind == ProtocolKind::kVectorByz ||
         kind == ProtocolKind::kVectorConvex ||
         kind == ProtocolKind::kVectorConvexRB;
}

}  // namespace

void validate(const RunConfig& cfg) {
  APXA_ENSURE(!is_vector(cfg.protocol),
              "vector protocols take a VectorRunConfig");
  APXA_ENSURE(cfg.inputs.size() == cfg.params.n, "inputs must have size n");
  validate_faults(cfg, cfg.allow_excess_faults);
}

void validate(const VectorRunConfig& cfg) {
  APXA_ENSURE(is_vector(cfg.protocol),
              "VectorRunConfig takes a vector protocol kind");
  APXA_ENSURE((cfg.protocol != ProtocolKind::kVectorConvex &&
               cfg.protocol != ProtocolKind::kVectorConvexRB) ||
                  (cfg.params.n > 3 * cfg.params.t && cfg.params.t >= 1),
              "convex vector protocols require n > 3t, t >= 1");
  APXA_ENSURE(cfg.dim >= 1, "dimension must be positive");
  APXA_ENSURE(cfg.inputs.size() == cfg.params.n, "inputs must have n rows");
  for (const auto& row : cfg.inputs) {
    APXA_ENSURE(row.size() == cfg.dim, "every input needs `dim` coordinates");
  }
  validate_faults(cfg, false);
}

std::set<ProcessId> byzantine_ids(const RunConfigBase& cfg) {
  std::set<ProcessId> ids;
  for (const auto& b : cfg.byz) ids.insert(b.who);
  return ids;
}

namespace {

// Value-aware schedulers must stay value-aware against multiplexed sessions:
// their probe sees whole packets, so unwrap a single instance envelope
// before probing.  Batch packets stay opaque (the inner decoders reject the
// batch tag and the scheduler falls back to its value-blind delay) — one
// packet carries many instances' values, so no single probe is meaningful.
sched::ProbeFn envelope_aware(sched::ProbeFn inner) {
  return [inner = std::move(inner)](
             BytesView payload) -> std::optional<sched::ValueProbe> {
    if (net::is_envelope(payload)) {
      if (const auto env = net::decode_envelope(payload)) {
        return inner(env->payload);
      }
      return std::nullopt;
    }
    return inner(payload);
  };
}

std::unique_ptr<sched::Scheduler> scheduler_for(const RunConfigBase& cfg,
                                                sched::ProbeFn probe) {
  probe = envelope_aware(std::move(probe));
  switch (cfg.sched) {
    case SchedKind::kRandom:
      return std::make_unique<sched::RandomScheduler>(cfg.seed);
    case SchedKind::kFifo:
      return std::make_unique<sched::FifoScheduler>();
    case SchedKind::kGreedySplit:
      return std::make_unique<sched::GreedySplitScheduler>(std::move(probe),
                                                           cfg.params.n);
    case SchedKind::kTargeted:
      return std::make_unique<sched::TargetedDelayScheduler>(cfg.seed);
    case SchedKind::kClique: {
      std::set<ProcessId> clique;
      for (ProcessId p = 0; p < cfg.params.quorum(); ++p) clique.insert(p);
      return std::make_unique<sched::CliqueScheduler>(std::move(clique));
    }
  }
  APXA_ASSERT(false, "unknown scheduler kind");
}

// The staging tail both value domains share: seat the processes (or their
// substitutes) and install the fault plan.
void seat(const RunConfigBase& cfg,
          std::vector<std::unique_ptr<net::Process>> procs,
          exec::Backend& backend, const ProcessSubstitute& substitute) {
  for (ProcessId p = 0; p < procs.size(); ++p) {
    if (substitute) {
      if (auto sub = substitute(p)) procs[p] = std::move(sub);
    }
    backend.add_process(std::move(procs[p]));
  }
  for (ProcessId b : byzantine_ids(cfg)) backend.mark_byzantine(b);
  adversary::install(backend, cfg.crashes);
}

}  // namespace

sched::ProbeFn value_probe(const RunConfig& /*cfg*/) {
  return core::round_probe();
}

sched::ProbeFn value_probe(const VectorRunConfig& /*cfg*/) {
  return [](BytesView payload) -> std::optional<sched::ValueProbe> {
    if (const auto m = core::decode_vec_round(payload)) {
      if (m->second.empty()) return std::nullopt;
      return sched::ValueProbe{m->first, m->second[0]};
    }
    if (const auto rb = core::decode_rb_vec(payload)) {
      if (rb->value.empty()) return std::nullopt;
      return sched::ValueProbe{rb->instance, rb->value[0]};
    }
    return std::nullopt;
  };
}

std::unique_ptr<sched::Scheduler> make_scheduler(const RunConfig& cfg) {
  return scheduler_for(cfg, value_probe(cfg));
}

std::unique_ptr<sched::Scheduler> make_scheduler(const VectorRunConfig& cfg) {
  return scheduler_for(cfg, value_probe(cfg));
}

std::unique_ptr<exec::Backend> make_backend(const RunConfigBase& cfg,
                                            sched::ProbeFn probe,
                                            std::uint32_t shards) {
  switch (cfg.backend) {
    case BackendKind::kSim:
      return std::make_unique<exec::TransportBackend<net::SimNetwork>>(
          cfg.params, scheduler_for(cfg, std::move(probe)));
    case BackendKind::kThread: {
      auto b = std::make_unique<exec::TransportBackend<rt::ThreadNetwork>>(cfg.params);
      if (shards > 0) b->network().set_shards(shards);
      return b;
    }
    case BackendKind::kSocket: {
      auto b = std::make_unique<exec::TransportBackend<rt::SocketNetwork>>(cfg.params);
      b->network().set_fault_config(cfg.socket_faults);
      return b;
    }
  }
  APXA_ASSERT(false, "unknown backend kind");
}

exec::ExecOptions exec_options(const RunConfigBase& cfg) {
  exec::ExecOptions opts;
  opts.max_deliveries = cfg.max_deliveries;
  opts.timeout = cfg.thread_timeout;
  return opts;
}

std::vector<std::unique_ptr<net::Process>> build_processes(
    const RunConfig& cfg, const core::TraceFn& trace) {
  const auto n = cfg.params.n;
  const auto byz = byzantine_ids(cfg);
  std::vector<std::unique_ptr<net::Process>> procs;
  procs.reserve(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (byz.contains(p)) {
      const auto it = std::find_if(cfg.byz.begin(), cfg.byz.end(),
                                   [p](const auto& b) { return b.who == p; });
      if (cfg.protocol == ProtocolKind::kWitness) {
        procs.push_back(std::make_unique<adversary::ByzWitnessProcess>(*it));
      } else {
        procs.push_back(std::make_unique<adversary::ByzRoundProcess>(*it));
      }
      continue;
    }
    switch (cfg.protocol) {
      case ProtocolKind::kCrashRound:
      case ProtocolKind::kByzRound: {
        core::RoundAaConfig pc;
        pc.params = cfg.params;
        pc.input = cfg.inputs[p];
        pc.averager = cfg.protocol == ProtocolKind::kByzRound
                          ? core::Averager::kDlpswAsync
                          : cfg.averager;
        pc.mode = cfg.mode;
        pc.fixed_rounds = cfg.fixed_rounds;
        pc.epsilon = cfg.epsilon;
        pc.adaptive_slack = cfg.adaptive_slack;
        pc.byzantine_safe_estimate = cfg.protocol == ProtocolKind::kByzRound;
        pc.trace = trace;
        procs.push_back(std::make_unique<core::RoundAaProcess>(pc));
        break;
      }
      case ProtocolKind::kWitness: {
        witness::WitnessConfig wc;
        wc.params = cfg.params;
        wc.input = cfg.inputs[p];
        wc.iterations = cfg.fixed_rounds;
        wc.trace = trace;
        procs.push_back(std::make_unique<witness::WitnessAaProcess>(wc));
        break;
      }
      case ProtocolKind::kVectorCrash:
      case ProtocolKind::kVectorByz:
      case ProtocolKind::kVectorConvex:
      case ProtocolKind::kVectorConvexRB:
        APXA_ENSURE(false, "vector protocols take a VectorRunConfig");
    }
  }
  return procs;
}

std::vector<std::unique_ptr<net::Process>> build_processes(
    const VectorRunConfig& cfg, const core::VecTraceFn& trace,
    const core::ViewTraceFn& view_trace) {
  const auto n = cfg.params.n;
  const auto byz = byzantine_ids(cfg);
  const bool equalized = cfg.protocol == ProtocolKind::kVectorConvexRB;
  std::vector<std::unique_ptr<net::Process>> procs;
  procs.reserve(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (byz.contains(p)) {
      const auto it = std::find_if(cfg.byz.begin(), cfg.byz.end(),
                                   [p](const auto& b) { return b.who == p; });
      // Against the equalized-collect protocol the attacker speaks the RB
      // wire (equivocating SENDs that Bracha must neutralize); against every
      // other vector protocol it speaks direct vector rounds.
      procs.push_back(std::make_unique<adversary::ByzVectorProcess>(
          *it, cfg.dim,
          equalized ? adversary::VectorWire::kRbVec
                    : adversary::VectorWire::kDirect));
      continue;
    }
    core::VectorAaConfig pc;
    pc.params = cfg.params;
    pc.dim = cfg.dim;
    pc.input = cfg.inputs[p];
    pc.fixed_rounds = cfg.fixed_rounds;
    if (cfg.protocol == ProtocolKind::kVectorConvex || equalized) {
      // Safe-area averaging (geom/safe_area.hpp): convex validity instead of
      // the box-only guarantee of per-coordinate laundering.  The collect
      // engine is the difference between the two kinds (core/collect.hpp).
      pc.rule = geom::SafeAreaOptions{};
      if (equalized) pc.collect = core::CollectMode::kEqualized;
    } else if (cfg.protocol == ProtocolKind::kVectorByz) {
      // Per-coordinate laundering with the byzantine-safe DLPSW rule,
      // mirroring the scalar kByzRound path (box validity only).
      pc.rule = core::Averager::kDlpswAsync;
    } else {
      pc.rule = cfg.averager;
    }
    pc.trace = trace;
    pc.view_trace = view_trace;
    pc.trace_sink = cfg.trace;
    procs.push_back(std::make_unique<core::VectorAaProcess>(pc));
  }
  return procs;
}

void stage(const RunConfig& cfg, const core::TraceFn& trace,
           exec::Backend& backend, const ProcessSubstitute& substitute) {
  validate(cfg);
  seat(cfg, build_processes(cfg, trace), backend, substitute);
}

void stage(const VectorRunConfig& cfg, const core::VecTraceFn& trace,
           exec::Backend& backend, const core::ViewTraceFn& view_trace) {
  validate(cfg);
  seat(cfg, build_processes(cfg, trace, view_trace), backend, {});
}

net::DoneProbe make_done_predicate(const RunConfig& cfg) {
  if (cfg.mode != core::TerminationMode::kLive) return {};
  // Live protocols never output; a party is done once it has entered
  // round/iteration `fixed_rounds` (the observation horizon).
  const Round horizon = cfg.fixed_rounds;
  if (cfg.protocol == ProtocolKind::kWitness) {
    return [horizon](const net::Process& pr) {
      const auto& w = dynamic_cast<const witness::WitnessAaProcess&>(pr);
      return w.current_iteration() >= horizon;
    };
  }
  return [horizon](const net::Process& pr) {
    const auto& r = dynamic_cast<const core::RoundAaProcess&>(pr);
    return r.current_round() >= horizon;
  };
}

}  // namespace apxa::harness