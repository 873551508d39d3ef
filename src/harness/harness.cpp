#include "harness/harness.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <vector>

#include "common/ensure.hpp"
#include "core/bounds.hpp"
#include "core/codec.hpp"
#include "geom/geom.hpp"
#include "geom/safe_area.hpp"
#include "harness/build.hpp"
#include "obs/flight_recorder.hpp"

namespace apxa::harness {

namespace {

// Verdict-failure flight dump: opt-in via cfg.flight_dump + cfg.trace.  Runs
// in finalize, after the backend has returned (its worker threads joined),
// so the snapshot races with nothing.
void maybe_dump_flight(const obs::TraceSink* sink, const std::string& path,
                       bool validity_ok, bool agreement_ok,
                       const std::vector<std::string>& transport_state) {
  if (!sink || path.empty() || (validity_ok && agreement_ok)) return;
  const char* reason = !validity_ok ? "validity verdict failed"
                                    : "eps-agreement verdict failed";
  obs::dump_flight_record(sink, path, reason,
                          obs::kDefaultFlightEventsPerParty, transport_state);
}

// The report fields every value domain fills the same way.
void finalize_common(RunReportBase& rep, const exec::ExecResult& res,
                     const net::Metrics& metrics) {
  rep.status = res.status;
  rep.all_output = res.all_correct_output;
  rep.metrics = metrics;
  rep.exec_stats = res.exec_stats;
  for (ProcessId p = 0; p < res.correct.size(); ++p) {
    if (res.correct[p]) {
      rep.finish_time = std::max(rep.finish_time, res.output_times[p]);
    }
  }
}

// Inputs of every non-byzantine party: the validity reference.  Crash
// faults do not lie, so crashed parties' genuine inputs legitimately bound
// outputs.
template <typename Config>
auto honest_inputs(const Config& cfg) {
  const auto byz = byzantine_ids(cfg);
  decltype(cfg.inputs) out;
  for (ProcessId p = 0; p < cfg.params.n; ++p) {
    if (!byz.contains(p)) out.push_back(cfg.inputs[p]);
  }
  return out;
}

}  // namespace

Round trace_rounds(const RunConfig& cfg) {
  // Round protocols in adaptive mode stop by budget_cap (build_processes
  // keeps its default); everything else by fixed_rounds.  Both trace the
  // value they finish with at the bound itself.
  const bool adaptive = cfg.mode == core::TerminationMode::kAdaptive &&
                        cfg.protocol != ProtocolKind::kWitness;
  const Round bound =
      adaptive ? std::max<Round>(core::RoundAaConfig{}.budget_cap, 1) : cfg.fixed_rounds;
  return bound + 1;
}

Round trace_rounds(const VectorRunConfig& cfg) { return cfg.fixed_rounds + 1; }

std::unique_ptr<exec::Backend> make_backend(const RunConfig& cfg) {
  return make_backend(cfg, value_probe(cfg));
}

RunReport execute(const RunConfig& cfg, exec::Backend& backend,
                  const ProcessSubstitute& substitute) {
  // Trace: values at round entry, per party.  Worker threads of the threaded
  // backend invoke the hook concurrently, hence the mutex (uncontended and
  // irrelevant for timing on the simulator).
  RoundTrace<double> trace(cfg.params.n, trace_rounds(cfg));
  std::mutex trace_mu;
  obs::TraceSink* sink = cfg.trace;
  core::TraceFn trace_fn = [&trace, &trace_mu, sink](ProcessId p, Round r,
                                                     double v) {
    if (sink) {
      sink->record(obs::EventKind::kRoundAdvance, p, 0,
                   static_cast<std::int64_t>(r), v, 0.0);
    }
    std::scoped_lock lock(trace_mu);
    trace.record(p, r, v);
  };

  backend.set_trace(cfg.trace);
  stage(cfg, trace_fn, backend, substitute);

  exec::ExecOptions opts = exec_options(cfg);
  opts.done = make_done_predicate(cfg);
  const exec::ExecResult res = backend.run(opts);
  return finalize(cfg, res, res.metrics, trace);
}

RunReport finalize(const RunConfig& cfg, const exec::ExecResult& res,
                   const net::Metrics& metrics, const RoundTrace<double>& trace) {
  const auto n = cfg.params.n;
  RunReport rep;
  rep.outputs = res.outputs;
  finalize_common(rep, res, metrics);

  const core::Interval hull = core::hull_of(honest_inputs(cfg));

  rep.validity_ok = std::all_of(rep.outputs.begin(), rep.outputs.end(),
                                [&hull](double y) { return hull.contains(y); });
  {
    std::vector<double> sorted = rep.outputs;
    std::sort(sorted.begin(), sorted.end());
    rep.worst_pair_gap = core::spread(sorted);
    rep.agreement_ok = rep.worst_pair_gap <= cfg.epsilon + 1e-12;
  }

  // Per-round spreads over parties that stayed correct to the end.
  std::vector<double> vals;
  vals.reserve(n);
  for (Round round = 0; round < trace.rounds(); ++round) {
    vals.clear();
    for (ProcessId p = 0; p < n; ++p) {
      if (res.correct[p] && trace.has(round, p)) vals.push_back(trace.at(round, p));
    }
    if (vals.empty()) continue;
    std::sort(vals.begin(), vals.end());
    rep.spread_by_round.push_back(core::spread(vals));
    rep.max_round_reached = std::max(rep.max_round_reached, round);
  }
  for (std::size_t r = 0; r + 1 < rep.spread_by_round.size(); ++r) {
    const double a = rep.spread_by_round[r];
    const double b = rep.spread_by_round[r + 1];
    if (a > 0.0 && b > 0.0) rep.round_factors.push_back(a / b);
  }
  maybe_dump_flight(cfg.trace, cfg.flight_dump, rep.validity_ok,
                    rep.agreement_ok, res.transport_state);
  return rep;
}

RunReport run(const RunConfig& cfg) {
  const auto backend = make_backend(cfg);
  return execute(cfg, *backend);
}

std::unique_ptr<exec::Backend> make_backend(const VectorRunConfig& cfg) {
  return make_backend(cfg, value_probe(cfg));
}

VectorRunReport execute(const VectorRunConfig& cfg, exec::Backend& backend) {
  // Per-round vectors at round entry, per party; same concurrency contract
  // as the scalar trace (worker threads of the threaded backend invoke the
  // hook concurrently).
  RoundTrace<std::vector<double>> trace(cfg.params.n, trace_rounds(cfg));
  std::mutex trace_mu;
  obs::TraceSink* sink = cfg.trace;
  core::VecTraceFn trace_fn = [&trace, &trace_mu, sink](
                                  ProcessId p, Round r,
                                  const std::vector<double>& v) {
    if (sink) {
      // Scalar slot carries the first coordinate — enough to follow a
      // party's trajectory in a trace viewer without widening the event.
      sink->record(obs::EventKind::kRoundAdvance, p, 0,
                   static_cast<std::int64_t>(r), v.empty() ? 0.0 : v[0], 0.0);
    }
    std::scoped_lock lock(trace_mu);
    trace.record(p, r, v);
  };

  // Frozen-view trace: what each honest party's round-r view actually
  // contained, for the view-overlap verdict.
  ViewTrace views;
  std::mutex views_mu;
  core::ViewTraceFn view_fn =
      [&views, &views_mu](ProcessId p, Round r,
                          const std::vector<core::CollectEntry>& view) {
        std::scoped_lock lock(views_mu);
        views[r][p] = view;
      };

  backend.set_trace(cfg.trace);
  stage(cfg, trace_fn, backend, view_fn);

  const exec::ExecResult res = backend.run(exec_options(cfg));
  return finalize(cfg, res, res.metrics, trace, views);
}

VectorRunReport finalize(const VectorRunConfig& cfg, const exec::ExecResult& res,
                         const net::Metrics& metrics,
                         const RoundTrace<std::vector<double>>& trace,
                         const ViewTrace& views) {
  const auto n = cfg.params.n;
  VectorRunReport rep;
  rep.outputs = res.vector_outputs;
  finalize_common(rep, res, metrics);

  // Box validity: the bounding box of the honest inputs.  Byzantine
  // laundering gives the box, not the convex hull — see geom/geom.hpp.
  const auto honest = honest_inputs(cfg);
  const geom::Box box = geom::box_hull(honest);
  rep.box_validity_ok =
      std::all_of(rep.outputs.begin(), rep.outputs.end(),
                  [&box](const std::vector<double>& y) { return box.contains(y); });

  // Convex-hull validity (LP point-in-hull test, geom/safe_area.hpp) on
  // EVERY vector run: the guarantee kVectorConvex targets, and on
  // kVectorCrash/kVectorByz the diagnostic that quantifies how often
  // box-valid outputs escape the honest hull (bench/f6_multidim).
  for (const auto& y : rep.outputs) {
    if (!geom::in_convex_hull(y, honest)) ++rep.outputs_outside_hull;
  }
  rep.convex_validity_ok = rep.outputs_outside_hull == 0;

  rep.worst_linf_gap = geom::linf_spread(rep.outputs);
  rep.worst_l2_gap = geom::l2_spread(rep.outputs);
  rep.agreement_ok = rep.worst_linf_gap <= cfg.epsilon + 1e-12;

  // Per-round L-infinity spreads over parties that stayed correct.
  std::vector<std::vector<double>> vals;
  for (Round round = 0; round < trace.rounds(); ++round) {
    vals.clear();
    for (ProcessId p = 0; p < n; ++p) {
      if (res.correct[p] && trace.has(round, p)) vals.push_back(trace.at(round, p));
    }
    if (vals.empty()) continue;
    rep.linf_spread_by_round.push_back(geom::linf_spread(vals));
    rep.max_round_reached = std::max(rep.max_round_reached, round);
  }
  for (std::size_t r = 0; r < rep.linf_spread_by_round.size(); ++r) {
    if (rep.linf_spread_by_round[r] <= cfg.epsilon + 1e-12) {
      rep.rounds_to_eps = static_cast<Round>(r);
      rep.reached_eps = true;
      break;
    }
  }

  // View overlap between correct parties' frozen views.  Entries match when
  // origin and value agree bitwise — under the equalized collect two
  // matching entries really are the same RB delivery.
  rep.view_overlap_min = n;
  for (const auto& [round, by_party] : views) {
    std::vector<const std::vector<core::CollectEntry>*> correct_views;
    for (const auto& [p, view] : by_party) {
      if (res.correct[p]) correct_views.push_back(&view);
    }
    for (std::size_t a = 0; a < correct_views.size(); ++a) {
      for (std::size_t b = a + 1; b < correct_views.size(); ++b) {
        std::uint32_t common = 0;
        for (const auto& ea : *correct_views[a]) {
          for (const auto& eb : *correct_views[b]) {
            if (ea.origin == eb.origin) {
              if (ea.value == eb.value) ++common;
              break;
            }
          }
        }
        rep.view_overlap_measured = true;
        rep.view_overlap_min = std::min(rep.view_overlap_min, common);
      }
    }
  }
  rep.view_overlap_ok =
      rep.view_overlap_measured && rep.view_overlap_min >= cfg.params.quorum();
  if (!rep.view_overlap_measured) rep.view_overlap_min = 0;

  // Phase attribution from the transport's per-tag counters.
  const auto& tags = rep.metrics.sent_by_tag;
  const auto tag = [&tags](core::MsgType t) {
    return tags[static_cast<std::size_t>(t)];
  };
  rep.msgs_value = tag(core::MsgType::kRound) + tag(core::MsgType::kVecRound);
  rep.msgs_rb_send =
      tag(core::MsgType::kRbSend) + tag(core::MsgType::kRbVecSend);
  rep.msgs_rb_echo =
      tag(core::MsgType::kRbEcho) + tag(core::MsgType::kRbVecEcho);
  rep.msgs_rb_ready =
      tag(core::MsgType::kRbReady) + tag(core::MsgType::kRbVecReady);
  rep.msgs_report = tag(core::MsgType::kReport);
  const bool valid = rep.box_validity_ok &&
                     (rep.convex_validity_ok ||
                      (cfg.protocol != ProtocolKind::kVectorConvex &&
                       cfg.protocol != ProtocolKind::kVectorConvexRB));
  maybe_dump_flight(cfg.trace, cfg.flight_dump, valid, rep.agreement_ok,
                    res.transport_state);
  return rep;
}

VectorRunReport run(const VectorRunConfig& cfg) {
  const auto backend = make_backend(cfg);
  return execute(cfg, *backend);
}

}  // namespace apxa::harness
