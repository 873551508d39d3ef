// T1 — Per-round convergence factors: predicted vs analytic worst case vs
// measured worst case, for every protocol/model in the library.
//
// This is the headline table: the 1987 result is that the crash-model mean
// rule converges at Theta(n/t) per asynchronous round (growing with n/t),
// while halving-style and byzantine rules sit near constant factors.
//
// Columns:
//   predicted — the reconstructed theorem value (src/core/bounds.*)
//   analytic  — exact adversarial one-round optimum (src/analysis/worst_case.*;
//               async round-based models only)
//   measured  — worst factor observed in full executions across schedulers
//               (random, fifo, greedy split-brain) and seeds
#include <cstdio>

#include "analysis/worst_case.hpp"
#include "bench_util.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "core/sync_engine.hpp"

namespace apxa {
namespace {

using namespace core;
using namespace harness;
using bench::fmt;
using bench::Table;

const std::vector<SchedKind> kScheds{SchedKind::kRandom, SchedKind::kFifo,
                                     SchedKind::kGreedySplit, SchedKind::kClique};

std::string analytic_factor(SystemParams p, Averager a, std::uint32_t byz) {
  analysis::WorstCaseQuery q;
  q.params = p;
  q.averager = a;
  q.byz_count = byz;
  return fmt(analysis::worst_one_round_factor(q).worst_factor);
}

bench::MeasuredRate measured_async(SystemParams p, ProtocolKind kind, Averager a,
                                   std::uint32_t byz_count) {
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = kind;
  cfg.averager = a;
  for (std::uint32_t i = 0; i < byz_count; ++i) {
    adversary::ByzSpec s;
    s.who = i;  // low ids: spread across both camps' extremes
    s.kind = adversary::ByzKind::kSpoiler;
    s.seed = i + 1;
    cfg.byz.push_back(s);
  }
  return bench::measure_worst_rate_over_inputs(cfg, /*horizon=*/5, kScheds,
                                               /*seeds=*/4);
}

double measured_sync_crash(SystemParams p) {
  // Adversary: all t crashes in round 0, each reaching only the low half.
  SyncConfig cfg;
  cfg.params = p;
  cfg.inputs = split_inputs(p.n, p.n / 2, 0.0, 1.0);
  cfg.averager = Averager::kMean;
  cfg.rounds = 1;
  std::vector<ProcessId> low_half;
  for (ProcessId q = 0; q < p.n / 2; ++q) low_half.push_back(q);
  for (std::uint32_t i = 0; i < p.t; ++i) {
    cfg.crashes.push_back(SyncCrash{static_cast<ProcessId>(p.n - 1 - i), 0, low_half});
  }
  const auto res = run_sync(cfg);
  if (res.spread_by_round.size() < 2 || res.spread_by_round[1] <= 0.0) return 0.0;
  return res.spread_by_round[0] / res.spread_by_round[1];
}

double measured_sync_byz(SystemParams p) {
  SyncConfig cfg;
  cfg.params = p;
  cfg.inputs = split_inputs(p.n, p.n / 2, 0.0, 1.0);
  cfg.averager = Averager::kDlpswSync;
  cfg.rounds = 1;
  for (std::uint32_t i = 0; i < p.t; ++i) {
    adversary::ByzSpec s;
    s.who = static_cast<ProcessId>(p.n - 1 - i);
    s.kind = adversary::ByzKind::kSpoiler;
    s.seed = i + 1;
    cfg.byz.push_back(s);
  }
  const auto res = run_sync(cfg);
  if (res.spread_by_round.size() < 2 || res.spread_by_round[1] <= 0.0) return 0.0;
  return res.spread_by_round[0] / res.spread_by_round[1];
}

void emit(Table& tab, const std::string& proto, SystemParams p,
          const std::string& predicted, const std::string& analytic,
          const std::string& measured) {
  tab.add_row({proto, std::to_string(p.n), std::to_string(p.t),
               fmt(static_cast<double>(p.n) / p.t, 1), predicted, analytic,
               measured});
}

}  // namespace
}  // namespace apxa

int main(int argc, char** argv) {
  using namespace apxa;
  using namespace apxa::core;
  using namespace apxa::harness;
  bench::JsonSink sink(argc, argv, "t1");
  std::printf(
      "T1 — Per-round convergence factor K (bigger = faster).\n"
      "predicted = reconstructed theorem; analytic = exact one-round adversarial\n"
      "optimum; measured = worst sustained factor seen in executions (over\n"
      "random/fifo/greedy/clique schedulers x 4 seeds x 6 input families).\n\n");

  bench::Table tab({"protocol", "n", "t", "n/t", "predicted", "analytic", "measured"});

  // Async crash-model rules (the paper's subject).
  for (auto [n, t] : {std::pair{4u, 1u}, {7u, 2u}, {10u, 3u}, {16u, 3u},
                      {16u, 5u}, {31u, 10u}, {32u, 6u}}) {
    const SystemParams p{n, t};
    const auto m = measured_async(p, ProtocolKind::kCrashRound, Averager::kMean, 0);
    emit(tab, "async-crash/mean", p,
         bench::fmt(predicted_factor_crash_async_mean(n, t)),
         analytic_factor(p, Averager::kMean, 0),
         m.measurable ? bench::fmt(m.sustained_min) : "inst");
  }
  for (auto [n, t] : {std::pair{4u, 1u}, {10u, 3u}, {16u, 3u}, {31u, 10u}}) {
    const SystemParams p{n, t};
    const auto m =
        measured_async(p, ProtocolKind::kCrashRound, Averager::kMidpoint, 0);
    emit(tab, "async-crash/midpoint", p, bench::fmt(predicted_factor_midpoint()),
         analytic_factor(p, Averager::kMidpoint, 0),
         m.measurable ? bench::fmt(m.sustained_min) : "inst");
  }
  // Sync models (baselines).
  for (auto [n, t] : {std::pair{4u, 1u}, {10u, 3u}, {16u, 3u}, {32u, 6u}}) {
    const SystemParams p{n, t};
    emit(tab, "sync-crash/mean", p,
         bench::fmt(predicted_factor_crash_sync_mean(n, t)), "-",
         bench::fmt(measured_sync_crash(p)));
  }
  for (auto [n, t] : {std::pair{4u, 1u}, {10u, 3u}, {16u, 3u}, {32u, 6u}}) {
    const SystemParams p{n, t};
    emit(tab, "sync-byz/dlpsw", p, bench::fmt(predicted_factor_dlpsw_sync(n, t)),
         "-", bench::fmt(measured_sync_byz(p)));
  }
  // Async byzantine round-based (t < n/5).
  for (auto [n, t] : {std::pair{6u, 1u}, {11u, 2u}, {16u, 3u}, {32u, 6u}}) {
    const SystemParams p{n, t};
    const auto m =
        measured_async(p, ProtocolKind::kByzRound, Averager::kDlpswAsync, t);
    emit(tab, "async-byz/dlpsw", p, bench::fmt(predicted_factor_dlpsw_async(n, t)),
         analytic_factor(p, Averager::kDlpswAsync, t),
         m.measurable ? bench::fmt(m.sustained_min) : "inst");
  }
  // Witness technique (t < n/3, follow-on).
  for (auto [n, t] : {std::pair{4u, 1u}, {10u, 3u}, {16u, 5u}, {31u, 10u}}) {
    const SystemParams p{n, t};
    const auto m = measured_async(p, ProtocolKind::kWitness,
                                  Averager::kReduceMidpoint, t);
    emit(tab, "async-byz/witness", p, bench::fmt(predicted_factor_witness()), "-",
         m.measurable ? bench::fmt(m.sustained_min) : "inst");
  }

  tab.print();
  sink.add_table("convergence_factors", tab);
  std::printf(
      "\nExpected shape: async-crash/mean grows ~ (n-t)/t with n/t; midpoint and\n"
      "byzantine rules stay near small constants; witness pins 2 regardless of n/t\n"
      "('inst' = converged within one round in every execution tried).\n");
  return sink.finish();
}
