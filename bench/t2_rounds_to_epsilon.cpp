// T2 — Rounds needed for eps-agreement as a function of the spread-to-eps
// ratio, measured vs the theoretical budget ceil(log_K(S/eps)).
//
// "measured" is the worst (over random/fifo/greedy schedulers x seeds) round
// index at which the correct parties' spread first reached eps in a live run;
// the theorem guarantees measured <= budget.
#include <cstdio>

#include "bench_util.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"

int main(int argc, char** argv) {
  using namespace apxa;
  using namespace apxa::core;
  using namespace apxa::harness;

  bench::JsonSink sink(argc, argv, "t2");
  std::printf(
      "T2 — Rounds to eps-agreement vs S/eps (n = 16 where admissible).\n"
      "budget = ceil(log_K(S/eps)) from the predicted factor K; measured = worst\n"
      "observed round at which the spread hit eps (schedulers x 4 seeds).\n\n");

  const std::vector<SchedKind> scheds{SchedKind::kRandom, SchedKind::kFifo,
                                      SchedKind::kGreedySplit};
  bench::Table tab({"protocol", "n", "t", "S/eps", "K(pred)", "budget", "measured"});

  struct Row {
    ProtocolKind kind;
    SystemParams p;
    Averager avg;
    const char* name;
  };
  const Row rows[] = {
      {ProtocolKind::kCrashRound, {16, 3}, Averager::kMean, "async-crash/mean"},
      {ProtocolKind::kCrashRound, {16, 3}, Averager::kMidpoint,
       "async-crash/midpoint"},
      {ProtocolKind::kByzRound, {16, 3}, Averager::kDlpswAsync, "async-byz/dlpsw"},
      {ProtocolKind::kWitness, {16, 5}, Averager::kReduceMidpoint,
       "async-byz/witness"},
  };

  for (const auto& row : rows) {
    const double k = row.kind == ProtocolKind::kWitness
                         ? predicted_factor_witness()
                         : predicted_factor(row.avg, row.p.n, row.p.t);
    for (const double ratio : {10.0, 100.0, 1000.0, 1e6}) {
      const double S = 1.0;
      const double eps = S / ratio;
      const Round budget = rounds_needed(S, eps, k);

      // Worst over the two extremal split families: the mean rule suffers at
      // n/2, midpoint-style rules when only t parties hold the far value.
      // Byzantine protocols face t spoiler attackers while being measured.
      const Round horizon = budget + 2;
      Round measured = 0;
      for (const std::uint32_t hi_count : {row.p.t, row.p.n / 2}) {
        RunConfig cfg;
        cfg.params = row.p;
        cfg.protocol = row.kind;
        cfg.averager = row.avg;
        cfg.inputs = split_inputs(row.p.n, hi_count, 0.0, S);
        if (row.kind != ProtocolKind::kCrashRound) {
          for (std::uint32_t i = 0; i < row.p.t; ++i) {
            adversary::ByzSpec b;
            b.who = i;
            b.kind = adversary::ByzKind::kSpoiler;
            b.seed = i + 1;
            cfg.byz.push_back(b);
          }
        }
        measured = std::max(
            measured, bench::measure_rounds_to_spread(cfg, horizon, eps, scheds, 4));
      }

      tab.add_row({row.name, std::to_string(row.p.n), std::to_string(row.p.t),
                   bench::fmt_sci(ratio), bench::fmt(k, 2),
                   std::to_string(budget),
                   measured > horizon ? bench::fmt_over(horizon)
                                      : std::to_string(measured)});
    }
  }
  tab.print();
  sink.add_table("rounds_to_epsilon", tab);
  std::printf(
      "\nExpected shape: rounds grow logarithmically in S/eps; the crash-model\n"
      "mean rule needs ~log_2(n/t) times fewer rounds than halving rules.\n");
  return sink.finish();
}
