// F2 — Convergence factor as a function of n/t.
//
// The Theta(n/t) separation: the crash-model mean rule's factor grows
// linearly in n/t (both analytically and in measured executions), while the
// byzantine-tolerant protocols sit near constant factors.
//
// Every row's measured sweep (input family x scheduler x seed) is collected
// into ONE batched run_many call (bench_util's measure_worst_rates_over_inputs),
// so the whole figure is a single parallel sweep; rows are emitted in input
// order, identical to the old row-at-a-time loops.
#include <cstdio>

#include "analysis/worst_case.hpp"
#include "bench_util.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace apxa;
  using namespace apxa::core;
  using namespace apxa::harness;

  bench::JsonSink sink(argc, argv, "f2");
  std::printf(
      "F2 — factor K vs n/t.  series: rule; columns: n, t, n/t, predicted,\n"
      "analytic, measured (random/greedy/clique schedulers x 4 seeds).\n\n");
  std::printf("series,n,t,ratio,predicted,analytic,measured\n");
  sink.begin_section("rate_vs_ratio",
                     {"series", "n", "t", "ratio", "predicted", "analytic", "measured"});

  const std::vector<SchedKind> scheds{SchedKind::kRandom, SchedKind::kGreedySplit,
                                      SchedKind::kClique};

  struct Row {
    std::string series;
    std::uint32_t n, t;
    double ratio;
    double predicted;
    std::string analytic;
  };
  std::vector<Row> rows;
  std::vector<RunConfig> bases;

  auto queue = [&](std::string series, SystemParams p, double ratio,
                   double predicted, std::string analytic, ProtocolKind kind,
                   Averager avg) {
    rows.push_back({std::move(series), p.n, p.t, ratio, predicted,
                    std::move(analytic)});
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = kind;
    cfg.averager = avg;
    if (kind != ProtocolKind::kCrashRound) {
      for (std::uint32_t i = 0; i < p.t; ++i) {
        adversary::ByzSpec s;
        s.who = i;
        s.kind = adversary::ByzKind::kSpoiler;
        s.seed = i + 1;
        cfg.byz.push_back(s);
      }
    }
    bases.push_back(std::move(cfg));
  };

  // Crash mean: t = 1, 2, 3 with growing n.
  for (std::uint32_t t : {1u, 2u, 3u}) {
    for (std::uint32_t ratio = 4; ratio <= 16; ratio += 3) {
      const std::uint32_t n = ratio * t;
      const SystemParams p{n, t};
      analysis::WorstCaseQuery q;
      q.params = p;
      q.averager = Averager::kMean;
      char series[32];
      std::snprintf(series, sizeof(series), "crash-mean(t=%u)", t);
      queue(series, p, static_cast<double>(n) / t,
            predicted_factor_crash_async_mean(n, t),
            bench::fmt(analysis::worst_one_round_factor(q).worst_factor),
            ProtocolKind::kCrashRound, Averager::kMean);
    }
  }

  // Midpoint stays flat.
  for (std::uint32_t ratio = 4; ratio <= 16; ratio += 3) {
    const std::uint32_t n = ratio;
    const SystemParams p{n, 1};
    analysis::WorstCaseQuery q;
    q.params = p;
    q.averager = Averager::kMidpoint;
    queue("crash-midpoint(t=1)", p, static_cast<double>(n),
          predicted_factor_midpoint(),
          bench::fmt(analysis::worst_one_round_factor(q).worst_factor),
          ProtocolKind::kCrashRound, Averager::kMidpoint);
  }

  // DLPSW async (needs n > 5t): grows slowly past the boundary.
  for (std::uint32_t n : {6u, 8u, 11u, 16u, 21u, 26u}) {
    const SystemParams p{n, 1};
    analysis::WorstCaseQuery q;
    q.params = p;
    q.averager = Averager::kDlpswAsync;
    q.byz_count = 1;
    queue("byz-dlpsw(t=1)", p, static_cast<double>(n),
          predicted_factor_dlpsw_async(n, 1),
          bench::fmt(analysis::worst_one_round_factor(q).worst_factor),
          ProtocolKind::kByzRound, Averager::kDlpswAsync);
  }

  // Witness pins 2.
  for (std::uint32_t n : {4u, 7u, 10u, 16u}) {
    const std::uint32_t t = (n - 1) / 3;
    const SystemParams p{n, t};
    queue("witness", p, static_cast<double>(n) / t, predicted_factor_witness(),
          "-", ProtocolKind::kWitness, Averager::kReduceMidpoint);
  }

  const auto measured = bench::measure_worst_rates_over_inputs(bases, 5, scheds, 4);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double m = measured[i].measurable ? measured[i].sustained_min : 0.0;
    std::printf("%s,%u,%u,%.1f,%.3f,%s,%.3f\n", r.series.c_str(), r.n, r.t,
                r.ratio, r.predicted, r.analytic.c_str(), m);
    sink.add_row({r.series, std::to_string(r.n), std::to_string(r.t),
                  bench::fmt(r.ratio, 1), bench::fmt(r.predicted), r.analytic,
                  bench::fmt(m)});
  }

  std::printf(
      "\nExpected shape: crash-mean grows linearly in n/t; the others are flat.\n");
  return sink.finish();
}
