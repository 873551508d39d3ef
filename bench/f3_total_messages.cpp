// F3 — Total communication for eps-agreement vs n (log-log slopes 2 vs 3).
//
// Each protocol runs to eps = 1e-3 with unit initial spread, rounds budgeted
// from its own factor.  The crash-model round protocol needs fewer rounds as
// n grows (factor (n-t)/t) AND only n^2 messages per round; the witness
// technique pays n^3 per iteration at a fixed factor 2.
//
// All series go through one harness::run_many grid, so the figure sweeps in
// parallel; reports come back in input order and the emitted rows — and the
// JSON document — match the old serial loops exactly.
#include <cstdio>

#include "bench_util.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"

int main(int argc, char** argv) {
  using namespace apxa;
  using namespace apxa::core;
  using namespace apxa::harness;

  bench::JsonSink sink(argc, argv, "f3");
  std::printf(
      "F3 — Total messages and bits to reach eps = 1e-3 (S = 1, fault-free).\n\n");
  std::printf("series,n,t,rounds,total_msgs,total_bits\n");
  sink.begin_section("total_messages",
                     {"series", "n", "t", "rounds", "total_msgs", "total_bits"});

  const double eps = 1e-3;

  struct Cell {
    const char* series;
    std::uint32_t n, t;
    Round rounds;
  };
  std::vector<Cell> cells;
  std::vector<RunConfig> grid;
  auto queue = [&](const char* series, SystemParams p, ProtocolKind kind,
                   double factor) {
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = kind;
    cfg.epsilon = eps;
    cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
    cfg.fixed_rounds = rounds_needed(1.0, eps, factor);
    cells.push_back({series, p.n, p.t, cfg.fixed_rounds});
    grid.push_back(std::move(cfg));
  };

  for (std::uint32_t n : {4u, 7u, 10u, 16u, 25u, 40u, 61u}) {
    const std::uint32_t t = std::max(1u, (n - 1) / 3);
    queue("crash-mean", {n, t}, ProtocolKind::kCrashRound,
          predicted_factor_crash_async_mean(n, t));
  }
  for (std::uint32_t n : {6u, 11u, 16u, 26u, 41u, 61u}) {
    const std::uint32_t t = std::max(1u, (n - 1) / 5);
    queue("byz-dlpsw", {n, t}, ProtocolKind::kByzRound,
          predicted_factor_dlpsw_async(n, t));
  }
  for (std::uint32_t n : {4u, 7u, 10u, 16u, 25u, 40u}) {
    const std::uint32_t t = std::max(1u, (n - 1) / 3);
    queue("witness", {n, t}, ProtocolKind::kWitness, predicted_factor_witness());
  }

  const auto reports = harness::run_many(grid);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Cell& c = cells[i];
    const auto& rep = reports[i];
    std::printf("%s,%u,%u,%u,%llu,%llu\n", c.series, c.n, c.t, c.rounds,
                static_cast<unsigned long long>(rep.metrics.messages_sent),
                static_cast<unsigned long long>(rep.metrics.payload_bits()));
    sink.add_row({c.series, std::to_string(c.n), std::to_string(c.t),
                  std::to_string(c.rounds),
                  bench::fmt_u(rep.metrics.messages_sent),
                  bench::fmt_u(rep.metrics.payload_bits())});
  }

  std::printf(
      "\nExpected shape (log-log vs n): crash-mean slope <= 2 (rounds shrink as\n"
      "n/t grows), witness slope 3; crossover makes the witness protocol an\n"
      "order of magnitude costlier by n ~ 40.\n");
  return sink.finish();
}
