// Adversary lab: watch the same protocol run under increasingly hostile
// conditions, with the per-round spread trace printed live.
//
// A tour of the library's fault machinery: benign FIFO scheduling, random
// asynchrony, the greedy split-brain scheduler, crash-timing attacks, and —
// for the byzantine protocol — spoiler attackers.  The exercise mirrors the
// chain-argument intuition: the adversary's power shows up directly as a
// smaller per-round shrink of the spread.
//
//   $ ./adversary_lab
#include <cstdio>

#include "adversary/crash_plan.hpp"
#include "analysis/rate_meter.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"

namespace {

using namespace apxa;
using namespace apxa::core;
using namespace apxa::harness;

void show(const char* title, const RunReport& rep) {
  std::printf("%s\n  spread by round:", title);
  for (double s : rep.spread_by_round) std::printf(" %.4f", s);
  const auto rate = analysis::summarize_rates(rep.spread_by_round);
  if (rate.measurable) {
    std::printf("\n  sustained factor: %.2f per round\n\n", rate.sustained);
  } else {
    std::printf("\n  (converged immediately)\n\n");
  }
}

}  // namespace

int main() {
  const SystemParams p{12, 3};
  std::printf("Adversary lab: n = %u, t = %u, crash-model mean rule,\n"
              "inputs split 0/1, 6 observed rounds.  Theory: guaranteed factor\n"
              "(n-t)/t = %.2f; benign schedules do much better.\n\n",
              p.n, p.t, predicted_factor_crash_async_mean(p.n, p.t));

  auto base = [&]() {
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kCrashRound;
    cfg.mode = TerminationMode::kLive;
    cfg.fixed_rounds = 6;
    cfg.inputs = split_inputs(p.n, p.n / 2, 0.0, 1.0);
    return cfg;
  };

  {
    auto cfg = base();
    cfg.sched = SchedKind::kFifo;
    show("[1] FIFO scheduler (lock-step-like):", run(cfg));
  }
  {
    auto cfg = base();
    cfg.sched = SchedKind::kRandom;
    cfg.seed = 7;
    show("[2] Random asynchrony:", run(cfg));
  }
  {
    auto cfg = base();
    cfg.sched = SchedKind::kGreedySplit;
    show("[3] Greedy split-brain scheduler:", run(cfg));
  }
  {
    auto cfg = base();
    cfg.sched = SchedKind::kGreedySplit;
    std::vector<ProcessId> low_camp;
    for (ProcessId q = 0; q < p.n / 2; ++q) low_camp.push_back(q);
    for (std::uint32_t i = 0; i < p.t; ++i) {
      cfg.crashes.push_back(adversary::partial_multicast_crash(
          p, static_cast<ProcessId>(p.n - 1 - i), 0, low_camp));
    }
    show("[4] Greedy + crash-timing (t partial multicasts):", run(cfg));
  }
  {
    // Byzantine protocol under spoiler attack for contrast.
    RunConfig cfg;
    cfg.params = {16, 3};
    cfg.protocol = ProtocolKind::kByzRound;
    cfg.mode = TerminationMode::kLive;
    cfg.fixed_rounds = 6;
    cfg.inputs = split_inputs(16, 8, 0.0, 1.0);
    cfg.sched = SchedKind::kGreedySplit;
    for (std::uint32_t i = 0; i < 3; ++i) {
      adversary::ByzSpec b;
      b.who = i;
      b.kind = adversary::ByzKind::kSpoiler;
      b.seed = i + 1;
      cfg.byz.push_back(b);
    }
    show("[5] DLPSW byzantine protocol, 3 spoilers + greedy (n = 16):",
         run(cfg));
  }

  std::printf(
      "Reading: the sustained factor degrades monotonically from [1] to [4],\n"
      "approaching the theoretical floor — the chain-argument lower bound made\n"
      "tangible.  [5] shows the byzantine rule holding its constant rate.\n");
  return 0;
}
