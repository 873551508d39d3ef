// Dual backend: ONE scenario, two runtimes.
//
// The protocol state machines only assume eventual delivery, so the same
// RunConfig — system size, inputs, a mid-multicast crash adversary — runs
// unchanged on the deterministic discrete-event simulator and on the
// threaded runtime (real OS-scheduler asynchrony), through the shared
// execution harness, with the same validity / eps-agreement verdicts.
//
//   $ ./dual_backend
#include <cstdio>

#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"

int main() {
  using namespace apxa;
  using namespace apxa::core;
  using namespace apxa::harness;

  const SystemParams params{7, 2};
  const double eps = 0.01;

  harness::RunConfig cfg;
  cfg.params = params;
  cfg.protocol = harness::ProtocolKind::kCrashRound;
  cfg.epsilon = eps;
  cfg.inputs = {20.1, 20.4, 19.8, 20.0, 21.2, 19.9, 20.3};
  cfg.fixed_rounds = rounds_for_bound(32.0, eps, cfg.averager, params);
  // The adversary crashes two parties mid-multicast: party 2 after one full
  // round reaching only {0, 1}, party 5 at startup reaching only {6}.
  cfg.crashes = {
      adversary::partial_multicast_crash(params, 2, /*full_rounds=*/1, {0, 1}),
      adversary::partial_multicast_crash(params, 5, /*full_rounds=*/0, {6}),
  };

  bool all_ok = true;
  for (const auto backend :
       {harness::BackendKind::kSim, harness::BackendKind::kThread}) {
    cfg.backend = backend;
    const harness::RunReport rep = harness::run(cfg);
    const bool ok = rep.all_output && rep.validity_ok && rep.agreement_ok;
    all_ok = all_ok && ok;
    std::printf("%-7s backend: outputs=%zu  gap=%.6f  validity=%s  "
                "eps-agreement=%s\n",
                backend == harness::BackendKind::kSim ? "sim" : "thread",
                rep.outputs.size(), rep.worst_pair_gap,
                rep.validity_ok ? "ok" : "VIOLATED",
                rep.agreement_ok ? "ok" : "VIOLATED");
  }
  std::printf("same scenario, same guarantees, different transports: %s\n",
              all_ok ? "ok" : "FAILED");
  return all_ok ? 0 : 1;
}
