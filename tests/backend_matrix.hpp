// Shared backend matrix for the parity suites: every protocol x adversary
// scenario must produce the same verdicts on the deterministic simulator,
// the threaded runtime, and the socket runtime — the latter both clean and
// under deterministic injected datagram loss/reordering (which the perfect
// link must absorb; only timing-dependent quantities may differ).
#pragma once

#include <string>

#include "harness/scenario.hpp"

namespace apxa::harness {

struct BackendCase {
  BackendKind backend = BackendKind::kSim;
  double loss = 0.0;     ///< socket-boundary drop probability per attempt
  double reorder = 0.0;  ///< socket-boundary hold-back probability
  const char* name = "sim";
};

inline constexpr BackendCase kBackendMatrix[] = {
    {BackendKind::kSim, 0.0, 0.0, "sim"},
    {BackendKind::kThread, 0.0, 0.0, "thread"},
    {BackendKind::kSocket, 0.0, 0.0, "socket"},
    {BackendKind::kSocket, 0.10, 0.05, "socket_lossy"},
};

/// Apply a matrix case to a scalar or vector config.
inline void apply_backend_case(RunConfigBase& cfg, const BackendCase& c) {
  cfg.backend = c.backend;
  cfg.socket_faults.loss = c.loss;
  cfg.socket_faults.reorder = c.reorder;
  // Fixed injection seed: the fault decision sequence is reproducible even
  // though socket timing is not.
  cfg.socket_faults.seed = 7;
}

inline std::string backend_case_name(
    const ::testing::TestParamInfo<BackendCase>& info) {
  return info.param.name;
}

}  // namespace apxa::harness
