#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>

namespace apxa::sched {

double clamp_delay(double d) {
  // std::clamp returns NaN unchanged; a NaN delay would leave (0, Delta]
  // and poison the simulator's event order, so it becomes the bound Delta.
  return std::isnan(d) ? 1.0 : std::clamp(d, 1e-9, 1.0);
}

}  // namespace apxa::sched
