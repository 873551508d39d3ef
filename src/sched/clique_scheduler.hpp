// Clique-isolation scheduler: the termination-impossibility construction.
//
// Chooses a clique C of n - t parties and keeps traffic inside C (and among
// the outsiders) fast, while stretching every message crossing the boundary
// to (nearly) the full delay bound Delta.  Because a party only waits for
// n - t round values, clique members can complete every round using clique
// traffic alone and remain ignorant of the outsiders' values for many rounds
// — the schedule that defeats local-spread-estimate round budgeting (see
// bench/t7 and the scheduler list in docs/ARCHITECTURE.md): clique members
// legitimately believe the spread is tiny, finish early, and freeze, while
// outsiders hold far-away values.
//
// This is legal asynchrony: every message still arrives within Delta = 1.
#pragma once

#include <set>

#include "common/ensure.hpp"
#include "sched/scheduler.hpp"

namespace apxa::sched {

class CliqueScheduler final : public Scheduler {
 public:
  /// `clique` are the insiders (typically the first n - t parties).
  CliqueScheduler(std::set<ProcessId> clique, double inside_delay = 0.05,
                  double boundary_delay = 0.999)
      : clique_(std::move(clique)),
        inside_(clamp_delay(inside_delay)),
        boundary_(clamp_delay(boundary_delay)) {
    APXA_ENSURE(inside_ < boundary_, "clique traffic must outrun boundary traffic");
  }

  double delay(const net::Message& m) override {
    const bool from_in = clique_.contains(m.from);
    const bool to_in = clique_.contains(m.to);
    return from_in == to_in ? inside_ : boundary_;
  }

 private:
  std::set<ProcessId> clique_;
  double inside_;
  double boundary_;
};

}  // namespace apxa::sched
