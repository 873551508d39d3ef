// Asynchronous round bookkeeping: the "broadcast, wait for n - t" pattern.
//
// The model's central data structure, for scalars and R^d points alike.  A
// party in round r contributes its own value and then waits until it holds
// n - t round-r values (its own counts).  The *view* of round r is frozen as
// the first n - t values that arrived — later round-r arrivals are ignored,
// exactly as in the model where a party stops waiting once the quorum is met.
// Messages for future rounds are buffered: an asynchronous run lets fast
// parties race ahead of slow ones.
//
// Duplicate round-r values from the same sender are dropped (only byzantine
// parties produce them; taking the first is the standard convention), and so
// are points of the wrong width or with a non-finite coordinate: a NaN or
// infinity admitted into a view would poison every average it enters, and
// no correct party ever sends one.
//
// Storage is a power-of-two ring of round slots over two flat arrays (points
// and contributors, `quorum` entries per slot, `dim` doubles per point),
// indexed by round modulo the ring size.  The ring starts at two slots — the
// current round and the next, which is as far as fast parties usually run
// ahead — and doubles only when a future round inside the round bound
// arrives.  The bound keeps a byzantine sender that sprays forged round
// numbers from growing honest parties' memory: rounds at or past `end`,
// rounds `lookahead` or more ahead of the oldest live round, and rounds
// already forgotten are dropped on arrival.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"

namespace apxa::core {

class RoundCollector {
 public:
  /// Rounds >= end, and rounds >= (oldest live round) + lookahead, are
  /// dropped on arrival; kNoRound leaves either side unbounded.
  explicit RoundCollector(SystemParams params, Round end = kNoRound,
                          Round lookahead = kNoRound, std::uint32_t dim = 1);

  /// Record this party's own round-r point (`dim` wide).  Must be called
  /// exactly once per round, in increasing round order, inside the bound.
  void add_own(Round r, std::span<const double> point);
  void add_own(Round r, double value);

  /// Record a round-r point received from another party.  Points arriving
  /// after the round's view froze are dropped, as are duplicates and rounds
  /// outside the bound; malformed points are dropped and counted first.
  void add_remote(ProcessId from, Round r, std::span<const double> point);
  void add_remote(ProcessId from, Round r, double value);

  /// Whether round r's view is complete (own value present and quorum met).
  [[nodiscard]] bool ready(Round r) const;

  /// The frozen view of round r (exactly n - t points, own included), in
  /// arrival order, point i at [i * dim, (i + 1) * dim).  Only valid once
  /// ready(r), and only until the next add_own / add_remote / forget_before.
  [[nodiscard]] std::span<const double> view(Round r) const;

  /// Senders that contributed to round r's view so far (own id included once
  /// add_own was called), parallel to the values; same lifetime as view().
  [[nodiscard]] std::span<const ProcessId> contributors(Round r) const;

  /// Drop state for rounds < r (keeps memory bounded in long runs).
  void forget_before(Round r);

  [[nodiscard]] std::uint32_t dim() const { return dim_; }
  /// Malformed remote points dropped so far.
  [[nodiscard]] std::uint64_t malformed() const { return malformed_; }

 private:
  struct SlotState {
    std::uint32_t count = 0;  // values held, arrival order
    bool own_added = false;
    bool frozen = false;
  };

  [[nodiscard]] bool accepts(Round r) const;
  /// Ring index of a live round, or npos.
  [[nodiscard]] std::size_t find(Round r) const;
  /// Ring index of an accepted round, doubling the ring if r lies past it.
  std::size_t slot(Round r);
  void grow(Round r);
  /// The freeze rule for both widths: where an entry's coordinates go, or
  /// nullptr (remote: malformed and counted, out of bound, late, duplicate).
  double* admit_own(Round r);
  double* admit_remote(ProcessId from, Round r, bool well_formed);
  double* append(std::size_t i, ProcessId from);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  SystemParams params_;
  std::size_t quorum_;
  std::uint32_t dim_;
  Round end_;
  Round lookahead_;
  Round base_ = 0;                 // oldest live round
  std::size_t mask_ = 1;           // ring size - 1
  std::vector<SlotState> state_;   // [slot]
  std::vector<double> values_;     // [(slot * quorum + i) * dim + coordinate]
  std::vector<ProcessId> from_;    // [slot * quorum + i]; kNoProcess = self
  std::uint64_t malformed_ = 0;
};

}  // namespace apxa::core
