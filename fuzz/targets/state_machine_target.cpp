// Deep state-machine target: a complete approximate-agreement execution
// whose every degree of freedom the fuzzer owns — protocol, system size,
// averaging rule, inputs, scheduler + seed (the schedule mutation lever),
// crash placement (send budget AND multicast receiver order, so partial
// multicasts split the audience any way the fuzzer likes), byzantine
// strategy, and optionally a RAW-BYTE injector seated in a declared
// byzantine slot (scalar and vector runs) that multicasts arbitrary fuzzer
// bytes and reflects one-byte-mutated copies of honest frames back at their
// senders.
//
// Every run is judged by the shared invariant oracle
// (tests/invariant_oracle.hpp) — the same liveness / validity / convexity /
// eps-agreement / trace-sanity rules the parity suites and the seed-sweep
// property test enforce.  Configs are synthesized to respect each
// protocol's resilience bound (kCrashRound n > 2t, kByzRound n > 5t,
// kWitness n > 3t, convex kinds n > 3t) and are budgeted with the
// theoretical round count + margin, so eps-agreement is a hard invariant,
// not a hope: any input that makes the oracle unhappy is a real protocol or
// harness bug.
//
// kVectorConvexRB is left to the seed-sweep test: its Theta(n^3) message
// complexity per round is poor value per fuzz execution.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"
#include "invariant_oracle.hpp"
#include "net/process.hpp"

#include "fuzz_input.hpp"
#include "targets.hpp"

namespace apxa::fuzz {

namespace {

constexpr const char* kName = "fuzz_state_machine";

// A byzantine party that speaks raw fuzzer bytes instead of a strategy from
// adversary/byzantine.hpp: multicasts its preloaded frames on start, then
// reflects a bounded number of received frames back at their senders with
// one byte flipped — near-valid garbage, the hardest kind for a decoder.
class RawInjector final : public net::Process {
 public:
  RawInjector(std::vector<Bytes> frames, std::uint32_t reflect_budget,
              std::uint8_t mutate_xor)
      : frames_(std::move(frames)),
        reflect_budget_(reflect_budget),
        mutate_xor_(static_cast<std::byte>(mutate_xor | 1)) {}

  void on_start(net::Context& ctx) override {
    for (const Bytes& f : frames_) ctx.multicast(f);
  }

  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override {
    if (reflect_budget_ == 0 || payload.empty()) return;
    --reflect_budget_;
    Bytes mutated(payload.begin(), payload.end());
    mutated[pos_++ % mutated.size()] ^= mutate_xor_;
    ctx.send(from, std::move(mutated));
  }

 private:
  std::vector<Bytes> frames_;
  std::uint32_t reflect_budget_;
  std::byte mutate_xor_;
  std::size_t pos_ = 0;
};

harness::SchedKind pick_sched(FuzzInput& in) {
  constexpr harness::SchedKind kKinds[] = {
      harness::SchedKind::kRandom, harness::SchedKind::kFifo,
      harness::SchedKind::kGreedySplit, harness::SchedKind::kTargeted,
      harness::SchedKind::kClique};
  return kKinds[in.u8() % 5];
}

// Distinct fault victim ids drawn from [0, n).
std::vector<ProcessId> pick_victims(FuzzInput& in, std::uint32_t n,
                                    std::uint32_t count) {
  std::vector<ProcessId> ids(n);
  std::iota(ids.begin(), ids.end(), ProcessId{0});
  for (std::uint32_t i = 0; i < count; ++i) {
    std::swap(ids[i], ids[i + in.u8() % (n - i)]);
  }
  ids.resize(count);
  return ids;
}

std::vector<adversary::CrashSpec> pick_crashes(FuzzInput& in, std::uint32_t n,
                                               std::uint32_t count) {
  std::vector<adversary::CrashSpec> crashes;
  for (ProcessId who : pick_victims(in, n, count)) {
    adversary::CrashSpec c;
    c.who = who;
    c.after_sends = in.u8();  // early crashes are the interesting ones
    if (in.boolean()) {
      // Fuzzer-chosen receiver order: the adversary picks exactly which
      // subset a mid-multicast crash reaches.
      std::vector<ProcessId> order;
      for (ProcessId q = 0; q < n; ++q) {
        if (q != who) order.push_back(q);
      }
      for (std::size_t i = 0; i + 1 < order.size(); ++i) {
        std::swap(order[i], order[i + in.u8() % (order.size() - i)]);
      }
      c.multicast_order = std::move(order);
    }
    crashes.push_back(std::move(c));
  }
  return crashes;
}

adversary::ByzSpec pick_byz(FuzzInput& in, ProcessId who, double lo, double hi) {
  adversary::ByzSpec b;
  b.who = who;
  constexpr adversary::ByzKind kKinds[] = {
      adversary::ByzKind::kSilent,     adversary::ByzKind::kExtremeLow,
      adversary::ByzKind::kExtremeHigh, adversary::ByzKind::kEquivocate,
      adversary::ByzKind::kSpoiler,    adversary::ByzKind::kNoise,
      adversary::ByzKind::kHullEscape};
  b.kind = kKinds[in.u8() % 7];
  b.lo = lo - in.finite_double(0.0, 100.0);
  b.hi = hi + in.finite_double(0.0, 100.0);
  b.amplify = in.finite_double(1.0, 8.0);
  b.inflate_budget = in.boolean() ? in.u8() : 0;
  b.seed = in.u32();
  return b;
}

// A run with a RawInjector seated in the (single) declared byzantine slot in
// place of the stock attacker; staging, tracing and the verdict are
// harness::execute's own.  Scalar and vector configs alike.
template <typename Config>
auto run_with_injector(const Config& cfg, FuzzInput& in) {
  std::vector<Bytes> frames;
  const std::uint32_t n_frames = in.u8() % 4;
  for (std::uint32_t i = 0; i < n_frames; ++i) {
    frames.push_back(in.bytes(1 + in.u8() % 32));
  }
  const std::uint32_t reflect_budget = in.u8() % 64;
  const std::uint8_t mutate_xor = in.u8();

  const ProcessId slot = cfg.byz.front().who;
  const auto backend = harness::make_backend(cfg);
  return harness::execute(
      cfg, *backend, [&](ProcessId p) -> std::unique_ptr<net::Process> {
        if (p != slot) return nullptr;
        return std::make_unique<RawInjector>(std::move(frames), reflect_budget,
                                             mutate_xor);
      });
}

void judge(const char* what, const oracle::Verdict& v) {
  if (!v.ok) {
    std::fprintf(stderr, "scenario: %s\n%s\n", what, v.summary().c_str());
    fail(kName, "invariant oracle rejected the execution");
  }
}

}  // namespace

int state_machine_target(const std::uint8_t* data, std::size_t size) {
  const detail::ScopedFailureCapture capture;
  FuzzInput in(data, size);
  try {
    const std::uint8_t shape = in.u8() % 6;
    const double eps = 1e-2;

    if (shape <= 2) {
      // --- scalar protocols -------------------------------------------------
      harness::RunConfig cfg;
      cfg.epsilon = eps;
      cfg.sched = pick_sched(in);
      cfg.seed = in.u64();
      cfg.backend = harness::BackendKind::kSim;

      std::uint32_t byz_count = 0;
      if (shape == 0) {  // Fekete crash-model rounds, n > 2t
        cfg.protocol = harness::ProtocolKind::kCrashRound;
        cfg.params.t = 1 + in.u8() % 2;
        cfg.params.n = 2 * cfg.params.t + 1 + in.u8() % 3;
        cfg.averager = in.boolean() ? core::Averager::kMean
                                    : core::Averager::kMidpoint;
        cfg.crashes = pick_crashes(in, cfg.params.n,
                                   in.u8() % (cfg.params.t + 1));
      } else if (shape == 1) {  // DLPSW async byzantine, n > 5t
        cfg.protocol = harness::ProtocolKind::kByzRound;
        cfg.params.t = 1;
        cfg.params.n = 6 + in.u8() % 3;
        byz_count = in.u8() % 2;
      } else {  // AAD'04 witness technique, n > 3t
        cfg.protocol = harness::ProtocolKind::kWitness;
        cfg.params.t = 1;
        cfg.params.n = 4 + in.u8() % 3;
        byz_count = in.u8() % 2;
      }

      cfg.inputs.resize(cfg.params.n);
      double lo = 1e9, hi = -1e9, mag = 0.0;
      for (double& x : cfg.inputs) {
        x = in.finite_double(-100.0, 100.0);
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        mag = std::max(mag, std::abs(x));
      }

      bool injector = false;
      if (byz_count > 0) {
        const ProcessId who = in.u8() % cfg.params.n;
        injector = in.boolean();
        cfg.byz.push_back(pick_byz(in, who, lo, hi));
      }

      // Round budget from the theory + margin, so eps-agreement is owed.
      switch (cfg.protocol) {
        case harness::ProtocolKind::kCrashRound: {
          const double k =
              core::predicted_factor(cfg.averager, cfg.params.n, cfg.params.t);
          cfg.fixed_rounds = core::rounds_needed(hi - lo, eps, k) + 2;
          break;
        }
        case harness::ProtocolKind::kByzRound:
          cfg.fixed_rounds =
              core::rounds_for_bound(mag, eps, core::Averager::kDlpswAsync,
                                     cfg.params) +
              2;
          break;
        default:  // kWitness halves per iteration
          cfg.fixed_rounds = core::rounds_needed(hi - lo, eps, 2.0) + 2;
          break;
      }

      const harness::RunReport rep =
          injector ? run_with_injector(cfg, in) : harness::run(cfg);
      judge("scalar", oracle::check_run(cfg, rep));
    } else {
      // --- vector protocols -------------------------------------------------
      harness::VectorRunConfig cfg;
      cfg.epsilon = eps;
      cfg.dim = 1 + in.u8() % 3;
      cfg.sched = pick_sched(in);
      cfg.seed = in.u64();
      cfg.backend = harness::BackendKind::kSim;

      bool agreement_owed = true;
      if (shape == 3) {  // coordinate-wise crash rounds, n > 2t
        cfg.protocol = harness::ProtocolKind::kVectorCrash;
        cfg.params.t = 1 + in.u8() % 2;
        cfg.params.n = 2 * cfg.params.t + 1 + in.u8() % 3;
        cfg.crashes = pick_crashes(in, cfg.params.n,
                                   in.u8() % (cfg.params.t + 1));
      } else if (shape == 4) {  // per-coordinate DLPSW laundering, n > 5t
        cfg.protocol = harness::ProtocolKind::kVectorByz;
        cfg.params.t = 1;
        cfg.params.n = 6 + in.u8() % 3;
      } else {  // safe-area averaging over quorum collect, n > 3t
        cfg.protocol = harness::ProtocolKind::kVectorConvex;
        cfg.params.t = 1;
        cfg.params.n = 4 + in.u8() % 3;
        cfg.fixed_rounds = 2 + in.u8() % 3;
        // No reconstructed round budget for the safe-area factor: hold the
        // run to liveness + convex validity, and flag consistency only.
        agreement_owed = false;
      }

      cfg.inputs.assign(cfg.params.n, std::vector<double>(cfg.dim));
      double spread = 0.0, blo = 1e9, bhi = -1e9;
      for (auto& row : cfg.inputs) {
        for (double& x : row) {
          x = in.finite_double(-100.0, 100.0);
          blo = std::min(blo, x);
          bhi = std::max(bhi, x);
        }
      }
      spread = bhi - blo;

      if (cfg.protocol == harness::ProtocolKind::kVectorCrash) {
        const double k = core::predicted_factor(core::Averager::kMean,
                                                cfg.params.n, cfg.params.t);
        cfg.fixed_rounds = core::rounds_needed(spread, eps, k) + 2;
      } else if (cfg.protocol == harness::ProtocolKind::kVectorByz) {
        cfg.byz.push_back(pick_byz(in, in.u8() % cfg.params.n, blo, bhi));
        cfg.fixed_rounds =
            core::rounds_for_bound(std::max(std::abs(blo), std::abs(bhi)), eps,
                                   core::Averager::kDlpswAsync, cfg.params) +
            2;
      } else if (in.boolean()) {
        cfg.byz.push_back(pick_byz(in, in.u8() % cfg.params.n, blo, bhi));
      }
      // Raw and near-valid VEC bytes in the declared byzantine slot reach the
      // quorum collect engine's decoder and round bookkeeping.
      const bool injector = !cfg.byz.empty() && in.boolean();

      oracle::Expect expect;
      expect.require_agreement = agreement_owed;
      const harness::VectorRunReport rep =
          injector ? run_with_injector(cfg, in) : harness::run(cfg);
      judge("vector", oracle::check_run(cfg, rep, expect));
    }
  } catch (...) {
    fail(kName, "execution let an exception escape");
  }
  return 0;
}

}  // namespace apxa::fuzz
