// Shared types of the end-to-end benchmark (see benchmark/README.md).
//
// A workload is a fixed shape of agreement request; a request is one unit a
// single closed-loop caller submits and waits for: a Session of K instances
// (svc_*) or one instance run through make_backend + execute (witness,
// convex).  Every request's inputs come from the workload seed and the
// request index, and nothing else.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness/scenario.hpp"
#include "net/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace aabench {

using apxa::ProcessId;

enum class Shape : std::uint8_t {
  kSession,  ///< K multiplexed kCrashRound instances through harness::Session
  kWitness,  ///< one kWitness instance through make_backend + execute
  kConvex,   ///< one kVectorConvex instance through make_backend + execute
};

struct Workload {
  const char* name;
  Shape shape;
  apxa::harness::BackendKind backend;
  std::uint32_t n;
  std::uint32_t t;
  std::uint32_t instances;  ///< per request
  std::uint32_t rounds;     ///< fixed rounds / iterations per instance
  std::uint32_t dim;        ///< 1 for scalar protocols
  std::uint32_t batching;   ///< session frames-per-packet cap; 0 = off
  bool crash;               ///< session crash of party n-1 after 3K sends
  double loss;              ///< socket fault-shim loss probability
  std::uint32_t byzantine;  ///< attacker count (ids drawn per request)
  double input_lo;          ///< inputs are uniform in [input_lo, input_hi)
  double input_hi;
  /// Requests per second on the reference machine (4-core x86-64, gcc 12,
  /// Release).  Fixes the request count: seconds x this rate, at least
  /// kMinRequests.
  double nominal_req_per_s;
};

/// Enough requests that the p90 has ten samples beyond it.
inline constexpr std::uint64_t kMinRequests = 100;

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// One generated request.  `values` is row-major: K rows of n inputs for a
/// session, one row of n for witness, n rows of dim for convex.
struct Request {
  std::uint64_t seed = 0;  ///< scheduler, fault-shim and attacker seed
  std::vector<double> values;
  std::vector<ProcessId> byzantine;
};

Request make_request(const Workload& w, std::uint64_t seed, std::uint64_t index);

/// SplitMix64: advances `state` and returns the next output.
inline std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// A span the benchmark records around its own calls into the library.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;  ///< steady clock
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0;   ///< request index; shared by a request's spans
};

std::uint64_t now_ns();

struct Outcome {
  double stage_ms = 0.0;         ///< building configs (+ Session::add)
  double make_backend_ms = 0.0;  ///< single-instance shapes only
  double run_ms = 0.0;           ///< Session::run or execute
  std::uint64_t run_start_ns = 0;
  std::vector<Span> phases;
  std::uint32_t instances = 0;
  std::uint32_t failed = 0;  ///< instances with a failed verdict
  apxa::net::Metrics metrics;
  apxa::obs::ExecStats exec;
  /// Per-instance finish: Delta units on sim, wall seconds since the run
  /// started on thread/socket.
  std::vector<double> finish;

  [[nodiscard]] double wall_ms() const {
    return stage_ms + make_backend_ms + run_ms;
  }
};

/// Stage and run one request, judge its verdicts.  `sink` may be null.
Outcome execute_request(const Workload& w, const Request& r,
                        apxa::obs::TraceSink* sink);

/// Time harness::make_backend for a session request's shared config (the
/// session constructs its own backend internally).
double time_make_backend(const Workload& w, const Request& r);

using TagCounts = decltype(apxa::net::Metrics::sent_by_tag);

/// The run's traffic, which the replays imitate.
struct TrafficShape {
  TagCounts tag_counts{};        ///< per-tag logical message mix
  double msgs_per_packet = 1.0;  ///< measured packing
};

/// Per-call cost of each layer.
struct LayerCosts {
  double codec_encode_ns = 0, codec_decode_ns = 0;
  double envelope_encode_ns = 0, envelope_decode_ns = 0;
  double batch_encode_ns = 0, batch_unpack_ns = 0;
  double note_send_ns = 0;
  double link_make_data_ns = 0, link_on_datagram_ns = 0;
  double averager_ns = 0;
  double safe_midpoint_us = 0;
  double trace_record_ns = 0;
  bool ok = true;  ///< every replayed round trip decoded to what was encoded
};

/// Times each layer a message passes through, over inputs shaped like the
/// workload's own traffic.  run() adds time to every layer and may be called
/// between requests, so the replays and the requests see the same machine.
class LayerReplay {
 public:
  LayerReplay(const Workload& w, std::uint64_t seed, const TrafficShape& traffic);
  ~LayerReplay();
  LayerReplay(const LayerReplay&) = delete;
  LayerReplay& operator=(const LayerReplay&) = delete;

  void run(double seconds_per_layer, std::vector<Span>& spans);
  [[nodiscard]] LayerCosts costs() const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace aabench
