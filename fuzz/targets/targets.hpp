// Fuzz-target registry.
//
// Every libFuzzer target in this directory is written as a plain named
// function with the LLVMFuzzerTestOneInput signature, so one body serves
// three harnesses:
//
//   - entry.cpp compiles it into a real libFuzzer binary (clang,
//     -fsanitize=fuzzer) by forwarding LLVMFuzzerTestOneInput to it;
//   - standalone_main.cpp wraps it in a file-replay / random-smoke driver on
//     toolchains without libFuzzer (gcc);
//   - tests/fuzz_corpus_replay_test.cpp replays the committed corpus through
//     it as ordinary ctest cases, pinning past findings on every build.
//
// Shallow byte-level targets (decode-never-crashes + encode∘decode
// round-trip fixpoints over the total decoders):
//   codec_target    — core/codec.hpp protocol frames (tags 1..10 + VEC)
//   envelope_target — net/envelope.hpp instance envelopes (tag 11)
//   batch_target    — net/envelope.hpp batch packets (tag 12, no nesting)
//   link_target     — netio/link.hpp DATA/ACK wire frames into one PeerLink
//
// Deep state-machine targets:
//   link_pair_target    — a two-endpoint PeerLink conversation under
//                         fuzzer-chosen loss/reordering/duplication/
//                         corruption; asserts the perfect-link obligations
//   state_machine_target — a full harness run (protocol, scheduler, seed,
//                          crash/byzantine placement and raw injected
//                          payloads all fuzzer-chosen); asserts the shared
//                          invariant oracle (tests/invariant_oracle.hpp)
#pragma once

#include <cstddef>
#include <cstdint>

namespace apxa::fuzz {

using TargetFn = int (*)(const std::uint8_t* data, std::size_t size);

int codec_target(const std::uint8_t* data, std::size_t size);
int envelope_target(const std::uint8_t* data, std::size_t size);
int batch_target(const std::uint8_t* data, std::size_t size);
int link_target(const std::uint8_t* data, std::size_t size);
int link_pair_target(const std::uint8_t* data, std::size_t size);
int state_machine_target(const std::uint8_t* data, std::size_t size);

struct TargetEntry {
  const char* name;  ///< binary / corpus-directory name, e.g. "fuzz_codec"
  TargetFn fn;
};

/// Every target, in build order.  The replay test and the standalone driver
/// iterate this table so adding a target is a one-line change here plus its
/// .cpp (and a corpus directory).
inline constexpr TargetEntry kTargets[] = {
    {"fuzz_codec", &codec_target},
    {"fuzz_envelope", &envelope_target},
    {"fuzz_batch", &batch_target},
    {"fuzz_link", &link_target},
    {"fuzz_link_pair", &link_pair_target},
    {"fuzz_state_machine", &state_machine_target},
};

/// Feeds `iters` pseudo-random buffers through `fn`: splitmix64 from `seed`,
/// each buffer's length the next draw mod `max_len`, then one draw per byte.
/// The standalone driver's --smoke and the corpus-replay suite share it, so
/// a smoke seed reproduces the same inputs in both.  True when `fn` returned
/// 0 on every input (a violated property aborts instead).
bool random_smoke(TargetFn fn, std::uint64_t iters, std::uint64_t seed,
                  std::size_t max_len);

/// Crash the process with a readable report: the violated property plus the
/// most recent captured APXA_ENSURE/APXA_ASSERT failure (fuzz targets run
/// under detail::ScopedFailureCapture).  libFuzzer catches the abort and
/// saves the crashing input; the replay test surfaces it as a failed ctest.
[[noreturn]] void fail(const char* target, const char* property);

}  // namespace apxa::fuzz

/// Invariant check inside a fuzz target body: on violation, abort with
/// context.  Deliberately NOT assert()-style compiled out — fuzz targets run
/// in release CI lanes too.
#define APXA_FUZZ_REQUIRE(cond, target, property)       \
  do {                                                  \
    if (!(cond)) ::apxa::fuzz::fail((target), (property)); \
  } while (false)
