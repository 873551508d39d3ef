// Corpus-replay regression suite: every committed fuzz input replays clean
// through its target on every build, with any compiler — no fuzzing
// toolchain involved.  A target that crashes or trips a property here takes
// the whole binary down, which is exactly the point: once a fuzzer (or a
// hand-written forgery) lands in fuzz/corpus/, it is pinned forever.
//
// On top of the committed corpus, each byte-level target gets a deterministic
// random smoke (splitmix64 buffers) so a build without ENABLE_FUZZING still
// pushes a few hundred arbitrary byte strings through every decoder.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "targets.hpp"

namespace apxa::fuzz {
namespace {

namespace fs = std::filesystem;

#ifndef APXA_FUZZ_CORPUS_DIR
#error "tests/CMakeLists.txt must define APXA_FUZZ_CORPUS_DIR"
#endif

class CorpusReplay : public ::testing::TestWithParam<TargetEntry> {};

TEST_P(CorpusReplay, CommittedInputsReplayClean) {
  const TargetEntry& target = GetParam();
  const fs::path dir = fs::path(APXA_FUZZ_CORPUS_DIR) / target.name;
  ASSERT_TRUE(fs::is_directory(dir))
      << "no committed corpus at " << dir
      << " — every fuzz target ships seeds (fuzz/gen_corpus.cpp)";
  std::size_t replayed = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    SCOPED_TRACE(entry.path().string());
    std::ifstream f(entry.path(), std::ios::binary);
    ASSERT_TRUE(f.good());
    std::vector<char> buf((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(0, target.fn(reinterpret_cast<const std::uint8_t*>(buf.data()),
                           buf.size()));
    ++replayed;
  }
  EXPECT_GE(replayed, 2u) << "corpus for " << target.name << " looks empty";
}

TEST_P(CorpusReplay, RandomSmoke) {
  const TargetEntry& target = GetParam();
  // The state-machine target runs a whole simulation per input; a handful is
  // plenty here (the seed-sweep suite covers it in depth).
  const bool deep = std::string_view(target.name) == "fuzz_state_machine" ||
                    std::string_view(target.name) == "fuzz_link_pair";
  const std::uint64_t iters = deep ? 16 : 512;
  EXPECT_TRUE(random_smoke(target.fn, iters,
                           0xa9c4a0full ^ std::string_view(target.name).size(),
                           257));
}

INSTANTIATE_TEST_SUITE_P(AllTargets, CorpusReplay, ::testing::ValuesIn(kTargets),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// The standalone driver's `fuzz_state_machine --smoke 3000 S`, input for
// input (about a second per seed in a Release build).  Seeds 2, 24, 76 and
// 96 aborted while safe_midpoint averaged unchecked points (the Radon point,
// the trimmed-centroid fallback) into its result; 12 broke when only the
// Radon point was removed; 24 and 28 hit the absolute LP pivot threshold,
// under which in_convex_hull rejected outputs 6.7e-12 and 3.6e-9 from the
// honest hull (safe_area_test's TinyPivot cases).  Seed 2's input #2579 is
// also committed as corpus seed smoke-seed2-2579.
class StateMachineSmoke : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StateMachineSmoke, StandaloneSeed) {
  EXPECT_TRUE(random_smoke(&state_machine_target, 3000, GetParam(), 513));
}

INSTANTIATE_TEST_SUITE_P(ConvexEscapeSeeds, StateMachineSmoke,
                         ::testing::Values(2, 12, 24, 28, 76, 96),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace apxa::fuzz
