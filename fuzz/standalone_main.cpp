// Standalone driver for toolchains without libFuzzer (gcc): the same
// compile-time-selected target as entry.cpp behind a minimal CLI that covers
// the two jobs CI and developers need without clang:
//
//   fuzz_<name> <file-or-corpus-dir>...   replay inputs (a directory replays
//                                         every regular file inside it);
//   fuzz_<name> --smoke <iters> [seed]    feed `iters` pseudo-random buffers
//                                         (splitmix64) through the target.
//
// No coverage feedback — this is a replay/smoke harness, not a fuzzer.  A
// property violation aborts with the target's crash report, exactly as under
// libFuzzer, so corpus regressions fail loudly here too.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "targets.hpp"

#ifndef APXA_FUZZ_ENTRY
#error "compile with -DAPXA_FUZZ_ENTRY=<apxa::fuzz target function>"
#endif
#ifndef APXA_FUZZ_TARGET_NAME
#define APXA_FUZZ_TARGET_NAME "fuzz_target"
#endif

namespace {

int run_one(const std::uint8_t* data, std::size_t size) {
  return ::apxa::fuzz::APXA_FUZZ_ENTRY(data, size);
}

bool replay_file(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "%s: cannot read %s\n", APXA_FUZZ_TARGET_NAME,
                 path.string().c_str());
    return false;
  }
  std::vector<char> buf((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
  run_one(reinterpret_cast<const std::uint8_t*>(buf.data()), buf.size());
  return true;
}

int smoke(std::uint64_t iters, std::uint64_t seed) {
  if (!::apxa::fuzz::random_smoke(&run_one, iters, seed, 513)) {
    std::fprintf(stderr, "%s: an input returned nonzero\n",
                 APXA_FUZZ_TARGET_NAME);
    return 1;
  }
  std::printf("%s: smoke ok (%llu inputs, seed %llu)\n", APXA_FUZZ_TARGET_NAME,
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(seed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--smoke") == 0) {
    const std::uint64_t iters = argc >= 3 ? std::strtoull(argv[2], nullptr, 10) : 1000;
    const std::uint64_t seed = argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 1;
    return smoke(iters, seed);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file-or-corpus-dir>... | --smoke <iters> [seed]\n",
                 APXA_FUZZ_TARGET_NAME);
    return 2;
  }
  std::size_t replayed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path p(argv[i]);
    if (std::filesystem::is_directory(p)) {
      for (const auto& e : std::filesystem::directory_iterator(p)) {
        if (e.is_regular_file() && replay_file(e.path())) ++replayed;
      }
    } else if (replay_file(p)) {
      ++replayed;
    } else {
      return 2;
    }
  }
  std::printf("%s: replayed %zu input(s) ok\n", APXA_FUZZ_TARGET_NAME, replayed);
  return 0;
}
