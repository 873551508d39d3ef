#include <vector>

#include "targets.hpp"

namespace apxa::fuzz {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

bool random_smoke(TargetFn fn, std::uint64_t iters, std::uint64_t seed,
                  std::size_t max_len) {
  std::uint64_t state = seed;
  std::vector<std::uint8_t> buf;
  bool clean = true;
  for (std::uint64_t i = 0; i < iters; ++i) {
    buf.resize(splitmix64(state) % max_len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(splitmix64(state));
    clean = fn(buf.data(), buf.size()) == 0 && clean;
  }
  return clean;
}

}  // namespace apxa::fuzz
