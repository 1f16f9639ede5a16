// Deterministic pseudo-random number generation for the Deco reproduction.
//
// All stochastic behaviour in the repository (cloud performance dynamics,
// Monte Carlo inference, workload generation) flows through Rng so that
// experiments are reproducible from a single seed.  The generator is
// xoshiro256** (Blackman & Vigna), seeded through splitmix64, with jump()
// support so that parallel Monte Carlo lanes can own non-overlapping
// subsequences of a common stream.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace deco::util {

/// One xoshiro256** step on a bare state (s0..s3): returns the output word
/// and advances the state.  The single definition of the stream, shared by
/// Rng and the structure-of-arrays RngLanes.
constexpr std::uint64_t xoshiro_next(std::uint64_t& s0, std::uint64_t& s1,
                                     std::uint64_t& s2, std::uint64_t& s3) {
  const std::uint64_t result = std::rotl(s1 * 5, 7) * 9;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = std::rotl(s3, 45);
  return result;
}

/// The uniform double in [0, 1) of a raw 64-bit draw: its top 53 bits
/// times 2^-53.  The 53-bit integer is converted exactly in two parts, the
/// high 21 and low 32 bits, each through the 2^84 / 2^52 magic-exponent
/// trick; both parts are exact and their sum is below 2^53, so the result
/// equals Rng::uniform()'s static_cast<double>(bits >> 11) * 2^-53 bit for
/// bit.  Unlike a 64-bit integer conversion, every step here has a packed
/// SIMD form (AVX2 has none for 64-bit integers), so lane loops over it
/// vectorize.  Scalar code keeps the direct conversion, which is a single
/// instruction there.
constexpr double unit_double(std::uint64_t bits) {
  const std::uint64_t x = bits >> 11;
  const double hi = std::bit_cast<double>(0x4530000000000000ULL | (x >> 32)) -
                    0x1.0p84;
  const double lo =
      std::bit_cast<double>(0x4330000000000000ULL | (x & 0xFFFFFFFFULL)) -
      0x1.0p52;
  return (hi + lo) * 0x1.0p-53;
}

/// xoshiro256** PRNG.  Satisfies std::uniform_random_bit_generator so it can
/// be used with <random> distributions, although the repository's own
/// distribution code (distributions.hpp) is preferred in hot paths.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) word = splitmix64(x);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    return xoshiro_next(state_[0], state_[1], state_[2], state_[3]);
  }

  /// Uniform double in [0, 1); unit_double() computes the same value.
  double uniform() {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded generation.
    auto wide = static_cast<unsigned __int128>(operator()()) * n;
    return static_cast<std::uint64_t>(wide >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Advances the stream by 2^128 steps; used to derive per-lane streams.
  void jump() {
    static constexpr std::array<std::uint64_t, 4> kJump = {
        0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
        0x39ABDC4529B1661CULL};
    std::array<std::uint64_t, 4> acc{};
    for (std::uint64_t word : kJump) {
      for (int bit = 0; bit < 64; ++bit) {
        if (word & (1ULL << bit)) {
          for (int i = 0; i < 4; ++i) acc[static_cast<std::size_t>(i)] ^= state_[static_cast<std::size_t>(i)];
        }
        operator()();
      }
    }
    state_ = acc;
  }

  /// Returns an independent generator: a copy jumped `lane + 1` times.
  Rng fork(unsigned lane) const {
    Rng child = *this;
    for (unsigned i = 0; i <= lane; ++i) child.jump();
    return child;
  }

  /// The four xoshiro256** state words.
  const std::array<std::uint64_t, 4>& state() const { return state_; }

 private:
  static std::uint64_t splitmix64(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Up to `N` independent xoshiro256** streams in structure-of-arrays layout
/// (state word w of lane j at words_[w * N + j]), so stepping every lane
/// once is one loop the compiler vectorizes.  A lane loaded from an Rng
/// continues exactly that Rng's stream: row k of lane j equals the k-th
/// later uniform() of the Rng it was loaded from.
template <std::size_t N>
class RngLanes {
 public:
  /// Lane `lane` takes over `rng`'s current state.
  void load(std::size_t lane, const Rng& rng) {
    for (std::size_t w = 0; w < 4; ++w) words_[w * N + lane] = rng.state()[w];
  }

  /// Steps lanes [0, lanes) once each, writing lane j's uniform to out[j].
  void uniform_row(std::size_t lanes, double* out) {
    std::uint64_t* const s0 = words_.data();
    std::uint64_t* const s1 = s0 + N;
    std::uint64_t* const s2 = s1 + N;
    std::uint64_t* const s3 = s2 + N;
    for (std::size_t j = 0; j < lanes; ++j) {
      out[j] = unit_double(xoshiro_next(s0[j], s1[j], s2[j], s3[j]));
    }
  }

 private:
  std::array<std::uint64_t, 4 * N> words_{};
};

}  // namespace deco::util
