#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "util/distributions.hpp"

namespace deco::util {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
}

TEST(RngTest, BelowCoversAllValues) {
  Rng rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, JumpProducesDisjointStream) {
  Rng base(11);
  Rng jumped = base;
  jumped.jump();
  // The jumped stream should not reproduce the base stream's prefix.
  std::vector<std::uint64_t> prefix;
  for (int i = 0; i < 64; ++i) prefix.push_back(base());
  int matches = 0;
  for (int i = 0; i < 64; ++i) {
    if (jumped() == prefix[static_cast<std::size_t>(i)]) ++matches;
  }
  EXPECT_EQ(matches, 0);
}

TEST(RngTest, ForkLanesAreDistinct) {
  Rng base(12);
  Rng lane0 = base.fork(0);
  Rng lane1 = base.fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (lane0() == lane1()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(UnitDoubleTest, ExactAtConversionBoundaries) {
  // The 21/32-bit split must agree with the direct 64-bit conversion where
  // it is most likely to go wrong: empty halves, a full low half, the first
  // carry into the high half, and the largest 53-bit value.
  for (const std::uint64_t x : {0ULL, 1ULL, (1ULL << 32) - 1, 1ULL << 32,
                                (1ULL << 53) - 1}) {
    const double expected = static_cast<double>(x) * 0x1.0p-53;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(unit_double(x << 11)),
              std::bit_cast<std::uint64_t>(expected))
        << "x = " << x;
    // The low 11 bits of the raw draw are discarded.
    EXPECT_EQ(unit_double((x << 11) | 0x7FF), unit_double(x << 11));
  }
}

TEST(UnitDoubleTest, MatchesDirectConversionOnRandomBits) {
  Rng rng(13);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t bits = rng();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(unit_double(bits)),
              std::bit_cast<std::uint64_t>(
                  static_cast<double>(bits >> 11) * 0x1.0p-53));
  }
}

TEST(RngLanesTest, RowsContinueEachLanesScalarStream) {
  // The evaluator's Tier 2 generation pass: seed every lane, draw its
  // interference factor through Normal::sample, load it into the lanes and
  // read one row per task.  Lane j's row values must be exactly the
  // uniforms the lane's own Rng would have drawn next — including a single
  // lane and a partial vector width.
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{5},
                                  std::size_t{128}}) {
    RngLanes<128> streams;
    std::vector<Rng> reference;
    for (std::size_t j = 0; j < lanes; ++j) {
      Rng rng(0x9E3779B97F4A7C15ULL * (j + 1) ^ 0xDEC0ULL);
      (void)Normal{}.sample(rng);
      streams.load(j, rng);
      reference.push_back(rng);
    }
    std::vector<double> row(lanes);
    for (int k = 0; k < 40; ++k) {
      streams.uniform_row(lanes, row.data());
      for (std::size_t j = 0; j < lanes; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(row[j]),
                  std::bit_cast<std::uint64_t>(reference[j].uniform()))
            << "lanes " << lanes << ", lane " << j << ", row " << k;
      }
    }
  }
}

}  // namespace
}  // namespace deco::util
