// Low-discrepancy point sets for quasi-Monte-Carlo plan evaluation.
//
// The adaptive evaluator (Tier 1 of the estimator hierarchy, see
// docs/performance.md) replaces independent uniforms with a randomly-shifted
// Kronecker (Weyl) sequence: point j of dimension d is
//
//   u_{j,d} = frac(shift_d + (j + 1) * alpha_d),   alpha_d = frac(sqrt(p_d))
//
// where p_d is the d-th prime.  Square roots of distinct primes are linearly
// independent over the rationals, so (alpha_0 .. alpha_{D-1}) generates an
// equidistributed sequence in [0,1)^D at any dimension count — unlike Sobol,
// no direction-number tables are needed, which matters because the evaluator
// needs one dimension per workflow task (hundreds to thousands).  The
// Cranley-Patterson rotation (shift_d, derived deterministically from the
// evaluator seed) makes the estimate unbiased over the shift distribution
// while preserving the sequence's star discrepancy.  All plans in a run share
// the one rotated sequence — common random numbers, so plan *differences*
// (the only thing the search ranks on) carry less noise than independent
// streams would.
//
// Points are a pure function of (seed, dimension, index): the adaptive
// evaluator draws the same worlds regardless of backend, worker count, batch
// composition or early-stop checkpointing, which is what makes QMC early
// stopping bit-identical across serial and vgpu execution.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace deco::util {

/// Inverse standard-normal CDF (Acklam's rational approximation, ~1e-9
/// relative error; exact at the tails' representable range).  Maps a
/// low-discrepancy uniform to a normal draw monotonically — the smooth
/// transport QMC needs, unlike Box-Muller or rejection sampling.
double normal_quantile(double p);

/// One randomly-shifted Kronecker sequence over `dimensions` coordinates.
/// Construction is O(dimensions) (a prime sieve plus one hash per shift);
/// point generation is one fused multiply-add + frac per coordinate.
class KroneckerSequence {
 public:
  KroneckerSequence() = default;
  KroneckerSequence(std::size_t dimensions, std::uint64_t seed);

  std::size_t dimensions() const { return alpha_.size(); }

  /// Coordinate `dim` of point `index` in [0, 1).  x is never negative
  /// (shift >= 0, alpha > 0), so x - floor(x) is its exact fractional part.
  double point(std::size_t index, std::size_t dim) const {
    const double x =
        shift_[dim] + static_cast<double>(index + 1) * alpha_[dim];
    return x - std::floor(x);
  }

 private:
  std::vector<double> alpha_;  ///< frac(sqrt(prime_d)) per dimension
  std::vector<double> shift_;  ///< Cranley-Patterson rotation per dimension
};

}  // namespace deco::util
