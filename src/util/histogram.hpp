// Fixed-bin histograms — the probabilistic currency of Deco.
//
// Section 4.2 of the paper: "For each dynamic performance component (i.e.,
// network and I/O), we discretize the probabilistic performance distributions
// as histograms, and store the histograms in the metadata store."  The
// probabilistic IR then attaches one bin probability p_j to each candidate
// value, and the Monte Carlo kernels draw from these bins.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace deco::util {

/// Equal-width histogram with normalized bin masses.
class Histogram {
 public:
  Histogram() = default;

  /// Builds from raw samples with `bins` equal-width bins spanning
  /// [min(sample), max(sample)].  Degenerate samples collapse to one bin.
  static Histogram from_samples(std::span<const double> samples,
                                std::size_t bins);

  /// Builds from explicit bin centers and (possibly unnormalized) masses.
  static Histogram from_bins(std::vector<double> centers,
                             std::vector<double> masses);

  std::size_t bin_count() const { return centers_.size(); }
  bool empty() const { return centers_.empty(); }

  std::span<const double> centers() const { return centers_; }
  std::span<const double> masses() const { return masses_; }
  /// Cumulative masses; cdf().back() == 1 for a non-empty histogram.
  std::span<const double> cdf() const { return cdf_; }

  /// Mean of the discretized distribution.
  double mean() const;
  /// Variance of the discretized distribution.
  double variance() const;
  /// Value below which `q` percent of the mass lies (q in [0,100]).
  double percentile(double q) const;

  /// Draws a bin center by inverse-CDF sampling.  O(log bins).
  double sample(Rng& rng) const {
    return empty() ? 0 : sample_at(rng.uniform());
  }

  /// The bin center sample() returns for uniform `u`: the first bin whose
  /// CDF exceeds u, clamped to the last bin.  Non-empty histograms only.
  double sample_at(double u) const;

  /// P(X <= x) of the discretized distribution.
  double prob_le(double x) const;

  /// Scales every bin center by `factor` (e.g. bytes -> seconds conversion).
  Histogram scaled(double factor) const;

 private:
  std::vector<double> centers_;  // ascending
  std::vector<double> masses_;   // sums to 1
  std::vector<double> cdf_;      // running sum of masses_
};

/// Branch-free twin of Histogram::sample_at's bin search: #{cdf[k] <= u},
/// clamped to the last bin.  On a non-decreasing CDF this count is exactly
/// upper_bound's index, ties (zero-mass bins) included; it compiles to a
/// vectorizable compare-and-add instead of log2(bins) unpredictable
/// branches.  `cdf` must be non-empty.
inline std::size_t cdf_index(std::span<const double> cdf, double u) {
  std::size_t k = 0;
  for (const double c : cdf) k += static_cast<std::size_t>(c <= u);
  return k < cdf.size() ? k : cdf.size() - 1;
}

}  // namespace deco::util
