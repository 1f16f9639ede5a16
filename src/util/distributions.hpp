// Probability distributions used to model cloud performance dynamics.
//
// The paper models Amazon EC2 sequential I/O as Gamma, random I/O and network
// bandwidth as Normal (Table 2, Figs. 6-7).  This header provides sampling,
// pdf/cdf, and moment-based fitting for those families, plus Pareto and
// Uniform used by the ensemble generator (Section 6.1).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "util/rng.hpp"

namespace deco::util {

/// Normal(mu, sigma).  sigma must be > 0 for sampling.
struct Normal {
  double mu = 0;
  double sigma = 1;

  double sample(Rng& rng) const;
  double pdf(double x) const;
  double cdf(double x) const;

  /// Method-of-moments fit (== MLE for Normal).
  static Normal fit(std::span<const double> xs);
};

/// Gamma(k, theta) with shape k and scale theta.
struct Gamma {
  double k = 1;
  double theta = 1;

  double sample(Rng& rng) const;
  double pdf(double x) const;
  double cdf(double x) const;
  double mean() const { return k * theta; }

  /// Method-of-moments fit: k = m^2/v, theta = v/m.
  static Gamma fit(std::span<const double> xs);
};

/// Uniform(lo, hi).
struct Uniform {
  double lo = 0;
  double hi = 1;

  double sample(Rng& rng) const { return lo + (hi - lo) * rng.uniform(); }
  double pdf(double x) const {
    return (x >= lo && x <= hi && hi > lo) ? 1.0 / (hi - lo) : 0.0;
  }
  double cdf(double x) const {
    if (x <= lo) return 0;
    if (x >= hi) return 1;
    return (x - lo) / (hi - lo);
  }
};

/// Pareto(xm, alpha): support [xm, inf).  Used for Pareto ensembles.
struct Pareto {
  double xm = 1;
  double alpha = 1;

  double sample(Rng& rng) const;
  double pdf(double x) const;
  double cdf(double x) const;
};

/// Lower regularized incomplete gamma function P(a, x); powers Gamma::cdf.
double regularized_gamma_p(double a, double x);

/// ln Gamma(x) via Lanczos; exposed for tests.
double log_gamma(double x);

/// Tagged union over the families the metadata store can persist.
struct Distribution {
  /// 64-bit so the struct has no padding: its byte image (which gtest
  /// prints for value-parameterized tests) is fully determined.
  enum class Kind : std::int64_t { kNormal, kGamma, kUniform, kPareto };

  Kind kind = Kind::kNormal;
  double a = 0;  ///< mu | k | lo | xm
  double b = 1;  ///< sigma | theta | hi | alpha

  static Distribution normal(double mu, double sigma) {
    return {Kind::kNormal, mu, sigma};
  }
  static Distribution gamma(double k, double theta) {
    return {Kind::kGamma, k, theta};
  }
  static Distribution uniform(double lo, double hi) {
    return {Kind::kUniform, lo, hi};
  }
  static Distribution pareto(double xm, double alpha) {
    return {Kind::kPareto, xm, alpha};
  }

  double sample(Rng& rng) const;
  double cdf(double x) const;
  double mean() const;
  std::string describe() const;

  /// Sample truncated below at `lo` (rejection with a clamp fallback).
  /// Cloud performance metrics never collapse to zero — Fig. 6's measured
  /// traces bottom out around half the peak — so ground-truth draws for
  /// rates use this with lo ~ 0.45 * mean().
  double sample_truncated(Rng& rng, double lo) const;
};

}  // namespace deco::util
