#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace deco::util {

Histogram Histogram::from_samples(std::span<const double> samples,
                                  std::size_t bins) {
  Histogram h;
  if (samples.empty() || bins == 0) return h;
  const auto [mn_it, mx_it] = std::minmax_element(samples.begin(), samples.end());
  const double mn = *mn_it;
  const double mx = *mx_it;
  if (mx <= mn) {
    h.centers_ = {mn};
    h.masses_ = {1.0};
    h.cdf_ = {1.0};
    return h;
  }
  const double width = (mx - mn) / static_cast<double>(bins);
  h.centers_.resize(bins);
  h.masses_.assign(bins, 0.0);
  for (std::size_t i = 0; i < bins; ++i)
    h.centers_[i] = mn + (static_cast<double>(i) + 0.5) * width;
  for (double x : samples) {
    auto idx = static_cast<std::size_t>((x - mn) / width);
    idx = std::min(idx, bins - 1);
    h.masses_[idx] += 1.0;
  }
  const double total = static_cast<double>(samples.size());
  for (double& m : h.masses_) m /= total;
  h.cdf_.resize(bins);
  std::partial_sum(h.masses_.begin(), h.masses_.end(), h.cdf_.begin());
  h.cdf_.back() = 1.0;
  return h;
}

Histogram Histogram::from_bins(std::vector<double> centers,
                               std::vector<double> masses) {
  Histogram h;
  if (centers.empty() || centers.size() != masses.size()) return h;
  // Keep centers ascending; sort pairs if needed.
  std::vector<std::size_t> order(centers.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return centers[a] < centers[b]; });
  h.centers_.reserve(centers.size());
  h.masses_.reserve(masses.size());
  double total = 0;
  for (std::size_t i : order) {
    h.centers_.push_back(centers[i]);
    h.masses_.push_back(std::max(masses[i], 0.0));
    total += h.masses_.back();
  }
  if (total <= 0) {
    h.masses_.assign(h.masses_.size(), 1.0 / static_cast<double>(h.masses_.size()));
  } else {
    for (double& m : h.masses_) m /= total;
  }
  h.cdf_.resize(h.masses_.size());
  std::partial_sum(h.masses_.begin(), h.masses_.end(), h.cdf_.begin());
  h.cdf_.back() = 1.0;
  return h;
}

double Histogram::mean() const {
  double acc = 0;
  for (std::size_t i = 0; i < centers_.size(); ++i)
    acc += centers_[i] * masses_[i];
  return acc;
}

double Histogram::variance() const {
  const double m = mean();
  double acc = 0;
  for (std::size_t i = 0; i < centers_.size(); ++i)
    acc += masses_[i] * (centers_[i] - m) * (centers_[i] - m);
  return acc;
}

double Histogram::percentile(double q) const {
  if (empty()) return 0;
  const double target = std::clamp(q, 0.0, 100.0) / 100.0;
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), target);
  const auto idx = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(centers_.size()) - 1));
  return centers_[idx];
}

double Histogram::sample_at(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto idx = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(centers_.size()) - 1));
  return centers_[idx];
}

double Histogram::prob_le(double x) const {
  double acc = 0;
  for (std::size_t i = 0; i < centers_.size() && centers_[i] <= x; ++i)
    acc += masses_[i];
  return acc;
}

Histogram Histogram::scaled(double factor) const {
  Histogram h = *this;
  for (double& c : h.centers_) c *= factor;
  if (factor < 0) {
    std::reverse(h.centers_.begin(), h.centers_.end());
    std::reverse(h.masses_.begin(), h.masses_.end());
    h.cdf_.resize(h.masses_.size());
    std::partial_sum(h.masses_.begin(), h.masses_.end(), h.cdf_.begin());
  }
  return h;
}

}  // namespace deco::util
