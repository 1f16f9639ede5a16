// Correlated cloud interference — one model shared by the simulator and the
// plan evaluator's predictions (MC worlds, QMC worlds and the analytic
// screen's quadrature nodes), so the two cannot drift apart.
//
// One factor I per workflow run scales every I/O and network rate.  Cloud
// interference is strongly time-correlated (Schad et al., the paper's [33]):
// a congested disk or network stays congested across a workflow run, which
// is what makes whole-workflow execution times vary significantly (Fig. 2)
// even though per-task noise averages out.
#pragma once

#include <algorithm>
#include <cmath>

namespace deco::sim {

/// Coefficient of variation of the interference factor I ~ N(1, cv).
inline constexpr double kInterferenceCv = 0.15;

/// The interference factor for a standard-normal deviate z: 1 + cv z,
/// truncated to 1 +- 3 cv (which keeps it strictly positive).  The fused
/// multiply-add rounds once, so the factor is the same bits whether or not
/// the including translation unit lets the compiler contract.
inline double interference_factor(double z) {
  static_assert(1.0 - 3 * kInterferenceCv > 0);
  return std::clamp(std::fma(kInterferenceCv, z, 1.0),
                    1.0 - 3 * kInterferenceCv, 1.0 + 3 * kInterferenceCv);
}

}  // namespace deco::sim
