// Spot-instance policy planning (pricing-model extension).
//
// Spot instances trade ~70% lower prices for revocation risk; the sensible
// policy for deadline-constrained workflows is "spot where there is slack":
// a task may run on spot if the extra delay of a few revoked attempts still
// fits inside its slack against the deadline.  Critical-path tasks stay
// on-demand.
#pragma once

#include "core/estimator.hpp"
#include "sim/spot_executor.hpp"

namespace deco::core {

struct SpotPlannerOptions {
  double bid_fraction = 0.6;
};

/// Decides the per-task spot policy for `plan` against `deadline_s`: a task
/// goes to spot if its slack exceeds twice its own duration (room for two
/// lost attempts) plus 900 s for waiting out a price spike until the market
/// re-admits the bid (spikes decay over tens of minutes).
sim::SpotPolicy plan_spot_policy(const workflow::Workflow& wf,
                                 const sim::Plan& plan,
                                 TaskTimeEstimator& estimator,
                                 double deadline_s,
                                 const SpotPlannerOptions& options = {});

/// Per-task slack: deadline minus the longest path through the task (mean
/// times under `plan`).  Negative slack means the task is critical for the
/// deadline.
std::vector<double> task_slack(const workflow::Workflow& wf,
                               const sim::Plan& plan,
                               TaskTimeEstimator& estimator,
                               double deadline_s);

}  // namespace deco::core
