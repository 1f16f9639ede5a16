// Shared fixtures for core tests: one calibrated EC2 catalog + metadata
// store per process (calibration is deterministic, so sharing is safe).
#pragma once

#include "cloud/instance_type.hpp"
#include "core/estimator.hpp"
#include "core/evaluator.hpp"
#include "vgpu/device.hpp"

namespace deco::core::testing {

inline const cloud::Catalog& ec2() {
  static const cloud::Catalog catalog = cloud::make_ec2_catalog();
  return catalog;
}

inline const cloud::MetadataStore& store() {
  static const cloud::MetadataStore s =
      make_store_from_catalog(ec2(), "ec2", 4000, 24, 7);
  return s;
}

/// A deadline between the all-fast and all-slow expected makespans, so a
/// wave of mixed plans straddles the feasibility frontier and all three
/// screen verdicts occur.
inline double medium_deadline(const workflow::Workflow& wf) {
  TaskTimeEstimator estimator(ec2(), store());
  vgpu::SerialBackend backend;
  PlanEvaluator evaluator(wf, estimator, backend);
  const auto top = static_cast<cloud::TypeId>(ec2().type_count() - 1);
  const double fast =
      evaluator.evaluate(sim::Plan::uniform(wf.task_count(), top), {0.5, 1e12})
          .mean_makespan;
  const double slow =
      evaluator.evaluate(sim::Plan::uniform(wf.task_count(), 0), {0.5, 1e12})
          .mean_makespan;
  return 0.5 * (fast + slow);
}

}  // namespace deco::core::testing
