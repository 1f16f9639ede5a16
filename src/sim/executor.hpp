// Workflow execution on the simulated cloud.
//
// Implements the "Workflow component" of Section 6.1: it manages workflow
// structure and the scheduling of tasks onto simulated instances, honouring a
// provisioning Plan.  A task's duration is the sum of its CPU, I/O and
// network components (the estimation model of Section 5.1), with the I/O and
// network rates drawn per task from the catalog's ground-truth dynamics —
// the simulator-side counterpart of "the average I/O and network performance
// per second conform the distributions from calibration".
#pragma once

#include <limits>
#include <vector>

#include "cloud/control_plane.hpp"
#include "cloud/instance_type.hpp"
#include "sim/cloud_sim.hpp"
#include "sim/failure_model.hpp"
#include "sim/plan.hpp"
#include "util/rng.hpp"
#include "workflow/dag.hpp"

namespace deco::sim {

struct ExecutorOptions {
  double boot_seconds = 0;        ///< provisioning latency for new instances
  bool sample_dynamics = true;    ///< false = deterministic means (for tests)
  double rand_io_ops_per_task = 50;  ///< metadata-style random reads per task
  /// Failure injection (borrowed; may be nullptr).  A null or all-zero
  /// model consumes no RNG state and reproduces failure-free traces bit
  /// for bit.
  const FailureModel* failures = nullptr;
  /// Virtual-time horizon: events past it stay unprocessed and tasks not
  /// finished by then are reported incomplete.  The reactive WMS engine
  /// uses this to materialize a run's prefix up to a replanning point.
  double horizon_s = std::numeric_limits<double>::infinity();
  /// Control plane mediating every acquire/terminate (borrowed; may be
  /// nullptr = the seed simulator's infallible API).  A control plane with
  /// the null fault model grants instantly, consumes no entropy, and keeps
  /// traces bit-identical to running without one.  With faults enabled,
  /// provisioning retries/falls back inside the control plane (delaying the
  /// acquisition in virtual time) and throws
  /// cloud::ProvisioningExhaustedError when even fallback capacity is gone.
  cloud::ControlPlane* control = nullptr;
};

struct TaskTrace {
  double start = 0;
  double finish = 0;
  InstanceId instance = CloudPool::kNone;
};

/// How one task attempt ended.
enum class AttemptOutcome : std::uint8_t {
  kCompleted,    ///< ran to its finish time
  kCrashed,      ///< the executing instance crashed mid-attempt
  kFailed,       ///< transient task failure killed the attempt
  kInterrupted,  ///< the instance was reclaimed (spot interruption); work
                 ///< up to the notice was checkpointed
};

/// One started execution attempt of a task.  The executor appends a record
/// when the attempt's terminal event (finish / crash / failure) is
/// processed, so under a virtual-time horizon the log covers exactly the
/// attempts whose outcome fell inside the horizon — and for any run,
/// attempts.size() == (completed tasks) + failures.retries.  The timeline
/// exporter (obs/timeline.hpp) renders these as slices per instance track.
struct TaskAttempt {
  workflow::TaskId task = 0;
  std::uint32_t attempt = 0;  ///< 0-based attempt index for this task
  double start = 0;
  double end = 0;
  InstanceId instance = CloudPool::kNone;
  AttemptOutcome outcome = AttemptOutcome::kCompleted;
};

/// Counters for injected failures observed during one execution.
struct FailureStats {
  std::size_t instance_crashes = 0;  ///< instances lost (running or idle)
  std::size_t boot_failures = 0;     ///< failed acquisition attempts
  std::size_t task_failures = 0;     ///< transient task-attempt failures
  std::size_t stragglers = 0;        ///< attempts hit by a slowdown
  std::size_t retries = 0;           ///< task attempts rescheduled
  /// Instances reclaimed by spot interruption (notice-then-reclaim via the
  /// control plane).  Disturbed attempts also count one retry each, so
  /// total_disruptions() already covers them.
  std::size_t spot_interruptions = 0;

  std::size_t total_disruptions() const {
    return instance_crashes + boot_failures + task_failures + retries;
  }
};

struct ExecutionResult {
  double makespan = 0;        ///< seconds from submission to last finish
  double instance_cost = 0;   ///< billed instance-hours, USD
  double transfer_cost = 0;   ///< inter-region egress, USD
  double total_cost = 0;
  std::size_t instances_used = 0;
  std::vector<TaskTrace> tasks;
  /// Every started attempt, in event-processing order (see TaskAttempt).
  std::vector<TaskAttempt> attempts;
  /// Final state of every instance the run acquired (type, region,
  /// acquisition/release times, crash flag) — the timeline exporter's
  /// track metadata.
  std::vector<Instance> instances;
  /// completed[t] != 0 iff task t finished within the horizon.
  std::vector<std::uint8_t> completed;
  bool finished = true;       ///< every task completed
  FailureStats failures;
  /// Virtual time of the first failure that disturbed work (a crash hitting
  /// a task, a transient failure, or a boot failure); +inf when clean.  The
  /// reactive engine cuts its replanning horizon here.
  double first_failure_s = std::numeric_limits<double>::infinity();
  /// Virtual time of the first spot-interruption *notice* that lands inside
  /// the run; +inf when none does.  Unlike first_failure_s this is an
  /// advance warning: the reactive engine replans proactively at the notice
  /// (checkpoint + move work) instead of reacting to the reclamation.
  double first_notice_s = std::numeric_limits<double>::infinity();
  /// Earliest regional storm opening, before the run ends, in a region this
  /// run's instances occupy (+inf without weather or when no storm lands).
  /// Like first_notice_s this is a forecast the reactive engine acts on —
  /// it cuts ahead of the storm and evacuates `storm_region`.
  double first_storm_s = std::numeric_limits<double>::infinity();
  double first_storm_end_s = std::numeric_limits<double>::infinity();
  cloud::RegionId storm_region = 0;
};

/// Simulates one execution of `wf` under `plan`.  Each call consumes RNG
/// state, so repeated calls give the execution-time distribution (Fig. 2).
ExecutionResult simulate_execution(const workflow::Workflow& wf,
                                   const Plan& plan,
                                   const cloud::Catalog& catalog,
                                   util::Rng& rng,
                                   const ExecutorOptions& options = {});

}  // namespace deco::sim
