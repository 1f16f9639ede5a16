#include "sim/executor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/interference.hpp"

namespace deco::sim {
namespace {

constexpr double kMB = 1024.0 * 1024.0;
constexpr double kGB = 1024.0 * kMB;

/// Converts a megabit-per-second bandwidth to bytes per second.
double mbps_to_bytes_per_s(double mbps) {
  return std::max(mbps, 1.0) * 1e6 / 8.0;
}

/// Converts an MB/s disk rate to bytes per second.
double disk_rate_bytes_per_s(double mb_per_s) {
  return std::max(mb_per_s, 1.0) * kMB;
}

/// Consecutive boot failures tolerated per acquisition (termination bound).
constexpr int kMaxBootRetries = 4;

}  // namespace

ExecutionResult simulate_execution(const workflow::Workflow& wf,
                                   const Plan& plan,
                                   const cloud::Catalog& catalog,
                                   util::Rng& rng,
                                   const ExecutorOptions& options) {
  DECO_OBS_SPAN_TIMED("sim", "simulate_execution", "sim.execute_ms");
  ExecutionResult result;
  result.tasks.resize(wf.task_count());
  result.completed.assign(wf.task_count(), 0);
  if (wf.task_count() == 0) return result;

  // Failure injection is active only when a model with at least one non-zero
  // rate is supplied; every draw below is additionally gated on its own rate,
  // so the failure-free path consumes the RNG exactly as the seed executor
  // did and stays bit-identical.
  const FailureModel* fm =
      options.failures && options.failures->enabled() ? options.failures
                                                      : nullptr;
  // Control-plane mediation: a null fault model grants instantly and draws
  // nothing (its own bit-identity contract), so `cp` stays set only when the
  // API can actually misbehave.  Its entropy lives inside the control plane;
  // the executor's rng stream is never touched by API faults.
  cloud::ControlPlane* cp =
      options.control && !options.control->null_model() ? options.control
                                                        : nullptr;
  const bool interruptions = cp && cp->interruptions_enabled();
  // Disruptions tolerated per task before attempts run failure-immune (the
  // simulation must terminate).  Spot interruptions share the cap so a
  // pathological interruption rate cannot livelock a task.
  constexpr std::size_t kInterruptRetryCap = 3;
  const std::size_t retry_cap = fm ? fm->options().max_task_retries
                                   : (interruptions ? kInterruptRetryCap : 0);

  CloudPool pool(catalog);
  EventQueue queue;
  std::vector<std::size_t> waiting_parents(wf.task_count());
  for (workflow::TaskId t = 0; t < wf.task_count(); ++t) {
    waiting_parents[t] = wf.parents(t).size();
  }
  // Injected failures suffered per task so far; once a task reaches the
  // retry cap its next attempt runs failure-immune so the simulation
  // terminates (a real WMS would declare the workflow failed — here the
  // robustness metrics read the inflated makespan instead).
  std::vector<std::size_t> attempts(wf.task_count(), 0);
  // Fraction of each task's work still to do: crashes salvage
  // checkpoint_fraction of the completed part, so retries shrink.
  std::vector<double> remaining(wf.task_count(), 1.0);

  double transfer_cost = 0;

  // Correlated interference: one factor for the whole run scales every I/O
  // and network rate (congestion persists across a workflow execution).
  const double interference =
      options.sample_dynamics ? interference_factor(util::Normal{}.sample(rng))
                              : 1.0;

  // Draw a rate from a distribution (floored per cloud::sample_rate), or
  // take the mean when dynamics are off.
  auto rate = [&](const util::Distribution& dist) {
    return options.sample_dynamics
               ? cloud::sample_rate(dist, rng) * interference
               : dist.mean();
  };

  auto note_failure = [&](double t) {
    result.first_failure_s = std::min(result.first_failure_s, t);
  };
  auto note_notice = [&](double t) {
    result.first_notice_s = std::min(result.first_notice_s, t);
  };

  // Forward declaration pattern: the lambda is stored so completion events
  // can make children ready.
  std::function<void(workflow::TaskId, double)> start_task;

  auto on_ready = [&](workflow::TaskId tid, double now) {
    start_task(tid, now);
  };

  start_task = [&](workflow::TaskId tid, double now) {
    const TaskPlacement& placement = plan[tid];

    // Locate or acquire the executing instance, retiring dead candidates
    // (crashed, or reclaimed by a spot interruption).
    InstanceId inst_id = CloudPool::kNone;
    double start = now;
    for (;;) {
      if (placement.group >= 0) {
        inst_id = pool.find_group(placement.group);
      } else {
        inst_id = pool.find_idle(placement.vm_type, placement.region, now);
      }
      if (inst_id == CloudPool::kNone) {
        // Every acquisition goes through the control plane: throttling,
        // transient errors and capacity outages delay (or redirect) the
        // launch in virtual time before the instance exists.
        double admit = now;
        cloud::TypeId grant_type = placement.vm_type;
        cloud::RegionId grant_region = placement.region;
        if (cp) {
          const cloud::ProvisionGrant grant =
              cp->provision(placement.vm_type, placement.region, now);
          if (!grant.ok) {
            throw cloud::ProvisioningExhaustedError(
                "control plane exhausted: no capacity for " +
                catalog.type(placement.vm_type).name +
                " or any fallback candidate");
          }
          admit = grant.ready_at;
          grant_type = grant.type;
          grant_region = grant.region;
        }
        double boot_delay = options.boot_seconds;
        if (fm) {
          // Failed boots delay the acquisition (the failed provisioning
          // attempt itself is not billed); capped so the run terminates.
          for (int tries = 0;
               tries < kMaxBootRetries && fm->sample_boot_failure(rng);
               ++tries) {
            ++result.failures.boot_failures;
            note_failure(admit + boot_delay);
            boot_delay += fm->options().boot_retry_s + options.boot_seconds;
          }
        }
        inst_id = pool.acquire(grant_type, grant_region, admit,
                               placement.group);
        if (fm && fm->crashes_enabled()) {
          // Crash hazard follows where the instance runs: the model's
          // static per-region multiplier composed with the regional
          // weather's storm multiplier at acquisition.  Both default to
          // exactly 1.0, which keeps the draw bit-identical to the
          // region-blind model.
          double hazard = fm->region_hazard(grant_region);
          if (cp && cp->weather().enabled()) {
            hazard *= cp->weather().crash_multiplier(grant_region, admit);
          }
          pool.instance(inst_id).crash_at =
              admit + fm->sample_uptime(rng, hazard);
        }
        if (interruptions) {
          if (const auto intr = cp->sample_interruption(admit, grant_region)) {
            pool.instance(inst_id).reclaim_at = intr->reclaim_at;
            pool.instance(inst_id).notice_at = intr->notice_at;
          }
        }
        start = admit + boot_delay;
        break;
      }
      const Instance& inst = pool.instance(inst_id);
      const double avail = std::max(now, inst.busy_until);
      const double crash_at =
          fm ? inst.crash_at : std::numeric_limits<double>::infinity();
      const double reclaim_at =
          interruptions ? inst.reclaim_at
                        : std::numeric_limits<double>::infinity();
      const double dead_at = std::min(crash_at, reclaim_at);
      if (dead_at <= avail) {
        if (dead_at <= now) {
          // Died while sitting idle: retire it un-refunded (billed to the
          // crash/reclamation) and look for a replacement.
          if (pool.fail(inst_id, dead_at)) {
            if (crash_at <= reclaim_at) {
              ++result.failures.instance_crashes;
            } else {
              ++result.failures.spot_interruptions;
              note_notice(inst.notice_at);
            }
          }
          continue;
        }
        // The instance dies before it could serve this task (the attempt
        // currently occupying it observes the death itself); wait for it
        // to be detected, then reschedule on a replacement.  A reclamation
        // was announced by its notice, so no detection backoff applies.
        const double redo =
            crash_at <= reclaim_at ? dead_at + fm->backoff_delay(0) : dead_at;
        queue.schedule(redo, [&, tid](double t) { start_task(tid, t); });
        return;
      }
      start = avail;
      break;
    }
    // Durations and data movement are priced by the hardware actually
    // granted — identical to the plan's placement unless the control plane
    // fell back to an alternate type or region.
    const cloud::InstanceType& type = catalog.type(pool.instance(inst_id).type);
    const cloud::RegionId inst_region = pool.instance(inst_id).region;

    // CPU component: reference seconds scaled by compute units.
    const double cpu_time = wf.task(tid).cpu_seconds /
                            std::max(type.per_core_units, 0.1);

    // Disk I/O component: bulk reads/writes at the sampled sequential rate
    // plus metadata-style random operations at the sampled IOPS.
    const double seq_rate = disk_rate_bytes_per_s(rate(type.seq_io_mbps));
    double io_time =
        (wf.task(tid).input_bytes + wf.task(tid).output_bytes) / seq_rate;
    const double iops = std::max(rate(type.rand_io_iops), 1.0);
    io_time += options.rand_io_ops_per_task / iops;

    // Network component: parent outputs fetched from other instances
    // (completed outputs live on shared storage, so a parent's data
    // survives the crash of the instance that produced it).
    double net_time = 0;
    for (const workflow::Edge& e : wf.edges()) {
      if (e.child != tid || e.bytes <= 0) continue;
      const TaskTrace& parent_trace = result.tasks[e.parent];
      if (parent_trace.instance == inst_id) continue;  // data is local
      // Transfer rates and egress pricing follow where the parent's data
      // actually lives (== the plan's placement unless a fallback grant
      // redirected the parent).
      const Instance& parent_inst = pool.instance(parent_trace.instance);
      if (parent_inst.region != inst_region) {
        const double bw = mbps_to_bytes_per_s(rate(catalog.inter_region_net()));
        net_time += e.bytes / bw;
        transfer_cost += e.bytes / kGB * catalog.egress_price(parent_inst.region);
      } else {
        const double bw = mbps_to_bytes_per_s(rate(
            catalog.network_pair(parent_inst.type, pool.instance(inst_id).type)));
        net_time += e.bytes / bw;
      }
    }

    double duration = (cpu_time + io_time + net_time) * remaining[tid];
    const bool immune = attempts[tid] >= retry_cap;
    if (fm && fm->sample_straggler(rng)) {
      ++result.failures.stragglers;
      duration *= std::max(fm->options().straggler_slowdown, 1.0);
    }
    // Transient attempt failure: discovered partway through the attempt.
    bool fail_transient = false;
    double fail_frac = 0;
    if (fm && !immune && fm->sample_task_failure(rng)) {
      fail_transient = true;
      fail_frac = rng.uniform();
    }
    const double crash_at =
        (fm && !immune) ? pool.instance(inst_id).crash_at
                        : std::numeric_limits<double>::infinity();
    const double reclaim_at =
        (interruptions && !immune) ? pool.instance(inst_id).reclaim_at
                                   : std::numeric_limits<double>::infinity();

    const double finish = start + duration;
    const double fail_at =
        fail_transient ? start + fail_frac * duration
                       : std::numeric_limits<double>::infinity();
    // Attempt log entries are appended when the attempt's terminal event is
    // processed (so the horizon semantics match completed[] / retries).
    const auto attempt_idx = static_cast<std::uint32_t>(attempts[tid]);

    if (finish <= crash_at && finish <= reclaim_at && !fail_transient) {
      // The attempt completes.
      result.tasks[tid] = TaskTrace{start, finish, inst_id};
      pool.instance(inst_id).busy_until = finish;
      queue.schedule(finish, [&, tid, attempt_idx, start, finish,
                              inst_id](double done_time) {
        result.completed[tid] = 1;
        result.attempts.push_back(TaskAttempt{tid, attempt_idx, start, finish,
                                              inst_id,
                                              AttemptOutcome::kCompleted});
        for (workflow::TaskId child : wf.children(tid)) {
          if (--waiting_parents[child] == 0) on_ready(child, done_time);
        }
      });
      return;
    }

    if (reclaim_at < crash_at && reclaim_at < fail_at) {
      // Spot interruption: the notice (delivered notice-lead seconds ahead
      // of the reclamation) let the attempt checkpoint, so everything
      // completed before the notice survives; the task restarts on a
      // replacement at the reclamation with no detection backoff — the
      // warning IS the detection.
      const double notice_at = pool.instance(inst_id).notice_at;
      pool.instance(inst_id).busy_until = reclaim_at;
      result.tasks[tid] = TaskTrace{start, reclaim_at, inst_id};
      const double saved_frac =
          duration > 0 ? std::clamp((notice_at - start) / duration, 0.0, 1.0)
                       : 1.0;
      queue.schedule(reclaim_at, [&, tid, attempt_idx, start, inst_id,
                                  notice_at, saved_frac](double t) {
        if (pool.fail(inst_id, t)) ++result.failures.spot_interruptions;
        ++result.failures.retries;
        ++attempts[tid];
        result.attempts.push_back(TaskAttempt{tid, attempt_idx, start, t,
                                              inst_id,
                                              AttemptOutcome::kInterrupted});
        note_notice(notice_at);
        remaining[tid] *= 1.0 - saved_frac;
        start_task(tid, t);
      });
      return;
    }

    if (crash_at < fail_at) {
      // The instance crashes mid-attempt: released un-refunded, the work
      // since the last checkpoint is lost, and the task is rescheduled
      // after backoff on a replacement instance.
      pool.instance(inst_id).busy_until = crash_at;
      result.tasks[tid] = TaskTrace{start, crash_at, inst_id};
      const double done_frac =
          duration > 0 ? std::clamp((crash_at - start) / duration, 0.0, 1.0)
                       : 1.0;
      queue.schedule(crash_at, [&, tid, attempt_idx, start, inst_id,
                                done_frac](double t) {
        if (pool.fail(inst_id, t)) ++result.failures.instance_crashes;
        ++result.failures.retries;
        ++attempts[tid];
        result.attempts.push_back(TaskAttempt{
            tid, attempt_idx, start, t, inst_id, AttemptOutcome::kCrashed});
        note_failure(t);
        remaining[tid] *=
            1.0 - std::clamp(fm->options().checkpoint_fraction, 0.0, 1.0) *
                      done_frac;
        queue.schedule(t + fm->backoff_delay(attempts[tid]),
                       [&, tid](double retry_at) { start_task(tid, retry_at); });
      });
      return;
    }

    // Transient failure: the attempt dies at fail_at, the instance survives
    // and frees up; the task retries after capped exponential backoff.
    pool.instance(inst_id).busy_until = fail_at;
    result.tasks[tid] = TaskTrace{start, fail_at, inst_id};
    queue.schedule(fail_at, [&, tid, attempt_idx, start, inst_id](double t) {
      ++result.failures.task_failures;
      ++result.failures.retries;
      ++attempts[tid];
      result.attempts.push_back(TaskAttempt{tid, attempt_idx, start, t,
                                            inst_id, AttemptOutcome::kFailed});
      note_failure(t);
      queue.schedule(t + fm->backoff_delay(attempts[tid]),
                     [&, tid](double retry_at) { start_task(tid, retry_at); });
    });
  };

  for (workflow::TaskId root : wf.roots()) {
    queue.schedule(0, [&, root](double now) { on_ready(root, now); });
  }
  if (std::isfinite(options.horizon_s)) {
    queue.run_until(options.horizon_s);
  } else {
    queue.run();
  }

  double makespan = 0;
  bool finished = true;
  for (workflow::TaskId t = 0; t < wf.task_count(); ++t) {
    if (result.completed[t]) {
      makespan = std::max(makespan, result.tasks[t].finish);
    } else {
      finished = false;
    }
  }
  const double end =
      finished ? makespan : options.horizon_s;
  // Instances whose crash or reclamation time falls inside the run are
  // billed only up to it, even if no task ever observed the death.
  if ((fm && fm->crashes_enabled()) || interruptions) {
    for (InstanceId id = 0; id < pool.instance_count(); ++id) {
      const Instance& inst = pool.instance(id);
      const double crash = fm && fm->crashes_enabled()
                               ? inst.crash_at
                               : std::numeric_limits<double>::infinity();
      const double reclaim = interruptions
                                 ? inst.reclaim_at
                                 : std::numeric_limits<double>::infinity();
      const double dead = std::min(crash, reclaim);
      if (inst.running() && dead < end) {
        if (pool.fail(id, dead)) {
          if (crash <= reclaim) {
            ++result.failures.instance_crashes;
          } else {
            ++result.failures.spot_interruptions;
            note_notice(inst.notice_at);
          }
        }
      }
    }
  }
  // Surface the weather forecast for the regions this run actually used:
  // the earliest storm opening before the run ends is the reactive
  // engine's evacuation signal (analogous to a spot notice, but regional).
  if (cp && cp->weather().enabled() && pool.instance_count() > 0) {
    std::vector<std::uint8_t> used(catalog.region_count(), 0);
    for (InstanceId id = 0; id < pool.instance_count(); ++id) {
      const cloud::RegionId r = pool.instance(id).region;
      if (r < used.size()) used[r] = 1;
    }
    for (cloud::RegionId r = 0; r < used.size(); ++r) {
      if (!used[r]) continue;
      if (const auto w = cp->weather().next_storm(r, 0.0)) {
        if (w->start < end && w->start < result.first_storm_s) {
          result.first_storm_s = w->start;
          result.first_storm_end_s = w->end;
          result.storm_region = r;
        }
      }
    }
  }
  // Termination is an API call too: a throttled or failing control plane
  // delays releases, which bills the straggling instances a little longer.
  if (cp) {
    const double released = cp->complete_call(cloud::ApiOp::kTerminate, end);
    pool.release_all(released);
  } else {
    pool.release_all(end);
  }

  result.makespan = makespan;
  result.finished = finished;
  result.instance_cost = pool.billed_cost();
  result.transfer_cost = transfer_cost;
  result.total_cost = result.instance_cost + result.transfer_cost;
  result.instances_used = pool.instance_count();
  result.instances.reserve(pool.instance_count());
  for (InstanceId id = 0; id < pool.instance_count(); ++id) {
    result.instances.push_back(pool.instance(id));
  }
  DECO_OBS_COUNTER_ADD("sim.runs", 1);
  DECO_OBS_COUNTER_ADD("sim.task_attempts", result.attempts.size());
  if (const auto n = result.failures.instance_crashes; n != 0) {
    DECO_OBS_COUNTER_ADD("sim.failures.instance_crashes", n);
  }
  if (const auto n = result.failures.boot_failures; n != 0) {
    DECO_OBS_COUNTER_ADD("sim.failures.boot_failures", n);
  }
  if (const auto n = result.failures.task_failures; n != 0) {
    DECO_OBS_COUNTER_ADD("sim.failures.task_failures", n);
  }
  if (const auto n = result.failures.stragglers; n != 0) {
    DECO_OBS_COUNTER_ADD("sim.failures.stragglers", n);
  }
  if (const auto n = result.failures.retries; n != 0) {
    DECO_OBS_COUNTER_ADD("sim.failures.retries", n);
  }
  if (const auto n = result.failures.spot_interruptions; n != 0) {
    DECO_OBS_COUNTER_ADD("sim.failures.spot_interruptions", n);
  }
  return result;
}

}  // namespace deco::sim
