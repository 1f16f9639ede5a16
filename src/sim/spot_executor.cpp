#include "sim/spot_executor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/interference.hpp"

namespace deco::sim {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

double mbps_to_bytes_per_s(double mbps) {
  return std::max(mbps, 1.0) * 1e6 / 8.0;
}

}  // namespace

SpotExecutionResult simulate_spot_execution(
    const workflow::Workflow& wf, const Plan& plan, const SpotPolicy& policy,
    const std::vector<cloud::SpotPriceTrace>& traces,
    const cloud::Catalog& catalog, util::Rng& rng,
    const ExecutorOptions& options) {
  SpotExecutionResult result;
  result.base.tasks.resize(wf.task_count());
  if (wf.task_count() == 0) return result;

  EventQueue queue;
  std::vector<std::size_t> waiting_parents(wf.task_count());
  for (workflow::TaskId t = 0; t < wf.task_count(); ++t) {
    waiting_parents[t] = wf.parents(t).size();
  }

  const double interference =
      options.sample_dynamics ? interference_factor(util::Normal{}.sample(rng))
                              : 1.0;
  auto rate = [&](const util::Distribution& dist) {
    return options.sample_dynamics
               ? cloud::sample_rate(dist, rng) * interference
               : dist.mean();
  };

  // One attempt's duration (CPU + I/O + network from other tasks).
  auto duration_of = [&](workflow::TaskId tid) {
    const TaskPlacement& placement = plan[tid];
    const cloud::InstanceType& type = catalog.type(placement.vm_type);
    double time =
        wf.task(tid).cpu_seconds / std::max(type.per_core_units, 0.1);
    const double seq = std::max(rate(type.seq_io_mbps), 1.0) * kMB;
    time += (wf.task(tid).input_bytes + wf.task(tid).output_bytes) / seq;
    const double iops = std::max(rate(type.rand_io_iops), 1.0);
    time += options.rand_io_ops_per_task / iops;
    for (const workflow::Edge& e : wf.edges()) {
      if (e.child != tid || e.bytes <= 0) continue;
      const double bw = mbps_to_bytes_per_s(
          rate(catalog.network_pair(plan[e.parent].vm_type,
                                    placement.vm_type)));
      time += e.bytes / bw;
    }
    return time;
  };

  // Advance warning before each market revocation (the control plane's spot
  // notice lead); 0 without a control plane = the seed executor's
  // no-warning semantics, where revoked work is entirely lost.
  const double notice_lead =
      options.control ? options.control->options().faults.spot_notice_lead_s
                      : 0;
  // Fraction of each task's work still to do after checkpoints.
  std::vector<double> remaining(wf.task_count(), 1.0);

  std::function<void(workflow::TaskId, double)> start_task;
  start_task = [&](workflow::TaskId tid, double now) {
    const TaskPlacement& placement = plan[tid];
    const cloud::InstanceType& type = catalog.type(placement.vm_type);
    const bool wants_spot = tid < policy.use_spot.size() &&
                            policy.use_spot[tid] &&
                            placement.vm_type < traces.size();
    const double on_demand = catalog.price(placement.vm_type, placement.region);

    double start = now;
    double spent_spot = 0;
    std::size_t attempts = 0;
    bool on_spot = wants_spot;

    if (wants_spot) {
      const cloud::SpotPriceTrace& trace = traces[placement.vm_type];
      const double bid = policy.bid_fraction * on_demand;
      for (; attempts < policy.max_retries; ++attempts) {
        // Wait until the market admits the bid.
        double t = start;
        while (trace.price_at(t) > bid) {
          t += trace.step_seconds();
          if (t > start + 48 * 3600) break;  // market never comes back
        }
        const double attempt_duration = duration_of(tid) * remaining[tid];
        const double revoke_at = trace.next_revocation(t, bid);
        if (revoke_at < 0 || revoke_at >= t + attempt_duration) {
          // The attempt completes; billed at the spot price (prorated).
          spent_spot += attempt_duration / 3600.0 * trace.price_at(t);
          const double finish = t + attempt_duration;
          result.base.tasks[tid] = TaskTrace{t, finish, CloudPool::kNone};
          result.spot_cost += spent_spot;
          queue.schedule(finish, [&, tid](double done) {
            for (workflow::TaskId child : wf.children(tid)) {
              if (--waiting_parents[child] == 0) start_task(child, done);
            }
          });
          return;
        }
        // Revoked mid-attempt: the revoked partial hour is free.  With a
        // notice lead the attempt checkpoints at the notice, salvaging the
        // work done before it; without one all the work is lost.
        ++result.revocations;
        if (notice_lead > 0 && attempt_duration > 0) {
          const double notice_at = revoke_at - notice_lead;
          const double done =
              std::clamp((notice_at - t) / attempt_duration, 0.0, 1.0);
          if (done > 0) {
            ++result.notices_honored;
            result.salvaged_s += done * attempt_duration;
            remaining[tid] *= 1.0 - done;
          }
        }
        start = revoke_at + trace.step_seconds();
      }
      // Too many revocations: fall back to on-demand.
      ++result.fallbacks;
      on_spot = false;
    }

    (void)on_spot;
    const double attempt_duration = duration_of(tid) * remaining[tid];
    const double finish = start + attempt_duration;
    result.base.tasks[tid] = TaskTrace{start, finish, CloudPool::kNone};
    // Prorated on-demand billing (Eq. 1's granularity — this simplified
    // executor does not model instance reuse, so hour-ceiling every task
    // would systematically overcharge the on-demand policy).
    const double cost = attempt_duration / 3600.0 *
                        catalog.price(plan[tid].vm_type, plan[tid].region);
    result.on_demand_cost += cost;
    result.spot_cost += spent_spot;  // wasted bids already counted as zero
    (void)type;
    queue.schedule(finish, [&, tid](double done) {
      for (workflow::TaskId child : wf.children(tid)) {
        if (--waiting_parents[child] == 0) start_task(child, done);
      }
    });
  };

  for (workflow::TaskId root : wf.roots()) {
    queue.schedule(0, [&, root](double now) { start_task(root, now); });
  }
  queue.run();

  double makespan = 0;
  for (const TaskTrace& trace : result.base.tasks) {
    makespan = std::max(makespan, trace.finish);
  }
  result.base.makespan = makespan;
  result.base.instance_cost = result.spot_cost + result.on_demand_cost;
  result.base.total_cost = result.base.instance_cost;
  return result;
}

}  // namespace deco::sim
