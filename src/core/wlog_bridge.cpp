#include "core/wlog_bridge.hpp"

#include <vector>

#include "core/followcost.hpp"
#include "obs/obs.hpp"

namespace deco::core {

using wlog::make_atom;
using wlog::make_compound;
using wlog::make_float;
using wlog::make_int;

WlogBridge::WlogBridge(const workflow::Workflow& wf,
                       TaskTimeEstimator& estimator,
                       WlogBridgeOptions options)
    : wf_(&wf), estimator_(&estimator), options_(options) {}

std::string WlogBridge::task_atom(workflow::TaskId id) {
  return "t" + std::to_string(id);
}

std::string WlogBridge::vm_atom(cloud::TypeId id) {
  return "v" + std::to_string(id);
}

std::string WlogBridge::region_atom(cloud::RegionId id) {
  return "r" + std::to_string(id);
}

wlog::ProbProgram WlogBridge::build_ir(const wlog::Program& program) {
  DECO_OBS_SPAN_TIMED("wlog", "translate_ir", "wlog.translate_ms");
  DECO_OBS_COUNTER_ADD("wlog.ir_builds", 1);
  wlog::ProbProgram ir = wlog::translate_rules(program);
  const cloud::Catalog& catalog = estimator_->catalog();

  // Workflow facts, with virtual root/tail bracketing the DAG.
  for (workflow::TaskId t = 0; t < wf_->task_count(); ++t) {
    ir.base().add_fact(make_compound("task", {make_atom(task_atom(t))}));
  }
  for (const workflow::Edge& e : wf_->edges()) {
    ir.base().add_fact(make_compound(
        "edge", {make_atom(task_atom(e.parent)), make_atom(task_atom(e.child))}));
    ir.base().add_fact(make_compound(
        "datasize", {make_atom(task_atom(e.parent)),
                     make_atom(task_atom(e.child)), make_float(e.bytes)}));
  }
  for (workflow::TaskId r : wf_->roots()) {
    ir.base().add_fact(
        make_compound("edge", {make_atom("root"), make_atom(task_atom(r))}));
  }
  for (workflow::TaskId l : wf_->leaves()) {
    ir.base().add_fact(
        make_compound("edge", {make_atom(task_atom(l)), make_atom("tail")}));
  }

  // Cloud facts.
  for (cloud::TypeId v = 0; v < catalog.type_count(); ++v) {
    ir.base().add_fact(make_compound("vm", {make_atom(vm_atom(v))}));
    ir.base().add_fact(make_compound(
        "price", {make_atom(vm_atom(v)),
                  make_float(catalog.price(v, options_.region) / 3600.0)}));
  }
  // Region topology + the data-gravity term: region/1 plus per-pair egress
  // prices so residency and failover goals can price inter-region moves.
  for (cloud::RegionId a = 0; a < catalog.region_count(); ++a) {
    ir.base().add_fact(make_compound("region", {make_atom(region_atom(a))}));
    for (cloud::RegionId b = 0; b < catalog.region_count(); ++b) {
      if (a == b) continue;
      ir.base().add_fact(make_compound(
          "transfer_price", {make_atom(region_atom(a)), make_atom(region_atom(b)),
                             make_float(catalog.egress_price(a))}));
    }
  }

  // Virtual tasks are free, instantaneous, and pre-configured on every type
  // (they are not decision variables, so their configs facts live in the
  // base IR rather than in the per-state binding).
  for (cloud::TypeId v = 0; v < catalog.type_count(); ++v) {
    for (const char* virt : {"root", "tail"}) {
      ir.base().add_fact(make_compound(
          "exetime", {make_atom(virt), make_atom(vm_atom(v)), make_int(0)}));
    }
  }
  for (const char* virt : {"root", "tail"}) {
    ir.base().add_fact(make_compound(
        "configs", {make_atom(virt), make_atom(vm_atom(0)), make_int(1)}));
  }

  // Probabilistic exetime groups: one annotated disjunction per (task, type),
  // discretized to a compact bin count for tractable inference.
  for (workflow::TaskId t = 0; t < wf_->task_count(); ++t) {
    for (cloud::TypeId v = 0; v < catalog.type_count(); ++v) {
      const util::Histogram& hist = estimator_->distribution(*wf_, t, v);
      // Re-bin to options_.exetime_bins quantile points.
      const std::size_t bins = options_.exetime_bins;
      wlog::ProbGroup group;
      group.probs.reserve(bins);
      group.facts.reserve(bins);
      for (std::size_t b = 0; b < bins; ++b) {
        const double q = (static_cast<double>(b) + 0.5) /
                         static_cast<double>(bins) * 100.0;
        group.probs.push_back(1.0 / static_cast<double>(bins));
        group.facts.push_back(make_compound(
            "exetime", {make_atom(task_atom(t)), make_atom(vm_atom(v)),
                        make_float(hist.percentile(q))}));
      }
      ir.add_group(std::move(group));
    }
  }
  return ir;
}

wlog::ProbProgram WlogBridge::bind_plan(const wlog::ProbProgram& ir,
                                        const sim::Plan& plan) const {
  wlog::ProbProgram bound = ir;
  for (workflow::TaskId t = 0; t < wf_->task_count() && t < plan.size(); ++t) {
    bound.base().add_fact(make_compound(
        "configs", {make_atom(task_atom(t)), make_atom(vm_atom(plan[t].vm_type)),
                    make_int(1)}));
    bound.base().add_fact(make_compound(
        "region",
        {make_atom(task_atom(t)), make_atom(region_atom(plan[t].region))}));
  }
  return bound;
}

wlog::ProbProgram build_ensemble_ir(
    const wlog::Program& program, const workflow::Ensemble& ensemble,
    std::span<const double> member_costs,
    std::span<const std::uint8_t> member_feasible) {
  wlog::ProbProgram ir = wlog::translate_rules(program);
  for (std::size_t i = 0; i < ensemble.members.size(); ++i) {
    const std::string atom = "w" + std::to_string(i);
    ir.base().add_fact(make_compound("wkf", {make_atom(atom)}));
    ir.base().add_fact(make_compound(
        "priority",
        {make_atom(atom), make_int(ensemble.members[i].priority)}));
    if (i < member_costs.size()) {
      ir.base().add_fact(make_compound(
          "wfcost", {make_atom(atom), make_float(member_costs[i])}));
    }
    if (i < member_feasible.size() && member_feasible[i]) {
      ir.base().add_fact(make_compound("deadline_ok", {make_atom(atom)}));
    }
  }
  ir.base().add_fact(
      make_compound("budget_limit", {make_float(ensemble.budget)}));
  return ir;
}

wlog::ProbProgram build_migration_ir(
    const wlog::Program& program, const cloud::Catalog& catalog,
    MigrationOptimizer& optimizer,
    const std::vector<MigrationWorkflowState>& states) {
  wlog::ProbProgram ir = wlog::translate_rules(program);
  for (cloud::RegionId r = 0; r < catalog.region_count(); ++r) {
    ir.base().add_fact(
        make_compound("region", {make_atom("r" + std::to_string(r))}));
  }
  for (std::size_t i = 0; i < states.size(); ++i) {
    const std::string w = "w" + std::to_string(i);
    ir.base().add_fact(make_compound("wkf", {make_atom(w)}));
    ir.base().add_fact(make_compound(
        "current",
        {make_atom(w), make_atom("r" + std::to_string(states[i].region))}));
    for (cloud::RegionId r = 0; r < catalog.region_count(); ++r) {
      const std::string region = "r" + std::to_string(r);
      ir.base().add_fact(make_compound(
          "exec_cost", {make_atom(w), make_atom(region),
                        make_float(optimizer.execution_cost(states[i], r))}));
      ir.base().add_fact(make_compound(
          "migr_cost", {make_atom(w), make_atom(region),
                        make_float(optimizer.migration_cost(states[i], r))}));
      if (optimizer.remaining_time(states[i], r) <=
          states[i].remaining_deadline()) {
        ir.base().add_fact(
            make_compound("region_ok", {make_atom(w), make_atom(region)}));
      }
    }
  }
  return ir;
}

}  // namespace deco::core
