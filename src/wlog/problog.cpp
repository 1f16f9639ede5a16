#include "wlog/problog.hpp"

#include <algorithm>
#include <optional>

namespace deco::wlog {

void ProbProgram::add_group(ProbGroup group) {
  // Normalize defensively; histogram masses already sum to 1.
  double total = 0;
  for (double p : group.probs) total += p;
  if (total > 0 && std::abs(total - 1.0) > 1e-9) {
    for (double& p : group.probs) p /= total;
  }
  groups_.push_back(std::move(group));
}

std::size_t pick_alternative(const ProbGroup& group, double u) {
  double acc = 0;
  std::size_t chosen = group.facts.empty() ? 0 : group.facts.size() - 1;
  for (std::size_t i = 0; i < group.probs.size(); ++i) {
    acc += group.probs[i];
    if (u < acc) {
      chosen = i;
      break;
    }
  }
  return chosen;
}

Database ProbProgram::sample_world(util::Rng& rng) const {
  Database world = base_;
  for (const ProbGroup& group : groups_) {
    if (group.facts.empty()) continue;
    world.add_fact(group.facts[pick_alternative(group, rng.uniform())]);
  }
  return world;
}

Database ProbProgram::modal_world() const {
  Database world = base_;
  for (const ProbGroup& group : groups_) {
    if (group.facts.empty()) continue;
    const std::size_t modal = static_cast<std::size_t>(
        std::max_element(group.probs.begin(), group.probs.end()) -
        group.probs.begin());
    world.add_fact(group.facts[modal]);
  }
  return world;
}

ProbProgram translate_rules(const Program& program) {
  ProbProgram ir;
  ir.base().add_program(program);
  return ir;
}

namespace {

/// Proof steps per world; a proof that runs longer stops unproven.
constexpr std::size_t kWorldStepLimit = 2'000'000;

/// One Monte Carlo iteration: prove `query` in a sampled world; reports the
/// first proof's variable binding (goal queries are functional per world).
bool run_world(const ProbProgram& program, const TermPtr& query,
               const TermPtr& variable, util::Rng& rng,
               const McOptions& options, double& value_out) {
  const Database world = program.sample_world(rng);
  Interpreter interp(world);
  interp.set_step_limit(kWorldStepLimit);
  interp.set_budget(options.budget);
  Bindings bindings;
  bool proven = false;
  double value = 0;
  interp.solve(query, bindings, [&](Bindings& b) {
    proven = true;
    if (variable) {
      const TermPtr v = b.deep_resolve(variable);
      if (v->kind == TermKind::kInt || v->kind == TermKind::kFloat) {
        value = v->number();
      }
    }
    return true;  // first proof per world
  });
  value_out = value;
  return proven;
}

/// The VM-mode counterpart of run_world.  Instead of copying the database
/// per world and recompiling from scratch, it keeps ONE base copy and ONE Vm
/// alive across the whole Monte Carlo loop, layering each world's sampled
/// facts with mark/add_fact/undo_to.  The compiled-clause cache therefore
/// survives between iterations — the rule bytecode compiles once, and only
/// the layered fact predicates recompile (append-only suffix recompiles).
/// RNG consumption matches sample_world exactly: one uniform per non-empty
/// group, in group order.
class VmWorldRunner {
 public:
  VmWorldRunner(const ProbProgram& program, const McOptions& options)
      : program_(program), world_(program.base()), vm_(world_) {
    vm_.set_step_limit(kWorldStepLimit);
    vm_.set_budget(options.budget);
  }

  bool run(const TermPtr& query, const TermPtr& variable, util::Rng& rng,
           double& value_out) {
    const std::size_t mark = world_.mark();
    for (const ProbGroup& group : program_.groups()) {
      if (group.facts.empty()) continue;
      world_.add_fact(group.facts[pick_alternative(group, rng.uniform())]);
    }
    bool proven = false;
    double value = 0;
    try {
      Bindings bindings;
      vm_.solve(query, bindings, [&](Bindings& b) {
        proven = true;
        if (variable) {
          const TermPtr v = b.deep_resolve(variable);
          if (v->kind == TermKind::kInt || v->kind == TermKind::kFloat) {
            value = v->number();
          }
        }
        return true;  // first proof per world
      });
    } catch (...) {
      world_.undo_to(mark);
      throw;
    }
    world_.undo_to(mark);
    value_out = value;
    return proven;
  }

 private:
  const ProbProgram& program_;
  Database world_;
  Vm vm_;
};

}  // namespace

McResult mc_eval_goal(const ProbProgram& program, const TermPtr& query,
                      const TermPtr& variable, util::Rng& rng,
                      const McOptions& options) {
  McResult result;
  result.iterations = options.max_iterations;
  double sum = 0;
  std::size_t proven_count = 0;
  std::optional<VmWorldRunner> vm_runner;
  if (options.exec == ExecMode::kVm) vm_runner.emplace(program, options);
  for (std::size_t i = 0; i < options.max_iterations; ++i) {
    if (options.budget != nullptr) options.budget->checkpoint();
    double value = 0;
    const bool proven =
        vm_runner ? vm_runner->run(query, variable, rng, value)
                  : run_world(program, query, variable, rng, options, value);
    if (proven) {
      ++proven_count;
      sum += value;
    }
  }
  result.probability =
      static_cast<double>(proven_count) /
      static_cast<double>(std::max<std::size_t>(1, options.max_iterations));
  result.value = proven_count > 0 ? sum / static_cast<double>(proven_count) : 0;
  return result;
}

McResult mc_eval_constraint(const ProbProgram& program, const TermPtr& query,
                            util::Rng& rng, const McOptions& options) {
  return mc_eval_goal(program, query, nullptr, rng, options);
}

std::vector<double> mc_sample_values(const ProbProgram& program,
                                     const TermPtr& query,
                                     const TermPtr& variable, util::Rng& rng,
                                     const McOptions& options) {
  std::vector<double> values;
  values.reserve(options.max_iterations);
  std::optional<VmWorldRunner> vm_runner;
  if (options.exec == ExecMode::kVm) vm_runner.emplace(program, options);
  for (std::size_t i = 0; i < options.max_iterations; ++i) {
    if (options.budget != nullptr) options.budget->checkpoint();
    double value = 0;
    const bool proven =
        vm_runner ? vm_runner->run(query, variable, rng, value)
                  : run_world(program, query, variable, rng, options, value);
    if (proven) {
      values.push_back(value);
    }
  }
  return values;
}

}  // namespace deco::wlog
