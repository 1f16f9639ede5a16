// The benchmark's four workloads.  Each generates its inputs from the
// workload seed (workflow instances and their deadlines), then sets up
// (catalog, metadata store, engine, DAX files on disk) and serves requests
// from that fixed pool of inputs through the engine's public entry points,
// the way the `deco` CLI and the reactive engine call them.  README.md says
// why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/instance_type.hpp"
#include "cloud/metadata_store.hpp"
#include "core/deco.hpp"
#include "sim/plan.hpp"
#include "spans.hpp"
#include "workflow/dag.hpp"

namespace planbench {

namespace cloud = deco::cloud;
namespace core = deco::core;
namespace sim = deco::sim;
namespace workflow = deco::workflow;

/// Names of the workloads, in the order README.md lists them.
const std::vector<std::string>& workload_names();

/// What one request produced: enough for the output checks, the reference
/// re-scoring and the determinism check.
struct Outcome {
  std::string error;       ///< non-empty: the request failed
  bool malformed = false;  ///< a returned plan failed the shape check
  workflow::Workflow wf;   ///< the workflow the plan was made for
  sim::Plan plan;          ///< the returned plan (reactive: the initial one)
  core::ProbDeadline req;  ///< the requirement the plan must meet
  std::vector<double> solve_ms;  ///< each solver call of the request
  bool reactive = false;
  double run_cost = 0;  ///< reactive: realized cost of the run
  bool run_met = false;  ///< reactive: the run met its deadline

  /// Everything a repeat of the same input must reproduce exactly.
  std::string signature() const;
};

struct WorkloadOptions {
  std::string name;
  std::uint64_t seed = 1;
  std::string repo_root;  ///< where assets/ lives
  std::string input_dir;  ///< where set-up writes the DAX files
  bool smoke = false;     ///< one input per kind: the benchmark's own test
  /// Estimator tier of the plan and reactive workloads (`deco plan
  /// --estimator`); solve-wlog follows `deco solve`, which has no such flag.
  core::EstimatorMode estimator = core::EstimatorMode::kAuto;
};

/// One request input, generated from the workload seed.
struct Input {
  workflow::Workflow wf;    ///< the instance set-up writes as a DAX file
  double deadline_s = 0;    ///< plan and reactive workloads
  std::uint64_t seed = 0;   ///< replan-reactive: the run's fault seed
  std::size_t program = 0;  ///< solve-wlog: which WLog program
  std::string label;        ///< human-readable description (report.json)
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Number of distinct request inputs; request(i) takes i < pool_size().
  virtual std::size_t pool_size() const = 0;
  /// Serves one request, recording its spans into log().
  virtual Outcome request(std::size_t item) = 0;
  /// Name of the span that times one solver call in this workload.
  virtual const char* solve_span() const = 0;
  /// Names of the spans that are children of the request (the layer-sum
  /// gate sums the top-level ones; these are reported per layer).
  virtual std::vector<std::string> span_names() const = 0;

  /// Human-readable description of input `item` (report.json).
  const std::string& label(std::size_t item) const { return labels_[item]; }
  const cloud::Catalog& catalog() const { return catalog_; }
  const cloud::MetadataStore& store() const { return store_; }
  core::Deco& engine() { return *engine_; }
  SpanLog& log() { return log_; }

 protected:
  cloud::Catalog catalog_;
  cloud::MetadataStore store_;
  std::unique_ptr<core::Deco> engine_;
  SpanLog log_;
  std::vector<std::string> labels_;
};

/// The workload's inputs for `options.seed`: workflow instances and their
/// deadlines.  Input 0, which set-up serves as its warm-up request, comes
/// from a fixed seed; the rest come from `options.seed`.  Each deadline costs
/// two whole-plan evaluations (D_min and D_max), which is input preparation,
/// not set-up: the caller makes the inputs once, before the timed set-ups.
/// Throws on an unknown name.
std::vector<Input> make_inputs(const WorkloadOptions& options);

/// Set-up of a workload on prepared inputs: catalog, store, engine, and the
/// DAX files written to disk.  The caller times it together with one warm-up
/// request.  Throws on an unknown name or unreadable assets.
std::unique_ptr<Workload> make_workload(const WorkloadOptions& options,
                                        const std::vector<Input>& inputs);

/// The shape check behind failed_frac: right size, known instance types, and
/// every task in the home region.
bool well_formed(const sim::Plan& plan, std::size_t tasks,
                 const cloud::Catalog& catalog, cloud::RegionId home);

}  // namespace planbench
