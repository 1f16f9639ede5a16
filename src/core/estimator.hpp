// Task execution-time estimation (Section 5.1).
//
// "Given the input data size, the CPU execution time ... and the output data
// size of a task, the overall execution time of the task on a cloud instance
// can be estimated with the sum of the CPU, I/O and network time of running
// the task on this instance.  Note, since the I/O and network performance of
// the cloud are dynamic, the estimated task execution time is also a
// probabilistic distribution."
//
// The estimator reads the calibrated histograms from the metadata store
// (never the catalog's ground truth) and composes, per (task, vm type), the
// execution-time distribution by Monte Carlo convolution of:
//   cpu   = cpu_seconds / compute_units                  (constant)
//   io    = (in+out bytes) / seq_io_rate + ops / iops    (random rates)
//   net   = incoming edge bytes / pair bandwidth         (random rate)
// discretized back into a histogram the evaluator and the WLog bridge share.
//
// The convolution is table-driven.  Each type's three store histograms are
// resolved once per estimator and each task's incoming edge bytes once per
// workflow; a build then computes every bin's I/O or network term once and
// maps each uniform draw to its bin by counting CDF entries <= u, which is
// Histogram::sample's upper_bound on a non-decreasing CDF.  Same RNG stream,
// same draw order, same additions: the histograms are bit-identical to
// per-draw sampling (docs/performance.md, "Task-time estimation").
//
// One estimator per solve: the cache is unsynchronized, so an estimator must
// not be shared between threads.  Concurrent solves (ensemble scoring,
// sharded reactive runs) each build their own.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "cloud/instance_type.hpp"
#include "cloud/metadata_store.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "workflow/dag.hpp"

namespace deco::core {

struct EstimatorOptions {
  std::string provider = "ec2";
  std::size_t convolution_samples = 512;  ///< MC draws per (task, type)
  std::size_t histogram_bins = 16;
  double rand_io_ops_per_task = 50;
  /// Model network fetch of parent outputs (assumes remote parents, the
  /// conservative estimate; the simulator charges only cross-instance edges).
  bool include_network = true;
  std::uint64_t seed = 2015;
};

class TaskTimeEstimator {
 public:
  /// Copies the store's histograms for every catalog type here; later
  /// changes to `store` are not seen.
  TaskTimeEstimator(const cloud::Catalog& catalog,
                    const cloud::MetadataStore& store,
                    EstimatorOptions options = {});
  /// Publishes the `estimator.builds` / `estimator.build_ms` totals.
  ~TaskTimeEstimator();
  TaskTimeEstimator(const TaskTimeEstimator&) = delete;
  TaskTimeEstimator& operator=(const TaskTimeEstimator&) = delete;

  /// Execution-time distribution of `task` of `wf` on instance type `type`.
  /// Cached per (workflow, task, type); workflows are told apart by
  /// Workflow::uid(), so one estimator serves any number of workflows.
  /// Returned references stay valid for the estimator's lifetime, and cache
  /// contents are independent of call order.
  const util::Histogram& distribution(const workflow::Workflow& wf,
                                      workflow::TaskId task,
                                      cloud::TypeId type);

  /// The *dynamic* part only (I/O + network seconds; CPU excluded).  The
  /// evaluator scales this component by a correlated per-world interference
  /// factor — congestion persists across a run, so sampling it per task
  /// would understate makespan spread.
  const util::Histogram& dynamic_distribution(const workflow::Workflow& wf,
                                              workflow::TaskId task,
                                              cloud::TypeId type);

  /// The constant CPU component (reference seconds / per-core units).
  double cpu_time(const workflow::Workflow& wf, workflow::TaskId task,
                  cloud::TypeId type) const;

  /// Mean execution time (M_ij in Eq. 2).
  double mean_time(const workflow::Workflow& wf, workflow::TaskId task,
                   cloud::TypeId type);

  /// q-th percentile (q in [0,100]) of the task's time on `type`.
  double percentile_time(const workflow::Workflow& wf, workflow::TaskId task,
                         cloud::TypeId type, double q);

  const cloud::Catalog& catalog() const { return *catalog_; }
  const EstimatorOptions& options() const { return options_; }

 private:
  /// One type's calibrated store histograms, resolved at construction.
  struct TypeInputs {
    std::optional<util::Histogram> seq;  ///< sequential I/O, MB/s
    std::optional<util::Histogram> rnd;  ///< random I/O, ops/s
    std::optional<util::Histogram> net;  ///< bandwidth to type 0, Mbps
  };
  /// Both distributions of one (task, type); valid once `built`.
  struct Entry {
    util::Histogram total;    ///< cpu + io + net
    util::Histogram dynamic;  ///< io + net
    bool built = false;
  };
  /// Per-workflow cache: a flat task-major (task, type) table plus each
  /// task's incoming edge bytes.  Sized once, and unordered_map never moves
  /// mapped values, so entry references are stable.
  struct WorkflowTables {
    std::vector<double> in_bytes;
    std::vector<Entry> entries;
  };

  /// The built entry of (wf, task, type); builds it on first use.
  const Entry& entry(const workflow::Workflow& wf, workflow::TaskId task,
                     cloud::TypeId type);
  void build(const workflow::Workflow& wf, const WorkflowTables& tables,
             workflow::TaskId task, cloud::TypeId type, Entry& out);

  const cloud::Catalog* catalog_;
  EstimatorOptions options_;
  std::vector<TypeInputs> inputs_;  // by type id
  // Entries are immutable once built, so callers may hold returned
  // references across later builds.
  std::unordered_map<std::uint64_t, WorkflowTables> tables_;  // by uid
  std::vector<double> dynamic_scratch_;
  std::vector<double> total_scratch_;
  std::uint64_t builds_ = 0;
  double build_ms_ = 0;
};

/// Builds a metadata store directly from the catalog's distributions without
/// a sampling pass (convenience for tests and engine setup).
cloud::MetadataStore make_store_from_catalog(const cloud::Catalog& catalog,
                                             const std::string& provider = "ec2",
                                             std::size_t samples = 4000,
                                             std::size_t bins = 24,
                                             std::uint64_t seed = 7);

}  // namespace deco::core
