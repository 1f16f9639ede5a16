// The table-driven estimator build against the per-draw algorithm it
// replaced, the branch-free bin index against Histogram::sample, and the
// per-workflow cache against fresh estimators.  Every comparison is bit for
// bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/estimator.hpp"
#include "core/scheduling.hpp"
#include "tests/core/test_fixtures.hpp"
#include "vgpu/device.hpp"
#include "workflow/analysis.hpp"
#include "workflow/generators.hpp"

namespace deco::core {
namespace {

using testing::ec2;
using testing::store;

constexpr double kMB = 1024.0 * 1024.0;

/// The per-draw build the table form replaced, kept verbatim as the
/// reference: three store lookups by string key per build, an edge scan for
/// the incoming bytes, and one Histogram::sample per term per draw.
std::pair<util::Histogram, util::Histogram> reference_build(
    const cloud::Catalog& catalog, const cloud::MetadataStore& store,
    const EstimatorOptions& options, const workflow::Workflow& wf,
    workflow::TaskId task, cloud::TypeId type) {
  const workflow::Task& t = wf.task(task);
  const cloud::InstanceType& vm = catalog.type(type);
  const double cpu =
      t.cpu_seconds / std::max(catalog.type(type).per_core_units, 0.1);
  const auto seq =
      store.get(cloud::MetadataStore::seq_io_key(options.provider, vm.name));
  const auto rnd =
      store.get(cloud::MetadataStore::rand_io_key(options.provider, vm.name));
  const auto net = store.get(cloud::MetadataStore::net_key(
      options.provider, vm.name, catalog.type(0).name));
  double net_bytes = 0;
  if (options.include_network) {
    for (const workflow::Edge& e : wf.edges()) {
      if (e.child == task) net_bytes += e.bytes;
    }
  }
  const double io_bytes = t.input_bytes + t.output_bytes;
  util::Rng rng(options.seed ^ (static_cast<std::uint64_t>(task) * 0x9E37 +
                                static_cast<std::uint64_t>(type)));
  std::vector<double> dynamic;
  std::vector<double> total;
  for (std::size_t i = 0; i < kConvolutionSamples; ++i) {
    double dyn = 0;
    if (seq && io_bytes > 0) {
      dyn += io_bytes / (std::max(seq->sample(rng), 1.0) * kMB);
    }
    if (rnd && options.rand_io_ops_per_task > 0) {
      dyn += options.rand_io_ops_per_task / std::max(rnd->sample(rng), 1.0);
    }
    if (net && net_bytes > 0) {
      dyn += net_bytes / (std::max(net->sample(rng), 1.0) * 1e6 / 8.0);
    }
    dynamic.push_back(dyn);
    total.push_back(cpu + dyn);
  }
  return {util::Histogram::from_samples(total, options.histogram_bins),
          util::Histogram::from_samples(dynamic, options.histogram_bins)};
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

void expect_same_histogram(const util::Histogram& actual,
                           const util::Histogram& expected,
                           const std::string& where) {
  EXPECT_TRUE(same_bits(actual.centers(), expected.centers())) << where;
  EXPECT_TRUE(same_bits(actual.masses(), expected.masses())) << where;
  EXPECT_TRUE(same_bits(actual.cdf(), expected.cdf())) << where;
}

/// Checks every (task, type) pair of `wf` against the reference build.
void expect_matches_reference(const workflow::Workflow& wf,
                              const cloud::MetadataStore& s,
                              const EstimatorOptions& options) {
  TaskTimeEstimator est(ec2(), s, options);
  for (workflow::TaskId t = 0; t < wf.task_count(); ++t) {
    for (cloud::TypeId v = 0; v < ec2().type_count(); ++v) {
      const auto [total, dynamic] =
          reference_build(ec2(), s, options, wf, t, v);
      const std::string where = wf.name() + " task " + std::to_string(t) +
                                " type " + std::to_string(v);
      expect_same_histogram(est.distribution(wf, t, v), total, where);
      expect_same_histogram(est.dynamic_distribution(wf, t, v), dynamic,
                            where + " (dynamic)");
    }
  }
}

std::vector<workflow::Workflow> paper_workflows() {
  util::Rng rng(2015);
  std::vector<workflow::Workflow> out;
  out.push_back(workflow::make_montage(1, rng));
  out.push_back(workflow::make_cybershake(100, rng));
  out.push_back(workflow::make_ligo(100, rng));
  out.push_back(workflow::make_epigenomics(100, rng));
  return out;
}

/// The fixture store without one type's three per-type keys.
cloud::MetadataStore store_without(const std::string& type_name) {
  using cloud::MetadataStore;
  MetadataStore out;
  for (cloud::TypeId a = 0; a < ec2().type_count(); ++a) {
    const std::string& na = ec2().type(a).name;
    if (na == type_name) continue;
    for (const std::string& key : {MetadataStore::seq_io_key("ec2", na),
                                   MetadataStore::rand_io_key("ec2", na)}) {
      out.put(key, *store().get(key));
    }
    for (cloud::TypeId b = 0; b < ec2().type_count(); ++b) {
      const std::string key =
          MetadataStore::net_key("ec2", na, ec2().type(b).name);
      if (const auto h = store().get(key)) out.put(key, *h);
    }
  }
  return out;
}

TEST(EstimatorBuildTest, MatchesPerDrawReferenceOnPaperWorkflows) {
  for (const workflow::Workflow& wf : paper_workflows()) {
    expect_matches_reference(wf, store(), EstimatorOptions{});
  }
}

TEST(EstimatorBuildTest, MatchesReferenceWithoutNetwork) {
  EstimatorOptions options;
  options.include_network = false;
  for (const workflow::Workflow& wf : paper_workflows()) {
    expect_matches_reference(wf, store(), options);
  }
}

TEST(EstimatorBuildTest, MatchesReferenceWhenATypeHasNoStoreKeys) {
  const cloud::MetadataStore partial = store_without(ec2().type(2).name);
  ASSERT_FALSE(partial.contains(
      cloud::MetadataStore::seq_io_key("ec2", ec2().type(2).name)));
  util::Rng rng(3);
  expect_matches_reference(workflow::make_cybershake(50, rng), partial,
                           EstimatorOptions{});
}

TEST(EstimatorBuildTest, MatchesReferenceWithEmptyStoreHistograms) {
  // An empty histogram draws nothing: its term is the rate-0 value.
  cloud::MetadataStore s = store();
  const std::string name = ec2().type(1).name;
  s.put(cloud::MetadataStore::seq_io_key("ec2", name), util::Histogram{});
  s.put(cloud::MetadataStore::net_key("ec2", name, ec2().type(0).name),
        util::Histogram{});
  ASSERT_TRUE(
      s.get(cloud::MetadataStore::seq_io_key("ec2", name))->empty());
  util::Rng rng(4);
  expect_matches_reference(workflow::make_montage(1, rng), s,
                           EstimatorOptions{});
}

TEST(EstimatorBuildTest, MatchesReferenceForZeroIoTasks) {
  workflow::Workflow wf("zero-io");
  wf.add_task({"cpu-only", "p", 120, 0, 0});
  wf.add_task({"reader", "p", 30, 64 * kMB, 0});
  wf.add_task({"after", "p", 0, 0, 0});
  wf.add_edge(0, 2, 0);  // an edge carrying no bytes
  wf.add_edge(1, 2, 8 * kMB);
  EstimatorOptions no_ops;
  no_ops.rand_io_ops_per_task = 0;
  for (const EstimatorOptions& options : {EstimatorOptions{}, no_ops}) {
    expect_matches_reference(wf, store(), options);
  }
}

// ---------------------------------------------------------------------------
// Branch-free bin index.

/// cdf_index must pick the bin Histogram::sample_at picks.
void expect_index_matches_sample_at(const util::Histogram& h, double u) {
  ASSERT_FALSE(h.empty());
  EXPECT_EQ(h.centers()[util::cdf_index(h.cdf(), u)], h.sample_at(u))
      << "u = " << u;
}

/// Every CDF value and its two neighbours, plus the ends of [0, 1).
void expect_index_matches_at_cdf_values(const util::Histogram& h) {
  for (const double c : h.cdf()) {
    for (const double u : {std::nextafter(c, 0.0), c, std::nextafter(c, 1.0)}) {
      if (u >= 0 && u < 1) expect_index_matches_sample_at(h, u);
    }
  }
  expect_index_matches_sample_at(h, 0.0);
  expect_index_matches_sample_at(h, std::nextafter(1.0, 0.0));
}

TEST(CdfIndexTest, MatchesSampleAtExactCdfValues) {
  expect_index_matches_at_cdf_values(
      util::Histogram::from_bins({1, 2, 3, 4}, {0.1, 0.2, 0.3, 0.4}));
  expect_index_matches_at_cdf_values(store().get(
      cloud::MetadataStore::seq_io_key("ec2", ec2().type(0).name)).value());
}

TEST(CdfIndexTest, MatchesSampleAtWithZeroMassBins) {
  // Leading, interior and trailing zero-mass bins tie CDF values.
  const auto h = util::Histogram::from_bins({1, 2, 3, 4, 5, 6, 7},
                                            {0, 0, 0.25, 0, 0, 0.75, 0});
  ASSERT_EQ(h.cdf()[0], 0.0);
  ASSERT_EQ(h.cdf()[2], h.cdf()[4]);
  expect_index_matches_at_cdf_values(h);
  EXPECT_EQ(util::cdf_index(h.cdf(), 0.0), 2u);  // skips the empty bins
}

TEST(CdfIndexTest, OneBinAlwaysPicksIt) {
  const auto h = util::Histogram::from_bins({42}, {1});
  ASSERT_EQ(h.bin_count(), 1u);
  expect_index_matches_at_cdf_values(h);
  EXPECT_EQ(util::cdf_index(h.cdf(), 0.5), 0u);
}

TEST(CdfIndexTest, MatchesSampleOnTheRngStream) {
  const auto h = store().get(cloud::MetadataStore::net_key(
      "ec2", ec2().type(3).name, ec2().type(0).name)).value();
  util::Rng a(99);
  util::Rng b(99);
  for (int i = 0; i < 10000; ++i) {
    const double expected = h.sample(a);
    ASSERT_EQ(h.centers()[util::cdf_index(h.cdf(), b.uniform())], expected);
  }
}

// ---------------------------------------------------------------------------
// One estimator, many workflows.

TEST(EstimatorCacheTest, WorkflowsSharingAnEstimatorMatchFreshEstimators) {
  // Same shape, same task ids, different profiles: a cache keyed on task
  // id alone hands the second workflow the first one's histograms.
  util::Rng rng(5);
  const auto wf1 = workflow::make_pipeline(6, rng);
  const auto wf2 = workflow::make_pipeline(6, rng);
  ASSERT_NE(wf1.task(0).cpu_seconds, wf2.task(0).cpu_seconds);
  TaskTimeEstimator shared(ec2(), store());
  for (const auto* wf : {&wf1, &wf2, &wf1}) {
    TaskTimeEstimator fresh(ec2(), store());
    for (workflow::TaskId t = 0; t < wf->task_count(); ++t) {
      for (cloud::TypeId v = 0; v < ec2().type_count(); ++v) {
        expect_same_histogram(shared.distribution(*wf, t, v),
                              fresh.distribution(*wf, t, v),
                              wf->name() + " task " + std::to_string(t));
        expect_same_histogram(shared.dynamic_distribution(*wf, t, v),
                              fresh.dynamic_distribution(*wf, t, v),
                              wf->name() + " task " + std::to_string(t));
      }
    }
  }
}

TEST(EstimatorCacheTest, MutatedWorkflowIsRebuilt) {
  workflow::Workflow wf("grow");
  wf.add_task({"a", "p", 10, 0, 0});
  wf.add_task({"b", "p", 10, 0, 0});
  TaskTimeEstimator est(ec2(), store());
  const double before = est.mean_time(wf, 1, 0);
  wf.add_edge(0, 1, 500 * kMB);  // task 1 now fetches its parent's output
  TaskTimeEstimator fresh(ec2(), store());
  EXPECT_EQ(est.mean_time(wf, 1, 0), fresh.mean_time(wf, 1, 0));
  EXPECT_GT(est.mean_time(wf, 1, 0), before);
}

TEST(EstimatorCacheTest, CopiesShareTheCache) {
  util::Rng rng(6);
  const auto wf = workflow::make_pipeline(4, rng);
  const workflow::Workflow copy = wf;
  EXPECT_EQ(copy.uid(), wf.uid());
  TaskTimeEstimator est(ec2(), store());
  EXPECT_EQ(&est.distribution(wf, 2, 1), &est.distribution(copy, 2, 1));
}

// ---------------------------------------------------------------------------
// SchedulingProblem's mean-time table.

TEST(CriticalTasksTest, MatchesCriticalPathOverEstimatorMeans) {
  util::Rng rng(8);
  vgpu::SerialBackend backend;
  for (const workflow::Workflow& wf :
       {workflow::make_cybershake(60, rng), workflow::make_montage(1, rng)}) {
    TaskTimeEstimator est(ec2(), store());
    TaskTimeEstimator reference(ec2(), store());
    SchedulingProblem problem(wf, est, backend);
    util::Rng plan_rng(9);
    for (int trial = 0; trial < 20; ++trial) {
      sim::Plan plan = problem.initial_plan();
      for (workflow::TaskId t = 0; t < wf.task_count(); ++t) {
        plan[t].vm_type =
            static_cast<cloud::TypeId>(plan_rng.below(ec2().type_count()));
      }
      std::vector<double> weights(wf.task_count());
      for (workflow::TaskId t = 0; t < wf.task_count(); ++t) {
        weights[t] = reference.mean_time(wf, t, plan[t].vm_type);
      }
      EXPECT_EQ(problem.critical_tasks(plan),
                workflow::critical_path(wf, weights).tasks)
          << wf.name() << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace deco::core
