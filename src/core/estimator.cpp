#include "core/estimator.hpp"

#include <algorithm>
#include <chrono>

#include "cloud/calibration.hpp"
#include "obs/obs.hpp"

namespace deco::core {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

double mbps_to_bytes_per_s(double mbps) {
  return std::max(mbps, 1.0) * 1e6 / 8.0;
}

/// One random term of the convolution as a table: the term's value per
/// bin of its store histogram and the histogram's CDF.  An empty histogram
/// has no CDF and draws nothing; its single value is the term at rate 0,
/// which is what Histogram::sample returns for it.
struct TermTable {
  std::vector<double> value;
  std::span<const double> cdf;

  template <typename Term>
  TermTable(const util::Histogram& h, Term term) : cdf(h.cdf()) {
    if (h.empty()) {
      value.push_back(term(0.0));
      return;
    }
    value.reserve(h.bin_count());
    for (const double c : h.centers()) value.push_back(term(c));
  }

  double draw(util::Rng& rng) const {
    return cdf.empty() ? value[0] : value[util::cdf_index(cdf, rng.uniform())];
  }
};

}  // namespace

TaskTimeEstimator::TaskTimeEstimator(const cloud::Catalog& catalog,
                                     const cloud::MetadataStore& store,
                                     EstimatorOptions options)
    : catalog_(&catalog), options_(std::move(options)) {
  // Network: the parents' instance types are unknown at estimation time, so
  // assume the *slowest* possible partner NIC (the pair with the cheapest
  // type).  Conservative by design: plans promise deadlines they can keep.
  using cloud::MetadataStore;
  inputs_.resize(catalog.type_count());
  for (cloud::TypeId v = 0; v < catalog.type_count(); ++v) {
    const std::string& name = catalog.type(v).name;
    inputs_[v].seq =
        store.get(MetadataStore::seq_io_key(options_.provider, name));
    inputs_[v].rnd =
        store.get(MetadataStore::rand_io_key(options_.provider, name));
    inputs_[v].net = store.get(
        MetadataStore::net_key(options_.provider, name, catalog.type(0).name));
  }
}

TaskTimeEstimator::~TaskTimeEstimator() {
  if (builds_ == 0) return;
  DECO_OBS_COUNTER_ADD("estimator.builds", builds_);
  DECO_OBS_HIST_MS("estimator.build_ms", build_ms_);
}

const TaskTimeEstimator::Entry& TaskTimeEstimator::entry(
    const workflow::Workflow& wf, workflow::TaskId task, cloud::TypeId type) {
  const std::size_t index = task * inputs_.size() + type;
  const auto [it, inserted] = tables_.try_emplace(wf.uid());
  WorkflowTables& tables = it->second;
  if (inserted) {
    tables.in_bytes.assign(wf.task_count(), 0.0);
    if (options_.include_network) {
      for (const workflow::Edge& e : wf.edges()) {
        tables.in_bytes[e.child] += e.bytes;
      }
    }
    tables.entries.resize(wf.task_count() * inputs_.size());
  }
  Entry& e = tables.entries[index];
  if (!e.built) build(wf, tables, task, type, e);
  return e;
}

const util::Histogram& TaskTimeEstimator::distribution(
    const workflow::Workflow& wf, workflow::TaskId task, cloud::TypeId type) {
  return entry(wf, task, type).total;
}

const util::Histogram& TaskTimeEstimator::dynamic_distribution(
    const workflow::Workflow& wf, workflow::TaskId task, cloud::TypeId type) {
  return entry(wf, task, type).dynamic;
}

double TaskTimeEstimator::cpu_time(const workflow::Workflow& wf,
                                   workflow::TaskId task,
                                   cloud::TypeId type) const {
  return wf.task(task).cpu_seconds /
         std::max(catalog_->type(type).per_core_units, 0.1);
}

double TaskTimeEstimator::mean_time(const workflow::Workflow& wf,
                                    workflow::TaskId task,
                                    cloud::TypeId type) {
  return distribution(wf, task, type).mean();
}

double TaskTimeEstimator::percentile_time(const workflow::Workflow& wf,
                                          workflow::TaskId task,
                                          cloud::TypeId type, double q) {
  return distribution(wf, task, type).percentile(q);
}

void TaskTimeEstimator::build(const workflow::Workflow& wf,
                              const WorkflowTables& tables,
                              workflow::TaskId task, cloud::TypeId type,
                              Entry& out) {
  const auto t0 = std::chrono::steady_clock::now();
  const workflow::Task& t = wf.task(task);
  const TypeInputs& in = inputs_[type];
  const double cpu = cpu_time(wf, task, type);
  const double io_bytes = t.input_bytes + t.output_bytes;
  const double net_bytes = tables.in_bytes[task];
  const double ops = options_.rand_io_ops_per_task;

  // The terms in the order they are drawn and added; a term whose
  // histogram is missing or whose volume is zero is left out entirely.
  std::vector<TermTable> terms;
  terms.reserve(3);
  if (in.seq && io_bytes > 0) {
    terms.emplace_back(*in.seq, [io_bytes](double c) {
      return io_bytes / (std::max(c, 1.0) * kMB);
    });
  }
  if (in.rnd && ops > 0) {
    terms.emplace_back(*in.rnd,
                       [ops](double c) { return ops / std::max(c, 1.0); });
  }
  if (in.net && net_bytes > 0) {
    terms.emplace_back(*in.net, [net_bytes](double c) {
      return net_bytes / mbps_to_bytes_per_s(c);
    });
  }

  // Seed per (task, type) so the cache content does not depend on call order.
  util::Rng rng(options_.seed ^ (static_cast<std::uint64_t>(task) * 0x9E37 +
                                 static_cast<std::uint64_t>(type)));
  dynamic_scratch_.resize(kConvolutionSamples);
  total_scratch_.resize(kConvolutionSamples);
  for (std::size_t i = 0; i < kConvolutionSamples; ++i) {
    double dyn = 0;
    for (const TermTable& term : terms) dyn += term.draw(rng);
    dynamic_scratch_[i] = dyn;
    total_scratch_[i] = cpu + dyn;
  }
  out.total = util::Histogram::from_samples(total_scratch_,
                                            options_.histogram_bins);
  out.dynamic = util::Histogram::from_samples(dynamic_scratch_,
                                              options_.histogram_bins);
  out.built = true;
  ++builds_;
  build_ms_ += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
}

cloud::MetadataStore make_store_from_catalog(const cloud::Catalog& catalog,
                                             const std::string& provider,
                                             std::size_t samples,
                                             std::size_t bins,
                                             std::uint64_t seed) {
  cloud::MetadataStore store;
  cloud::CalibrationOptions opt;
  opt.provider = provider;
  opt.samples_per_setting = samples;
  opt.histogram_bins = bins;
  util::Rng rng(seed);
  cloud::calibrate(catalog, store, opt, rng);
  return store;
}

}  // namespace deco::core
