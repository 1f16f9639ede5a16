// Regional failure weather: correlated fault storms per (region, window).
//
// Every fault source the simulator had so far was independent per draw —
// capacity outages per (type, region), spot interruptions i.i.d. per
// instance, crashes i.i.d. per instance.  Real cloud incidents are not
// independent: an AZ power event or a spot-market demand surge takes out
// co-located capacity *together*.  RegionalWeather models that correlation
// as a seeded storm process per region; while a storm is active in a
// region,
//
//   * capacity for *every* instance type in the region is denied at once
//     (a blackout, drawn per storm with probability `capacity_hazard` —
//     the region-level hazard multiplier on top of the per-(type, region)
//     outage windows),
//   * spot instances in the region share one reclamation draw per storm,
//     so co-located spot capacity disappears synchronously,
//   * instance crash rates are multiplied by `crash_hazard`
//     (threaded into sim::FailureModel::sample_uptime by the executor).
//
// Determinism contract (same as ControlPlane / sim::FailureModel): the
// process owns per-region RNG streams derived from one seed, storm windows
// are generated lazily in time order and *recorded*, so every query is a
// pure function of (seed, region, time) regardless of query order — and a
// disabled model (storm_mtbs_s <= 0) consumes no entropy and leaves every
// trace bit-identical to a weatherless run.  All clocks are virtual
// simulator time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "cloud/instance_type.hpp"
#include "util/rng.hpp"

namespace deco::cloud {

struct RegionalWeatherOptions {
  /// Mean time between storms per region, seconds.  <= 0 disables the
  /// whole process (no entropy consumed, bit-identity preserved).
  double storm_mtbs_s = 0;
  /// Mean storm duration, seconds (exponential).
  double storm_duration_s = 1800;
  /// Probability that a storm blacks out the region's capacity: during a
  /// blackout storm every acquire in the region is denied regardless of
  /// type.  This is the region-level hazard multiplier layered on the
  /// per-(type, region) outage windows.
  double capacity_hazard = 1.0;
  /// Instance crash-rate multiplier while a storm is active in the
  /// instance's region (>= 1; 1 = storms do not affect crashes).
  double crash_hazard = 4.0;
  /// Storms synchronously reclaim co-located spot instances: each storm
  /// draws one shared reclamation time inside its window, and every spot
  /// instance acquired before it in the region is reclaimed there.
  bool spot_storms = true;
  /// Per-region multiplier on the storm *arrival* rate (empty = 1.0 for
  /// all regions); region r sees mean inter-arrival
  /// storm_mtbs_s / region_hazard[r].
  std::vector<double> region_hazard;
  /// Force the first storm in every region to already be in progress at
  /// t=0 (the gap draw is consumed but the window starts at 0) — models a
  /// pre-existing incident, e.g. the CLI's "blackout" profile.
  bool initial_storm = false;

  bool enabled() const { return storm_mtbs_s > 0; }
  double hazard_for(RegionId region) const {
    if (region >= region_hazard.size()) return 1.0;
    return region_hazard[region] > 0 ? region_hazard[region] : 1.0;
  }
};

/// One storm in one region.
struct StormWindow {
  double start = 0;
  double end = 0;
  /// The storm's shared spot-reclamation instant (inside [start, end]).
  double reclaim_at = 0;
  /// Storm denies every acquire in the region (drawn per storm with
  /// probability RegionalWeatherOptions::capacity_hazard).
  bool blackout = true;
};

class RegionalWeather {
 public:
  /// Disabled process: every query is a cheap constant.
  RegionalWeather() = default;
  RegionalWeather(std::size_t regions, const RegionalWeatherOptions& options,
                  std::uint64_t seed);

  bool enabled() const { return options_.enabled() && !streams_.empty(); }
  const RegionalWeatherOptions& options() const { return options_; }

  /// Is any storm active in `region` at `now`?
  bool in_storm(RegionId region, double now);

  /// Is `region` under a capacity blackout at `now`?  (A storm with the
  /// blackout flag; acquires of every type are denied.)
  bool capacity_denied(RegionId region, double now);

  /// Crash-rate multiplier in force for an instance acquired in `region`
  /// at `now`: crash_hazard inside a storm, 1.0 otherwise.
  double crash_multiplier(RegionId region, double now);

  /// Earliest storm still relevant at/after `from` (ongoing counts), or
  /// nullopt when the process is disabled.
  std::optional<StormWindow> next_storm(RegionId region, double from);

  /// The shared regional spot-reclamation instant that will hit an
  /// instance acquired at `acquired_at` (the first storm reclaim draw at
  /// or after it), or nullopt when spot storms are off.
  std::optional<double> spot_reclaim_after(RegionId region,
                                           double acquired_at);

 private:
  struct RegionStream {
    util::Rng rng;
    std::vector<StormWindow> windows;  ///< generated lazily, time-ordered
  };

  /// Appends windows until the last one ends strictly after `t`.
  void ensure_until(RegionId region, double t);
  void append_window(RegionId region);
  const StormWindow* window_at(RegionId region, double now);

  RegionalWeatherOptions options_;
  std::vector<RegionStream> streams_;
};

}  // namespace deco::cloud
