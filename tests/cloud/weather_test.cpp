#include "cloud/weather.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "cloud/control_plane.hpp"
#include "cloud/instance_type.hpp"

namespace deco::cloud {
namespace {

/// Environment-scaled chaos multiplier: DECO_CHAOS=1 (the CI chaos job)
/// stretches the stress-test workloads without changing the default run.
std::size_t chaos_scale() {
  if (const char* env = std::getenv("DECO_CHAOS")) {
    if (std::string(env) != "0" && !std::string(env).empty()) return 4;
  }
  return 1;
}

RegionalWeatherOptions stormy_options() {
  RegionalWeatherOptions options;
  options.storm_mtbs_s = 4000;
  options.storm_duration_s = 1500;
  options.capacity_hazard = 1.0;
  options.crash_hazard = 4.0;
  return options;
}

TEST(RegionalWeatherTest, DisabledProcessAnswersTrivially) {
  RegionalWeather weather;  // default: storm_mtbs_s == 0
  EXPECT_FALSE(weather.enabled());
  EXPECT_FALSE(weather.in_storm(0, 1000.0));
  EXPECT_DOUBLE_EQ(weather.crash_multiplier(0, 1000.0), 1.0);
  EXPECT_FALSE(weather.next_storm(0, 0.0).has_value());
  EXPECT_FALSE(weather.spot_reclaim_after(0, 0.0).has_value());
}

TEST(RegionalWeatherTest, WindowsAreDeterministicAndQueryOrderFree) {
  // Two instances, same seed: one queried forward in time, the other
  // scrambled across regions and times first.  Storm windows must be a
  // pure function of (seed, region, time).
  RegionalWeather a(2, stormy_options(), 7);
  RegionalWeather b(2, stormy_options(), 7);
  for (double t = 1e6; t > 0; t -= 1234.0) {
    (void)b.in_storm(1, t);  // scramble b's materialization order
  }
  (void)b.spot_reclaim_after(0, 5e5);
  for (double t = 0; t < 1e6; t += 997.0) {
    ASSERT_EQ(a.in_storm(0, t), b.in_storm(0, t)) << "t=" << t;
    ASSERT_EQ(a.in_storm(1, t), b.in_storm(1, t)) << "t=" << t;
  }
}

TEST(RegionalWeatherTest, StormBlacksOutEveryTypeInTheRegionTogether) {
  const Catalog catalog = make_ec2_catalog();
  ControlPlaneOptions options;
  options.faults.weather = stormy_options();
  options.seed = 5;
  ControlPlane plane(catalog, options);
  ASSERT_FALSE(plane.null_model());

  // Find a storm in region 0 that region 1 does not share.
  double t = 0;
  while (!(plane.weather().in_storm(0, t) && !plane.weather().in_storm(1, t))) {
    t += 60;
    ASSERT_LT(t, 1e7) << "no region-divergent storm found";
  }
  // Correlation is the point: *every* type is denied in the stormy region
  // at once, while the calm region grants every type.
  for (TypeId type = 0; type < catalog.type_count(); ++type) {
    EXPECT_EQ(plane.try_call(ApiOp::kAcquire, t, type, 0),
              ApiErrorCode::kInsufficientCapacity);
    EXPECT_EQ(plane.try_call(ApiOp::kAcquire, t, type, 1), ApiErrorCode::kOk);
  }
  EXPECT_EQ(plane.stats().storm_denials, catalog.type_count());
}

TEST(RegionalWeatherTest, SpotReclaimsAreSynchronizedWithinAStorm) {
  const Catalog catalog = make_ec2_catalog();
  ControlPlaneOptions options;
  options.faults.weather = stormy_options();
  options.seed = 11;
  ControlPlane plane(catalog, options);
  ASSERT_TRUE(plane.interruptions_enabled());

  // Co-located instances acquired at different times before the same storm
  // draw share one reclamation instant — that is the correlated part the
  // i.i.d. exponential process cannot produce.
  const auto a = plane.sample_interruption(0.0, 0);
  const auto b = plane.sample_interruption(100.0, 0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(a->reclaim_at, b->reclaim_at);
  EXPECT_GE(plane.stats().storm_reclaims, 2u);

  // An instance in the other region follows that region's own storms.
  const auto c = plane.sample_interruption(0.0, 1);
  ASSERT_TRUE(c.has_value());
  EXPECT_NE(c->reclaim_at, a->reclaim_at);
}

TEST(RegionalWeatherTest, InitialStormIsInProgressAtTimeZero) {
  RegionalWeatherOptions options = stormy_options();
  options.initial_storm = true;
  RegionalWeather weather(2, options, 7);
  // The first window in every region starts at t=0 (a pre-existing
  // incident); without the flag the first storm arrives after a gap.
  EXPECT_TRUE(weather.in_storm(0, 0.0));
  EXPECT_TRUE(weather.in_storm(1, 0.0));
  RegionalWeather lazy(2, stormy_options(), 7);
  EXPECT_FALSE(lazy.in_storm(0, 0.0));
}

TEST(RegionalWeatherTest, CrashMultiplierAppliesOnlyInsideStorms) {
  RegionalWeather weather(2, stormy_options(), 3);
  double in = -1, out = -1;
  for (double t = 0; t < 1e6 && (in < 0 || out < 0); t += 60) {
    if (weather.in_storm(0, t)) {
      in = t;
    } else {
      out = t;
    }
  }
  ASSERT_GE(in, 0.0);
  ASSERT_GE(out, 0.0);
  EXPECT_DOUBLE_EQ(weather.crash_multiplier(0, in), 4.0);
  EXPECT_DOUBLE_EQ(weather.crash_multiplier(0, out), 1.0);
}

TEST(RegionalWeatherTest, RegionHazardSkewsStormArrivals) {
  RegionalWeatherOptions options = stormy_options();
  options.region_hazard = {1.0, 8.0};  // region 1 is eight times stormier
  RegionalWeather weather(2, options, 13);
  const double horizon = 2e6 * static_cast<double>(chaos_scale());
  double stormy[2] = {0, 0};
  for (double t = 0; t < horizon; t += 120.0) {
    for (RegionId r = 0; r < 2; ++r) {
      if (weather.in_storm(r, t)) stormy[r] += 1;
    }
  }
  EXPECT_GT(stormy[1], 2.0 * stormy[0]);
}

TEST(RegionalWeatherTest, AllRegionStormExhaustsProvisioning) {
  const Catalog catalog = make_ec2_catalog();
  ControlPlaneOptions options;
  // Storms arrive within seconds and last effectively forever in *every*
  // region: with all types and all regions dark at once, provision() must
  // burn its budget and report exhaustion (the executor turns this into
  // ProvisioningExhaustedError, which the CLI maps to exit 4).
  options.faults.weather.storm_mtbs_s = 1.0;
  options.faults.weather.storm_duration_s = 1e9;
  options.faults.weather.capacity_hazard = 1.0;
  options.retry.max_attempts = 2;
  options.retry.backoff = util::BackoffOptions{1.0, 2.0, 8.0, 0.0};
  options.give_up_s = 300;
  options.seed = 23;
  ControlPlane plane(catalog, options);

  ASSERT_TRUE(plane.weather().in_storm(0, 10.0));
  ASSERT_TRUE(plane.weather().in_storm(1, 10.0));
  const ProvisionGrant grant = plane.provision(0, 0, 10.0);
  EXPECT_FALSE(grant.ok);
  EXPECT_EQ(plane.stats().exhausted, 1u);
  EXPECT_GT(plane.stats().storm_denials, 0u);
  // The repeated capacity denials tripped the acquire breaker.
  EXPECT_GT(plane.stats().breaker_opens, 0u);
}

TEST(RegionalWeatherTest, BreakerRecoversWhenTheStormClears) {
  const Catalog catalog = make_ec2_catalog();
  ControlPlaneOptions options;
  options.faults.weather = stormy_options();
  // No escape hatch: the storm must be ridden out, not dodged.
  options.allow_type_fallback = false;
  options.allow_region_fallback = false;
  options.retry.max_attempts = 4;
  options.retry.backoff = util::BackoffOptions{2.0, 2.0, 16.0, 0.0};
  options.give_up_s = 120;
  options.seed = 29;
  ControlPlane plane(catalog, options);

  // Pick a storm long enough to outlast the provisioning budget, with calm
  // air behind it.
  double from = 0;
  StormWindow storm;
  for (;;) {
    const auto w = plane.weather().next_storm(0, from);
    ASSERT_TRUE(w.has_value());
    ASSERT_LT(w->start, 1e8) << "no suitable storm window found";
    const auto after = plane.weather().next_storm(0, w->end + 1.0);
    if (w->end - w->start > 2 * options.give_up_s &&
        after.has_value() && after->start > w->end + 600.0) {
      storm = *w;
      break;
    }
    from = w->end + 1.0;
  }

  // Inside the storm every attempt is denied: the budget burns out and the
  // consecutive capacity denials open the acquire breaker.
  const ProvisionGrant denied = plane.provision(0, 0, storm.start + 1.0);
  EXPECT_FALSE(denied.ok);
  EXPECT_GT(plane.stats().breaker_opens, 0u);

  // After the window ends the breaker reads half-open; the trial call
  // succeeds and closes it — provisioning has recovered.
  const double calm = storm.end + 300.0;
  ASSERT_FALSE(plane.weather().in_storm(0, calm));
  EXPECT_EQ(plane.breaker(ApiOp::kAcquire).state(calm),
            BreakerState::kHalfOpen);
  const ProvisionGrant granted = plane.provision(0, 0, calm);
  EXPECT_TRUE(granted.ok);
  EXPECT_EQ(plane.breaker(ApiOp::kAcquire).state(granted.ready_at),
            BreakerState::kClosed);
}

}  // namespace
}  // namespace deco::cloud
