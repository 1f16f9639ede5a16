#include "cloud/control_plane.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace deco::cloud {
namespace {

/// splitmix64 finalizer: derives independent per-(type, region) streams from
/// the seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double exponential(util::Rng& rng, double mean) {
  const double u = std::max(1.0 - rng.uniform(), 1e-12);  // (0, 1]
  return -mean * std::log(u);
}

}  // namespace

const char* api_op_name(ApiOp op) {
  switch (op) {
    case ApiOp::kAcquire: return "acquire";
    case ApiOp::kTerminate: return "terminate";
    case ApiOp::kDescribe: return "describe";
  }
  return "?";
}

const char* api_error_name(ApiErrorCode code) {
  switch (code) {
    case ApiErrorCode::kOk: return "ok";
    case ApiErrorCode::kThrottled: return "RequestLimitExceeded";
    case ApiErrorCode::kInsufficientCapacity:
      return "InsufficientInstanceCapacity";
    case ApiErrorCode::kTransient: return "InternalError";
  }
  return "?";
}

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

bool ApiFaultOptions::enabled() const {
  return throttle_rate_per_s > 0 || capacity_mtbo_s > 0 ||
         transient_error_prob > 0 || spot_interruption_mtbf_s > 0 ||
         weather.enabled();
}

BreakerState CircuitBreaker::state(double now) const {
  if (state_ == BreakerState::kOpen && now >= open_until_) {
    return BreakerState::kHalfOpen;
  }
  return state_;
}

bool CircuitBreaker::allow(double now) const {
  return state(now) != BreakerState::kOpen;
}

void CircuitBreaker::on_success(double now) {
  // Success in any admitted state closes the breaker (the half-open trial
  // proved the dependency healthy again).
  (void)now;
  state_ = BreakerState::kClosed;
  consecutive_failures_ = 0;
}

void CircuitBreaker::on_failure(double now) {
  if (state(now) == BreakerState::kHalfOpen) {
    // Failed trial: straight back to open for another window.
    state_ = BreakerState::kOpen;
    open_until_ = now + options_.open_s;
    ++opens_;
    return;
  }
  if (++consecutive_failures_ >= std::max<std::size_t>(
          options_.failure_threshold, 1)) {
    state_ = BreakerState::kOpen;
    open_until_ = now + options_.open_s;
    consecutive_failures_ = 0;
    ++opens_;
  }
}

ControlPlane::ControlPlane(const Catalog& catalog, ControlPlaneOptions options)
    : catalog_(&catalog),
      options_(options),
      rng_(mix(options.seed, 0)),
      tokens_(std::max(options.faults.throttle_burst, 1.0)) {
  // One outage-window stream per (type, region): an outage of m1.small in
  // us-east says nothing about m1.small in Singapore.
  const std::size_t regions = std::max<std::size_t>(catalog.region_count(), 1);
  capacity_.resize(catalog.type_count() * regions);
  for (TypeId t = 0; t < catalog.type_count(); ++t) {
    for (RegionId r = 0; r < regions; ++r) {
      capacity_[t * regions + r].rng.reseed(
          mix(mix(options_.seed, 0x9E37 + t), r));
    }
  }
  weather_ =
      RegionalWeather(regions, options_.faults.weather, mix(options_.seed, 1));
  for (auto& breaker : breakers_) breaker = CircuitBreaker(options_.breaker);
}

bool ControlPlane::take_token(double now) {
  if (options_.faults.throttle_rate_per_s <= 0) return true;
  const double burst = std::max(options_.faults.throttle_burst, 1.0);
  // Clamp against clock regressions: segments replayed from the same
  // control plane never rewind the bucket.
  const double dt = std::max(now - token_time_, 0.0);
  tokens_ = std::min(tokens_ + dt * options_.faults.throttle_rate_per_s, burst);
  token_time_ = std::max(token_time_, now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

bool ControlPlane::in_capacity_outage(TypeId type, RegionId region,
                                      double now) {
  const std::size_t regions =
      std::max<std::size_t>(catalog_->region_count(), 1);
  const std::size_t slot = type * regions + std::min<std::size_t>(region,
                                                                  regions - 1);
  if (options_.faults.capacity_mtbo_s <= 0 || slot >= capacity_.size()) {
    return false;
  }
  CapacityState& cap = capacity_[slot];
  if (!cap.primed) {
    cap.outage_start = exponential(cap.rng, options_.faults.capacity_mtbo_s);
    cap.outage_end =
        cap.outage_start + exponential(cap.rng, options_.faults.capacity_outage_s);
    cap.primed = true;
  }
  // Windows are a function of (seed, type, region, time) alone: advance them
  // past `now` regardless of who asked before.
  while (now >= cap.outage_end) {
    cap.outage_start =
        cap.outage_end + exponential(cap.rng, options_.faults.capacity_mtbo_s);
    cap.outage_end =
        cap.outage_start + exponential(cap.rng, options_.faults.capacity_outage_s);
  }
  return now >= cap.outage_start;
}

void ControlPlane::record(ApiErrorCode code) {
  ++stats_.calls;
  DECO_OBS_COUNTER_ADD("cloud.api.calls", 1);
  switch (code) {
    case ApiErrorCode::kOk:
      break;
    case ApiErrorCode::kThrottled:
      ++stats_.throttled;
      DECO_OBS_COUNTER_ADD("cloud.api.throttled", 1);
      break;
    case ApiErrorCode::kInsufficientCapacity:
      ++stats_.capacity_denials;
      DECO_OBS_COUNTER_ADD("cloud.api.capacity_denials", 1);
      break;
    case ApiErrorCode::kTransient:
      ++stats_.transient_errors;
      DECO_OBS_COUNTER_ADD("cloud.api.transient_errors", 1);
      break;
  }
}

ApiErrorCode ControlPlane::try_call(ApiOp op, double now, TypeId type,
                                    RegionId region) {
  if (null_model()) return ApiErrorCode::kOk;  // no draws, no bookkeeping
  ApiErrorCode code = ApiErrorCode::kOk;
  if (!take_token(now)) {
    code = ApiErrorCode::kThrottled;
  } else if (options_.faults.transient_error_prob > 0 &&
             rng_.chance(options_.faults.transient_error_prob)) {
    code = ApiErrorCode::kTransient;
  } else if (op == ApiOp::kAcquire && weather_.capacity_denied(region, now)) {
    // A regional storm blacks out the whole region: every type is denied
    // together, which is exactly what makes region fallback (and the WMS's
    // evacuation path) necessary.
    code = ApiErrorCode::kInsufficientCapacity;
    ++stats_.storm_denials;
    DECO_OBS_COUNTER_ADD("cloud.weather.storm_denials", 1);
  } else if (op == ApiOp::kAcquire && in_capacity_outage(type, region, now)) {
    code = ApiErrorCode::kInsufficientCapacity;
  }
  record(code);
  return code;
}

std::vector<std::pair<TypeId, RegionId>> ControlPlane::candidates(
    TypeId type, RegionId region) const {
  std::vector<std::pair<TypeId, RegionId>> list;
  list.emplace_back(type, region);
  if (options_.allow_type_fallback) {
    // Alternate types in the requested region, nearest price first — the
    // cheapest substitute that still resembles what the plan asked for.
    std::vector<TypeId> others;
    for (TypeId t = 0; t < catalog_->type_count(); ++t) {
      if (t != type) others.push_back(t);
    }
    const double want = catalog_->type(type).price_per_hour;
    std::stable_sort(others.begin(), others.end(), [&](TypeId a, TypeId b) {
      return std::abs(catalog_->type(a).price_per_hour - want) <
             std::abs(catalog_->type(b).price_per_hour - want);
    });
    for (TypeId t : others) list.emplace_back(t, region);
  }
  if (options_.allow_region_fallback) {
    for (RegionId r = 0; r < catalog_->region_count(); ++r) {
      if (r != region) list.emplace_back(type, r);
    }
  }
  return list;
}

void ControlPlane::export_breaker_gauges(double now) {
  for (std::size_t op = 0; op < kApiOpCount; ++op) {
    DECO_OBS_GAUGE_SET(
        std::string("cloud.breaker.") +
            api_op_name(static_cast<ApiOp>(op)) + ".state",
        static_cast<double>(breakers_[op].state(now)));
  }
}

ProvisionGrant ControlPlane::provision(TypeId type, RegionId region,
                                       double now) {
  ProvisionGrant grant;
  grant.type = type;
  grant.region = region;
  if (null_model()) {
    // Fast path and bit-identity contract: instant grant, zero entropy.
    grant.ok = true;
    grant.ready_at = now;
    grant.attempts = 1;
    return grant;
  }

  CircuitBreaker& breaker = breakers_[static_cast<std::size_t>(ApiOp::kAcquire)];
  const double deadline = now + std::max(options_.give_up_s, 0.0);
  double t = now;
  // give_up_s is a virtual-time budget, not a single pass: when every
  // candidate is simultaneously out of capacity, wait out the storm and
  // re-scan the whole list until the budget is spent.
  while (t <= deadline) {
    for (const auto& [cand_type, cand_region] : candidates(type, region)) {
      util::Backoff backoff(options_.retry.backoff);
      std::size_t capacity_streak = 0;
      for (std::size_t attempt = 1;
           attempt <= std::max<std::size_t>(options_.retry.max_attempts, 1);
           ++attempt) {
        if (t > deadline) break;
        if (!breaker.allow(t)) {
          // Open breaker: don't hammer the API — wait out the window.
          ++stats_.breaker_waits;
          DECO_OBS_COUNTER_ADD("cloud.breaker.waits", 1);
          t = std::max(t, breaker.retry_at());
        }
        const std::size_t opens_before = breaker.opens();
        const ApiErrorCode code =
            try_call(ApiOp::kAcquire, t, cand_type, cand_region);
        if (attempt > 1) {
          ++stats_.retries;
          DECO_OBS_COUNTER_ADD("cloud.api.retries", 1);
        }
        ++grant.attempts;
        if (code == ApiErrorCode::kOk) {
          breaker.on_success(t);
          export_breaker_gauges(t);
          grant.ok = true;
          grant.type = cand_type;
          grant.region = cand_region;
          grant.ready_at = t;
          grant.fell_back = cand_type != type || cand_region != region;
          if (grant.fell_back) {
            ++stats_.fallbacks;
            DECO_OBS_COUNTER_ADD("cloud.api.fallbacks", 1);
          }
          return grant;
        }
        // Throttling is backpressure, not ill health: it must not open the
        // breaker (the API is answering, just telling us to slow down).
        if (code != ApiErrorCode::kThrottled) breaker.on_failure(t);
        if (breaker.opens() != opens_before) {
          ++stats_.breaker_opens;
          DECO_OBS_COUNTER_ADD("cloud.breaker.opens", 1);
        }
        export_breaker_gauges(t);
        if (code == ApiErrorCode::kInsufficientCapacity) {
          if (++capacity_streak >=
              std::max<std::size_t>(options_.retry.fallback_after, 1)) {
            break;  // capacity outages outlive retries: try the next candidate
          }
        } else {
          capacity_streak = 0;
        }
        t += backoff.next(rng_);
      }
    }
    // Full sweep failed: pause a capped-backoff interval before the next
    // sweep so the loop always advances even with zero-delay retry options.
    t += std::max(options_.retry.backoff.cap_s, 1.0);
  }
  ++stats_.exhausted;
  DECO_OBS_COUNTER_ADD("cloud.api.exhausted", 1);
  grant.ok = false;
  grant.ready_at = t;
  return grant;
}

double ControlPlane::complete_call(ApiOp op, double now) {
  if (null_model()) return now;
  CircuitBreaker& breaker = breakers_[static_cast<std::size_t>(op)];
  util::Backoff backoff(options_.retry.backoff);
  double t = now;
  for (std::size_t attempt = 1;
       attempt <= std::max<std::size_t>(options_.retry.max_attempts, 1);
       ++attempt) {
    if (!breaker.allow(t)) {
      ++stats_.breaker_waits;
      DECO_OBS_COUNTER_ADD("cloud.breaker.waits", 1);
      t = std::max(t, breaker.retry_at());
    }
    const std::size_t opens_before = breaker.opens();
    const ApiErrorCode code = try_call(op, t);
    if (attempt > 1) {
      ++stats_.retries;
      DECO_OBS_COUNTER_ADD("cloud.api.retries", 1);
    }
    if (code == ApiErrorCode::kOk) {
      breaker.on_success(t);
      export_breaker_gauges(t);
      return t;
    }
    if (code != ApiErrorCode::kThrottled) breaker.on_failure(t);
    if (breaker.opens() != opens_before) {
      ++stats_.breaker_opens;
      DECO_OBS_COUNTER_ADD("cloud.breaker.opens", 1);
    }
    export_breaker_gauges(t);
    t += backoff.next(rng_);
  }
  // Terminate/describe failures are not fatal: the caller proceeds at the
  // delayed time (a lost terminate just bills a little longer).
  return t;
}

std::optional<SpotInterruption> ControlPlane::sample_interruption(
    double acquired_at, RegionId region) {
  if (!interruptions_enabled()) return std::nullopt;
  double reclaim_at = std::numeric_limits<double>::infinity();
  if (options_.faults.spot_interruption_mtbf_s > 0) {
    reclaim_at = acquired_at +
                 exponential(rng_, options_.faults.spot_interruption_mtbf_s);
  }
  // Weather spot storms layer a *shared* regional draw on top of the
  // i.i.d. process: the storm's reclamation instant hits every co-located
  // spot instance acquired before it, so the earlier of the two wins.
  if (const auto storm_at = weather_.spot_reclaim_after(region, acquired_at)) {
    if (*storm_at < reclaim_at) {
      reclaim_at = *storm_at;
      ++stats_.storm_reclaims;
      DECO_OBS_COUNTER_ADD("cloud.weather.spot_reclaims", 1);
    }
  }
  if (!std::isfinite(reclaim_at)) return std::nullopt;
  SpotInterruption interruption;
  interruption.reclaim_at = reclaim_at;
  interruption.notice_at =
      std::max(acquired_at, interruption.reclaim_at -
                                std::max(options_.faults.spot_notice_lead_s, 0.0));
  ++stats_.spot_interruptions;
  DECO_OBS_COUNTER_ADD("cloud.api.spot_interruptions", 1);
  return interruption;
}

}  // namespace deco::cloud
