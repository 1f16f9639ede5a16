// Simulated IaaS control plane: the API layer between the execution engine
// and the cloud's capacity.
//
// The seed simulator assumed acquire/terminate always succeed instantly —
// an implausibly reliable control plane.  Real IaaS APIs throttle
// (RequestLimitExceeded), run out of per-type capacity
// (InsufficientInstanceCapacity), return transient 5xx errors, and
// interrupt spot capacity with an advance notice.  ControlPlane models all
// of these deterministically from a single seed, and layers the resilience
// machinery a production client needs on top:
//
//   * capped exponential backoff with seeded full jitter (util::Backoff),
//   * a per-operation circuit breaker (closed / open / half-open, state
//     exported through obs gauges),
//   * graceful degradation: when capacity for the requested instance type
//     stays exhausted, provision() falls back to alternate types and
//     regions before giving up.
//
// Determinism contract (same as sim::FailureModel): the control plane owns
// its own RNG streams, seeded from ControlPlaneOptions::seed, and every
// draw is gated on its fault class being active — so with the null fault
// model no entropy is consumed, every call succeeds instantly, and callers
// reproduce today's traces bit for bit.  All clocks are *virtual* simulator
// time, monotonically advanced by the caller.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "cloud/instance_type.hpp"
#include "cloud/weather.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace deco::cloud {

/// API operations the control plane mediates.
enum class ApiOp : std::uint8_t { kAcquire = 0, kTerminate = 1, kDescribe = 2 };
inline constexpr std::size_t kApiOpCount = 3;
const char* api_op_name(ApiOp op);

/// Outcome of one raw API call.
enum class ApiErrorCode : std::uint8_t {
  kOk = 0,
  kThrottled,             ///< RequestLimitExceeded (token bucket empty)
  kInsufficientCapacity,  ///< per-type capacity exhausted (acquire only)
  kTransient,             ///< 5xx-style internal error
};
const char* api_error_name(ApiErrorCode code);

/// Thrown by callers (the simulator executor, the CLI) when provisioning
/// fails even after retries and fallback — the cloud genuinely has nothing
/// to offer.  Mapped to its own exit code by run_cli.
class ProvisioningExhaustedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ApiFaultOptions {
  /// Token-bucket rate limit shared by all mutating calls.  <= 0 disables
  /// throttling; the bucket starts full at `throttle_burst` tokens and
  /// refills at `throttle_rate_per_s`.
  double throttle_rate_per_s = 0;
  double throttle_burst = 8;

  /// Per-(type, region) capacity exhaustion: outages arrive per (type,
  /// region) pair as a Poisson process with mean inter-arrival
  /// `capacity_mtbo_s` (mean time between outages; <= 0 disables) and
  /// exponential mean duration `capacity_outage_s`.  During an outage every
  /// acquire of that type *in that region* is denied with
  /// kInsufficientCapacity — the same type stays acquirable elsewhere, which
  /// is what makes region fallback a real escape hatch.
  double capacity_mtbo_s = 0;
  double capacity_outage_s = 600;

  /// Probability that any one API call fails with a transient 5xx.
  double transient_error_prob = 0;

  /// Spot interruptions: instances acquired through an interruption-enabled
  /// control plane are reclaimed after an exponential uptime with this mean
  /// (<= 0 disables), with a notice delivered `spot_notice_lead_s` ahead of
  /// the reclamation (EC2's two-minute warning).
  double spot_interruption_mtbf_s = 0;
  double spot_notice_lead_s = 120;

  /// Regional failure weather: correlated storms that black out a region's
  /// capacity across every type, synchronously reclaim its spot instances,
  /// and raise its crash hazard.  Disabled by default (storm_mtbs_s <= 0);
  /// see cloud/weather.hpp for the determinism contract.
  RegionalWeatherOptions weather;

  /// True iff any fault class is active.
  bool enabled() const;
};

struct RetryOptions {
  /// Backoff between API attempts (full jitter by default).
  util::BackoffOptions backoff{1.0, 2.0, 64.0, 1.0};
  /// Attempts per provisioning candidate before moving on.
  std::size_t max_attempts = 8;
  /// Consecutive capacity denials on one candidate before falling back to
  /// the next (capacity outages outlive per-call retries).
  std::size_t fallback_after = 2;
};

struct BreakerOptions {
  /// Consecutive failures that open the breaker.
  std::size_t failure_threshold = 5;
  /// Virtual seconds the breaker stays open before admitting a half-open
  /// trial call.
  double open_s = 30;
};

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };
const char* breaker_state_name(BreakerState state);

/// Per-operation circuit breaker over virtual time.  Closed passes calls
/// through; `failure_threshold` consecutive failures open it; after
/// `open_s` the next admitted call runs half-open — success closes the
/// breaker, failure re-opens it.
class CircuitBreaker {
 public:
  CircuitBreaker() = default;
  explicit CircuitBreaker(BreakerOptions options) : options_(options) {}

  /// State as observed at virtual time `now` (an open breaker whose window
  /// elapsed reads half-open).
  BreakerState state(double now) const;

  /// May a call be issued at `now`?  False only while open.
  bool allow(double now) const;

  /// Earliest virtual time a call will be admitted again.
  double retry_at() const { return open_until_; }

  /// Record the outcome of an admitted call.
  void on_success(double now);
  void on_failure(double now);

  std::size_t opens() const { return opens_; }
  std::size_t consecutive_failures() const { return consecutive_failures_; }

 private:
  BreakerOptions options_;
  BreakerState state_ = BreakerState::kClosed;
  double open_until_ = 0;
  std::size_t consecutive_failures_ = 0;
  std::size_t opens_ = 0;
};

struct ControlPlaneOptions {
  ApiFaultOptions faults;
  RetryOptions retry;
  BreakerOptions breaker;
  /// Seed for every fault/jitter stream the control plane owns.
  std::uint64_t seed = 0xC10DULL;
  /// Fallback search space when capacity stays exhausted: alternate
  /// instance types in the requested region, then the requested type in
  /// alternate regions.
  bool allow_type_fallback = true;
  bool allow_region_fallback = true;
  /// Total virtual time provision() may spend (retries + fallbacks) before
  /// reporting exhaustion.
  double give_up_s = 4 * 3600.0;
};

/// Aggregate API statistics for one control plane instance.
struct ApiStats {
  std::size_t calls = 0;
  std::size_t throttled = 0;
  std::size_t capacity_denials = 0;
  std::size_t transient_errors = 0;
  std::size_t retries = 0;            ///< API attempts after the first
  std::size_t fallbacks = 0;          ///< provisioning candidate switches
  std::size_t exhausted = 0;          ///< provision() calls that gave up
  std::size_t breaker_opens = 0;
  std::size_t breaker_waits = 0;      ///< calls delayed by an open breaker
  std::size_t spot_interruptions = 0; ///< interruption schedules issued
  std::size_t storm_denials = 0;      ///< acquires denied by a regional storm
  std::size_t storm_reclaims = 0;     ///< interruptions pulled in by a storm
};

/// The grant returned by a resilient provisioning call.
struct ProvisionGrant {
  bool ok = false;
  TypeId type = 0;          ///< granted type (may differ from requested)
  RegionId region = 0;      ///< granted region (may differ from requested)
  double ready_at = 0;      ///< virtual time the launch is admitted
  bool fell_back = false;   ///< granted from a fallback candidate
  std::size_t attempts = 0;
};

/// A scheduled spot interruption for one instance.
struct SpotInterruption {
  double notice_at = 0;   ///< advance warning (checkpoint trigger)
  double reclaim_at = 0;  ///< capacity disappears
};

class ControlPlane {
 public:
  explicit ControlPlane(const Catalog& catalog,
                        ControlPlaneOptions options = {});

  const ControlPlaneOptions& options() const { return options_; }
  const ApiStats& stats() const { return stats_; }
  const CircuitBreaker& breaker(ApiOp op) const {
    return breakers_[static_cast<std::size_t>(op)];
  }

  /// True when no fault class is active: every call succeeds instantly and
  /// no entropy is consumed (the bit-identity contract).
  bool null_model() const { return !options_.faults.enabled(); }

  /// Spot-interruption notices are modelled (affects executor semantics):
  /// either the i.i.d. exponential process or weather spot storms.
  bool interruptions_enabled() const {
    return options_.faults.spot_interruption_mtbf_s > 0 ||
           (weather_.enabled() && options_.faults.weather.spot_storms);
  }

  /// The regional weather process (mutable: storm windows materialize
  /// lazily on query).  Disabled weather answers every query trivially.
  RegionalWeather& weather() { return weather_; }
  const RegionalWeather& weather() const { return weather_; }

  /// One raw API call at virtual time `now` (monotone per control plane).
  /// Applies throttling and transient errors; acquire additionally checks
  /// per-(type, region) capacity.  Does not retry and does not consult the
  /// breaker.
  ApiErrorCode try_call(ApiOp op, double now, TypeId type = 0,
                        RegionId region = 0);

  /// Resilient acquire: retries with jittered backoff, respects the
  /// acquire breaker, and falls back to alternate types/regions when
  /// capacity stays exhausted.  Never throws; `ok == false` means the
  /// request is exhausted (callers decide whether that is fatal).
  ProvisionGrant provision(TypeId type, RegionId region, double now);

  /// Resilient fire-and-forget call (terminate/describe): returns the
  /// virtual time the call finally succeeded.  Gives up (returning the
  /// last attempt time) after RetryOptions::max_attempts.
  double complete_call(ApiOp op, double now);

  /// Samples the interruption schedule for an instance acquired at `now`
  /// in `region`, or nullopt when interruptions are disabled (no entropy
  /// consumed).  With weather spot storms active, the regional storm's
  /// shared reclamation draw can pull the reclaim earlier — co-located
  /// instances acquired before the same storm are reclaimed together.
  std::optional<SpotInterruption> sample_interruption(double acquired_at,
                                                      RegionId region = 0);

  /// Is capacity for `type` in `region` exhausted at virtual time `now`?
  /// (Exposed for tests; advances the per-(type, region) outage window
  /// lazily.)
  bool in_capacity_outage(TypeId type, RegionId region, double now);

 private:
  struct CapacityState {
    util::Rng rng;  ///< per-(type, region) stream: windows depend only on time
    double outage_start = 0;
    double outage_end = 0;
    bool primed = false;
  };

  /// Advances the token bucket to `now` and tries to take one token.
  bool take_token(double now);
  /// Candidate (type, region) list for provisioning, requested first.
  std::vector<std::pair<TypeId, RegionId>> candidates(TypeId type,
                                                      RegionId region) const;
  void record(ApiErrorCode code);
  void export_breaker_gauges(double now);

  const Catalog* catalog_;
  ControlPlaneOptions options_;
  util::Rng rng_;          ///< transient errors, jitter, interruptions
  double tokens_ = 0;
  double token_time_ = 0;  ///< bucket last refilled at this virtual time
  std::vector<CapacityState> capacity_;  ///< type-major (type, region) matrix
  RegionalWeather weather_;
  std::array<CircuitBreaker, kApiOpCount> breakers_;
  ApiStats stats_;
};

}  // namespace deco::cloud
