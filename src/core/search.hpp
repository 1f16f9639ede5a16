// Parallel solver: one wave search (Algorithm 2), breadth-first or A*
// (Section 5.3) by the frontier order the callbacks select.
//
// The solver is generic over the state type: the workflow-scheduling problem
// searches instance-configuration plans, the declarative solver searches WLog
// variable assignments (the ensemble program among them), follow-the-cost
// searches migration vectors.  States are evaluated in *batches* so the
// backend can assign one block per state —
// "we use N thread blocks to search the solution space at the same time".
// Exploration (breadth-first) is chosen over exploitation for parallelism,
// exactly as Section 5.3 argues.
//
// Wave loop: each wave pulls up to batch_size states off the frontier,
// scores them in one cb.evaluate call, then commits them in batch order —
// incumbent update and expansion into the visited set and the frontier.
// The time spent inside cb.evaluate is reported as
// SearchStats::eval_stall_ms; the rest of elapsed_ms is the driver's own
// work.  The callbacks all run on the calling thread, so they may share
// mutable state (the evaluator parallelizes inside a wave, one block per
// state).
//
// Parent-relative expansion: every frontier state travels with its key.
// cb.expand receives the parent and the parent's key; per move it derives
// the child's key in O(1) (an additive key, see key_term/rekey below), asks
// Expansion::fresh whether the visited set has seen it, and builds the child
// only when it has not.  A duplicate therefore costs one key update and one
// set probe — no state copy, no from-scratch hash.  cb.hash is the
// from-scratch key, used once, for the root.
//
// Frontier order: without g/h scores the frontier is a FIFO.  The driver
// then knows how many more states its budget can pop off it, and fresh()
// admits no child queued past that point: its key is recorded, but the
// state is never built.  When the user supplies g/h scores (cal_g_score /
// est_h_score in WLog, or native callbacks here) the frontier is a heap on
// f = g + h, so states are expanded best-first (A* mode), and a popped
// state whose f score cannot beat the best feasible objective found so far
// is pruned.  Only fresh children are f-scored; a minimizing search also
// prunes them at push time against the incumbent — valid whenever children
// cannot improve on their parent (the monotone-cost property the paper
// exploits: "child states configure tasks with better instance types and
// thus always generate higher cost").
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/budget.hpp"

namespace deco::core {

struct Scored {
  bool feasible = false;
  double objective = 0;
};

struct SearchOptions {
  std::size_t max_states = 4096;   ///< evaluation budget
  std::size_t batch_size = 32;     ///< states per backend launch
  bool minimize = true;
  /// Stop as soon as this many consecutive expansion waves bring no
  /// incumbent improvement (0 = run the full budget).
  std::size_t stale_wave_limit = 0;
  /// Optional per-solve budget (borrowed, may be null).  Checked at wave
  /// boundaries (and by any callback that observes it); a fired budget
  /// discards the partially evaluated wave and returns the incumbent as an
  /// anytime result (SearchResult::budget).  A budget that never fires is
  /// behavior-neutral: checkpoints only read, so results stay bit-identical
  /// to an unbudgeted run.
  util::BudgetTracker* budget = nullptr;
};

/// Search-effort accounting, filled identically in both frontier orders
/// (tests/core/search_test.cpp pins the invariants):
///   * every evaluated state is counted in states_evaluated;
///   * states_expanded counts states whose children were generated: every
///     evaluated state, unless a budget cut ends its wave first;
///   * states_pruned counts incumbent-pruned states (best-first only: at
///     pop time, and at push time when minimizing);
///   * duplicate_hits counts child keys Expansion::fresh rejected;
///   * visited_evicted counts hashes dropped when a memory budget shrinks
///     the visited set;
///   * eval_stall_ms is the time spent inside cb.evaluate.
struct SearchStats {
  std::size_t states_evaluated = 0;
  std::size_t states_expanded = 0;
  std::size_t states_pruned = 0;
  std::size_t duplicate_hits = 0;
  std::size_t visited_evicted = 0;
  std::size_t waves = 0;
  double elapsed_ms = 0;
  double eval_stall_ms = 0;
};

namespace detail {

/// Publishes one finished search's stats to the metrics registry.
inline void record_search_metrics(const char* kind, const SearchStats& stats) {
  DECO_OBS_COUNTER_ADD("search.runs", 1);
  DECO_OBS_COUNTER_ADD("search.states_evaluated", stats.states_evaluated);
  DECO_OBS_COUNTER_ADD("search.states_expanded", stats.states_expanded);
  DECO_OBS_COUNTER_ADD("search.states_pruned", stats.states_pruned);
  DECO_OBS_COUNTER_ADD("search.duplicate_hits", stats.duplicate_hits);
  DECO_OBS_COUNTER_ADD("search.visited_evicted", stats.visited_evicted);
  DECO_OBS_COUNTER_ADD("search.waves", stats.waves);
  DECO_OBS_HIST_MS(kind, stats.elapsed_ms);
  DECO_OBS_HIST_MS("search.eval_stall_ms", stats.eval_stall_ms);
#if defined(DECO_OBS_DISABLED)
  (void)kind;
  (void)stats;
#endif
}

}  // namespace detail

/// The shared additive state key.  A state that is a sequence of small
/// values v_0..v_{n-1} keys as  sum_i key_term(i, v_i)  (mod 2^64), where
/// key_term is a splitmix64 finalizer over a position-salted value.  A move
/// that changes one position therefore rekeys in O(1):
///   key - key_term(i, old) + key_term(i, new),
/// and a duplicate child is rejected before it is built.  All three search
/// users (plans, WLog assignments, region vectors) key their states this
/// way.
inline std::uint64_t key_term(std::size_t position, std::uint64_t value) {
  std::uint64_t z =
      value + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(position) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The key of a state one position away: `position` changed from `from` to
/// `to`.
inline std::uint64_t rekey(std::uint64_t key, std::size_t position,
                           std::uint64_t from, std::uint64_t to) {
  return key - key_term(position, from) + key_term(position, to);
}

/// From-scratch key of a sequence, `value(element)` mapping each element to
/// the integer its position contributes.
template <typename Sequence, typename Value>
std::uint64_t sequence_key(const Sequence& seq, Value value) {
  std::uint64_t key = 0;
  std::size_t i = 0;
  for (const auto& element : seq) {
    key += key_term(i++, static_cast<std::uint64_t>(value(element)));
  }
  return key;
}

template <typename State>
class Expansion;

template <typename State>
struct SearchCallbacks {
  /// Generates the children of `parent`, whose key is `parent_key`: per
  /// move, derive the child's key from the parent's, and build and push the
  /// child only if out.fresh(key).  Children must be offered in a fixed
  /// order — it is the frontier order — and every move must be offered,
  /// since fresh() also records keys it does not admit.
  std::function<void(const State& parent, std::uint64_t parent_key,
                     Expansion<State>& out)>
      expand;
  /// From-scratch key; the driver calls it once, for the root.
  std::function<std::uint64_t(const State&)> hash;
  std::function<std::vector<Scored>(std::span<const State>)> evaluate;
  /// A* heuristics; either set makes the frontier best-first on g + h,
  /// both null keeps it FIFO (breadth-first).
  std::function<double(const State&)> g_score;
  std::function<double(const State&)> h_score;
};

template <typename State>
struct SearchResult {
  std::optional<State> best;
  Scored best_score;
  SearchStats stats;
  /// Budget outcome: all-zero for unbudgeted runs; budget_exhausted set when
  /// the search was cut and `best` is the anytime incumbent.
  util::SolveReport budget;
};

namespace detail {

inline bool better(double candidate, double incumbent, bool minimize) {
  return minimize ? candidate < incumbent : candidate > incumbent;
}

/// Dedup set, unbounded until a memory budget caps it: shrink_to() evicts
/// the oldest hashes and sets a FIFO capacity, past which the oldest
/// inserted hash is evicted for every new one.  Eviction order is a pure
/// function of insertion order, so shrunken runs stay deterministic.
///
/// `track_order` keeps the insertion-order ring so a memory budget can
/// shrink_to() the set; unbudgeted sets skip the ring entirely.
class VisitedSet {
 public:
  explicit VisitedSet(bool track_order = false) : track_order_(track_order) {}

  /// True if `h` was newly inserted; false if it was already present.
  bool insert(std::uint64_t h) {
    if (!set_.insert(h).second) return false;
    if (capacity_ == 0) {
      if (track_order_) ring_.push_back(h);
      return true;
    }
    if (ring_.size() < capacity_) {
      ring_.push_back(h);
      return true;
    }
    set_.erase(ring_[head_]);
    ring_[head_] = h;
    head_ = (head_ + 1) % capacity_;
    ++evicted_;
    return true;
  }

  std::size_t evicted() const { return evicted_; }
  std::size_t size() const { return set_.size(); }
  /// 0 until the first shrink_to().
  std::size_t capacity() const { return capacity_; }

  /// Approximate resident bytes: hash-set nodes (bucket array + node heap
  /// allocations, ~40 B per entry on mainstream libstdc++) plus the ring.
  std::size_t bytes() const {
    return set_.size() * 40 + ring_.capacity() * sizeof(std::uint64_t);
  }

  /// Memory-pressure degradation: FIFO-evicts the oldest hashes until at
  /// most `new_capacity` remain and caps the set there.  Requires insertion
  /// order (track_order) — otherwise a no-op.  Evictions count into
  /// evicted(); dedup afterwards is exactly what a set capped at
  /// `new_capacity` would do from this point on.
  void shrink_to(std::size_t new_capacity) {
    new_capacity = std::max<std::size_t>(new_capacity, 1);
    if (!track_order_) return;  // no order to evict by
    // Linearize oldest-first: a wrapped capped ring starts at head_; an
    // unwrapped or uncapped ring is already in insertion order.
    std::vector<std::uint64_t> live;
    live.reserve(ring_.size());
    if (capacity_ != 0 && ring_.size() == capacity_ && head_ != 0) {
      for (std::size_t i = 0; i < ring_.size(); ++i) {
        live.push_back(ring_[(head_ + i) % ring_.size()]);
      }
    } else {
      live = ring_;
    }
    const std::size_t drop =
        live.size() > new_capacity ? live.size() - new_capacity : 0;
    for (std::size_t i = 0; i < drop; ++i) set_.erase(live[i]);
    evicted_ += drop;
    ring_.assign(live.begin() + static_cast<std::ptrdiff_t>(drop), live.end());
    ring_.shrink_to_fit();
    head_ = 0;
    capacity_ = new_capacity;
  }

 private:
  std::size_t capacity_ = 0;  // 0 = uncapped
  bool track_order_;
  std::unordered_set<std::uint64_t> set_;
  std::vector<std::uint64_t> ring_;  // insertion order, reused circularly
  std::size_t head_ = 0;
  std::size_t evicted_ = 0;
};

}  // namespace detail

/// A driver's side of one expansion: fresh() consults (and fills) the visited
/// set, push() hands a fresh child and its key to the frontier.
template <typename State>
class Expansion {
 public:
  using Sink = std::function<void(State&&, std::uint64_t)>;

  Expansion(detail::VisitedSet& visited, std::size_t& duplicate_hits,
            Sink sink)
      : visited_(visited), duplicate_hits_(duplicate_hits),
        sink_(std::move(sink)) {}

  /// True if the caller must build the child `key` describes and push it:
  /// no state with this key has been seen, and the driver can still
  /// evaluate the child.  A new key is marked seen either way, exactly as if
  /// its child had been pushed; a seen key counts a duplicate hit.
  bool fresh(std::uint64_t key) {
    if (!visited_.insert(key)) {
      ++duplicate_hits_;
      return false;
    }
    if (room_ == 0) return false;
    --room_;
    return true;
  }

  /// Adds a child that fresh(key) admitted.
  void push(State&& child, std::uint64_t key) {
    sink_(std::move(child), key);
  }

  /// How many more children the driver can still evaluate from this
  /// expansion; fresh() admits no more than that.  Unlimited by default.
  void set_room(std::size_t room) { room_ = room; }

 private:
  detail::VisitedSet& visited_;
  std::size_t& duplicate_hits_;
  Sink sink_;
  std::size_t room_ = std::numeric_limits<std::size_t>::max();
};

namespace detail {

/// The visited set a driver starts with: order is tracked only when a memory
/// budget may later ask to shrink it.
inline VisitedSet make_visited(const util::BudgetTracker* budget) {
  return VisitedSet(budget != nullptr && budget->active() &&
                    budget->memory_budget() > 0);
}

/// Wave-boundary budget service, run before each wave.  Publishes the
/// visited set's bytes, honors a pending shrink request from the evaluator's
/// degradation ladder (halving down to `floor`; firing kMemory once the
/// floor cannot satisfy the cap), and returns true when the solve must stop.
/// With a null or never-firing budget this reads state and changes nothing.
inline bool service_budget(util::BudgetTracker* budget, VisitedSet& visited,
                           std::size_t floor) {
  if (budget == nullptr) return false;
  using Component = util::BudgetTracker::Component;
  if (budget->active() && budget->memory_budget() > 0) {
    budget->set_bytes(Component::kVisited, visited.bytes());
    if (budget->consume_visited_shrink_request()) {
      const std::size_t target = std::max(floor, visited.size() / 2);
      if (visited.size() > target) {
        const std::size_t before = visited.evicted();
        visited.shrink_to(target);
        DECO_OBS_COUNTER_ADD("budget.evictions.visited",
                             visited.evicted() - before);
      } else {
        // The set is already at the floor: the degradation ladder is out of
        // things to evict, so memory pressure becomes a cutoff.
        budget->fire(util::BudgetTrigger::kMemory);
      }
      budget->set_bytes(Component::kVisited, visited.bytes());
    }
  }
  return budget->should_stop();
}

/// Scores one wave, adding the time spent inside cb.evaluate to `stall_ms`.
template <typename State>
std::vector<Scored> evaluate_wave(const SearchCallbacks<State>& cb,
                                  const std::vector<State>& batch,
                                  double& stall_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Scored> scores = cb.evaluate(std::span<const State>(batch));
  stall_ms += std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return scores;
}

/// Stamps the elapsed time and the budget outcome, clears the visited gauge
/// (the set dies with the driver's stack frame) and publishes the metrics.
template <typename State>
void finish_search(SearchResult<State>& result, const VisitedSet& visited,
                   util::BudgetTracker* budget,
                   std::chrono::steady_clock::time_point t0,
                   const char* kind) {
  result.stats.visited_evicted = visited.evicted();
  result.stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  if (budget != nullptr) {
    result.budget = budget->report(result.stats.states_evaluated);
    budget->set_bytes(util::BudgetTracker::Component::kVisited, 0);
  }
  record_search_metrics(kind, result.stats);
}

}  // namespace detail

/// The wave search (Algorithm 2).  The callbacks choose the frontier order:
/// with cb.g_score or cb.h_score set it is best-first on f = g + h (the A*
/// of Section 5.3), otherwise FIFO (breadth-first).
template <typename State>
SearchResult<State> search(const State& initial,
                           const SearchCallbacks<State>& cb,
                           const SearchOptions& options) {
  const bool best_first = cb.g_score || cb.h_score;
  DECO_OBS_SPAN("search", best_first ? "astar_search" : "generic_search");
  const auto t0 = std::chrono::steady_clock::now();
  SearchResult<State> result;
  detail::VisitedSet visited = detail::make_visited(options.budget);
  const std::size_t visited_floor =
      std::max<std::size_t>(options.batch_size, 64);

  // The frontier is a FIFO, or a heap on f under `worse` when best-first.
  struct Entry {
    State state;
    double f;
    std::uint64_t key;
  };
  std::deque<Entry> frontier;
  const double sign = options.minimize ? 1.0 : -1.0;
  auto worse = [sign](const Entry& a, const Entry& b) {
    return sign * a.f > sign * b.f;
  };
  auto pop = [&] {
    if (!best_first) {
      Entry e = std::move(frontier.front());
      frontier.pop_front();
      return e;
    }
    std::pop_heap(frontier.begin(), frontier.end(), worse);
    Entry e = std::move(frontier.back());
    frontier.pop_back();
    return e;
  };
  double bound = options.minimize ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
  auto beats_bound = [&](double value) {
    return detail::better(value, bound, options.minimize);
  };

  // States are f-scored as they are pushed (f = 0 without g/h scores).
  // Best-first, a minimizing search prunes a child that cannot beat the
  // incumbent: no child is cheaper than its parent (see the header).
  const bool prune_pushes = best_first && options.minimize;
  auto push = [&](State&& s, std::uint64_t key) {
    const double g = cb.g_score ? cb.g_score(s) : 0;
    const double f = g + (cb.h_score ? cb.h_score(s) : 0);
    if (prune_pushes && result.best && !beats_bound(f)) {
      ++result.stats.states_pruned;
      return;
    }
    frontier.push_back(Entry{std::move(s), f, key});
    if (best_first) std::push_heap(frontier.begin(), frontier.end(), worse);
  };
  // The g/h scorers may themselves observe the budget (e.g. WLog
  // interpreters); a cut before the first state is scored yields an empty
  // anytime result rather than an escaping exception.
  bool budget_cut = false;
  const std::uint64_t root_key = cb.hash(initial);
  try {
    push(State(initial), root_key);
  } catch (const util::BudgetExhaustedError&) {
    budget_cut = true;
  }
  visited.insert(root_key);
  Expansion<State> expansion(visited, result.stats.duplicate_hits, push);
  std::size_t stale_waves = 0;

  while (!budget_cut && !frontier.empty() &&
         result.stats.states_evaluated < options.max_states) {
    if (detail::service_budget(options.budget, visited, visited_floor)) break;
    std::vector<State> batch;
    std::vector<std::uint64_t> keys;
    while (!frontier.empty() && batch.size() < options.batch_size &&
           result.stats.states_evaluated + batch.size() < options.max_states) {
      Entry e = pop();
      // Prune against the incumbent: "by not placing the states with high g
      // and h scores into the candidate list".
      if (best_first && result.best && !beats_bound(e.f)) {
        ++result.stats.states_pruned;
        continue;
      }
      batch.push_back(std::move(e.state));
      keys.push_back(e.key);
    }
    if (batch.empty()) break;
    std::vector<Scored> scores;
    try {
      scores = detail::evaluate_wave(cb, batch, result.stats.eval_stall_ms);
    } catch (const util::BudgetExhaustedError&) {
      // Anytime cut: the partially evaluated wave is discarded — its scores
      // were never committed — and the incumbent stands.
      break;
    }
    result.stats.states_evaluated += batch.size();
    ++result.stats.waves;
    bool improved = false;

    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Scored& s = scores[i];
      if (s.feasible && (!result.best || beats_bound(s.objective))) {
        result.best = batch[i];
        result.best_score = s;
        bound = s.objective;
        improved = true;
      }
      ++result.stats.states_expanded;
      if (!best_first) {
        // The budget can pop at most `left` more states off the FIFO, so a
        // child queued behind `left` others is never evaluated: it is
        // marked seen (the dedup and its counters are unchanged) but not
        // built.
        const std::size_t left =
            options.max_states - result.stats.states_evaluated;
        expansion.set_room(left > frontier.size() ? left - frontier.size()
                                                  : 0);
      }
      try {
        cb.expand(batch[i], keys[i], expansion);
      } catch (const util::BudgetExhaustedError&) {
        // Incumbent updates up to here stand; the rest of the wave's
        // children are dropped and the search ends anytime-style.
        budget_cut = true;
        break;
      }
    }
    stale_waves = improved ? 0 : stale_waves + 1;
    if (options.stale_wave_limit > 0 && result.best &&
        stale_waves >= options.stale_wave_limit) {
      break;
    }
  }
  detail::finish_search(result, visited, options.budget, t0,
                        best_first ? "search.astar_ms" : "search.generic_ms");
  return result;
}

}  // namespace deco::core
