// Parallel solver: generic search (Algorithm 2) and A* search (Section 5.3).
//
// The solver is generic over the state type: the workflow-scheduling problem
// searches instance-configuration plans, the ensemble problem searches
// admission vectors, follow-the-cost searches migration vectors.  States are
// evaluated in *batches* so the backend can assign one block per state —
// "we use N thread blocks to search the solution space at the same time".
// Exploration (breadth-first) is chosen over exploitation for parallelism,
// exactly as Section 5.3 argues.
//
// Pipelined driver: while a batch evaluates on a background thread, the
// driver speculatively generates the batch's children, hashes (and, in A*
// mode, f-scores) them — i.e. wave k+1's frontier is built while wave k is
// still on the device.  Speculation never touches the visited set or the
// frontier; children are *committed* only after the scores arrive, in batch
// order, exactly as the serial driver would — so results, visited-set
// evolution and every SearchStats counter are bit-identical with pipelining
// on or off (tests/core/search_test.cpp pins this).  The time the driver
// still blocks on evaluation after speculation is reported as
// SearchStats::eval_stall_ms; it is the number to watch when sizing batches.
//
// Thread-safety contract for pipelining: children / hash / g_score / h_score
// must be safe to call concurrently with evaluate (they may not share
// unsynchronized mutable state with it).  Every in-repo problem satisfies
// this — TaskTimeEstimator and SchedulingProblem's mean-time table, the
// only shared mutable dependencies, are internally synchronized.  Set SearchOptions::pipeline = false for
// callbacks that cannot meet the contract.
//
// A* mode: when the user supplies g/h scores (cal_g_score / est_h_score in
// WLog, or native callbacks here), states are expanded best-first and any
// state whose g score already exceeds the best found feasible objective is
// pruned — valid whenever children cannot improve on their parent (the
// monotone-cost property the paper exploits: "child states configure tasks
// with better instance types and thus always generate higher cost").
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <unordered_set>
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
  /// Children never have a better objective than their parent; enables
  /// bound pruning against the incumbent.
  bool monotone_objective = false;
  /// Stop as soon as this many consecutive expansion waves bring no
  /// incumbent improvement (0 = run the full budget).
  std::size_t stale_wave_limit = 0;
  /// Overlap child generation/hashing with batch evaluation on a background
  /// thread (see the thread-safety contract above).  Results are
  /// bit-identical either way.
  bool pipeline = true;
  /// Cap on the dedup (visited) set: 0 = unlimited; otherwise the oldest
  /// hashes are evicted FIFO once the cap is reached, so million-state runs
  /// hold O(max_visited) memory.  A re-generated evicted state is treated as
  /// new (re-evaluated) — a work/memory trade, counted in
  /// SearchStats::visited_evicted.  Size to max_states * branching to make
  /// eviction a pure safety valve.
  std::size_t max_visited = 0;
  /// Optional per-solve budget (borrowed, may be null).  Checked at wave
  /// boundaries and inside the speculative generation loop; a fired budget
  /// discards the partially evaluated wave and returns the incumbent as an
  /// anytime result (SearchResult::budget).  A budget that never fires is
  /// behavior-neutral: checkpoints only read, so results stay bit-identical
  /// to an unbudgeted run.
  util::BudgetTracker* budget = nullptr;
};

/// Search-effort accounting, filled identically by both the breadth-first
/// and the A* path (tests/core/search_test.cpp pins the invariants):
///   * every evaluated state is counted in states_evaluated;
///   * states_expanded counts states whose children were generated
///     (evaluated minus pruned, minus states cut off by budget/early stop);
///   * states_pruned counts bound-pruned states (generic: post-evaluation
///     bound prune; A*: additionally pop-time incumbent pruning);
///   * duplicate_hits counts children rejected by the visited set;
///   * visited_evicted counts hashes dropped by the max_visited FIFO cap;
///   * eval_stall_ms is the time the driver spent blocked on batch
///     evaluation (with pipelining: after speculative child generation ran
///     out of overlap work; without: the whole evaluate call).
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

template <typename State>
struct SearchCallbacks {
  std::function<std::vector<State>(const State&)> children;
  std::function<std::uint64_t(const State&)> hash;
  std::function<std::vector<Scored>(std::span<const State>)> evaluate;
  /// A* heuristics; both null selects the generic search.
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

/// Dedup set with an optional FIFO capacity bound: past the cap, the oldest
/// inserted hash is evicted for every new one.  Eviction order is a pure
/// function of insertion order, so bounded runs stay deterministic.
///
/// `track_order` keeps the insertion-order ring even for unbounded sets so a
/// memory budget can later shrink_to() them; unbudgeted unbounded sets skip
/// the ring entirely (identical to the pre-budget behavior).
class VisitedSet {
 public:
  explicit VisitedSet(std::size_t capacity, bool track_order = false)
      : capacity_(capacity), track_order_(track_order) {}

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
  std::size_t capacity() const { return capacity_; }

  /// Approximate resident bytes: hash-set nodes (bucket array + node heap
  /// allocations, ~40 B per entry on mainstream libstdc++) plus the ring.
  std::size_t bytes() const {
    return set_.size() * 40 + ring_.capacity() * sizeof(std::uint64_t);
  }

  /// Memory-pressure degradation: FIFO-evicts the oldest hashes until at
  /// most `new_capacity` remain and caps the set there.  Requires insertion
  /// order (a bounded set, or track_order) — otherwise a no-op.  Evictions
  /// count into evicted(); dedup afterwards is exactly what a set built with
  /// the smaller cap would do from this point on.
  void shrink_to(std::size_t new_capacity) {
    new_capacity = std::max<std::size_t>(new_capacity, 1);
    if (capacity_ == 0 && !track_order_) return;  // no order to evict by
    // Linearize oldest-first: a wrapped bounded ring starts at head_; an
    // unwrapped or unbounded ring is already in insertion order.
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
  std::size_t capacity_;
  bool track_order_;
  std::unordered_set<std::uint64_t> set_;
  std::vector<std::uint64_t> ring_;  // insertion order, reused circularly
  std::size_t head_ = 0;
  std::size_t evicted_ = 0;
};

/// Wave-boundary budget service, shared by both drivers.  Publishes the
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

/// Finalizes SearchResult::budget and clears the visited gauge (the set dies
/// with the driver's stack frame).
inline util::SolveReport finish_budget(util::BudgetTracker* budget,
                                       std::size_t states_evaluated) {
  if (budget == nullptr) return {};
  const util::SolveReport report = budget->report(states_evaluated);
  budget->set_bytes(util::BudgetTracker::Component::kVisited, 0);
  return report;
}

/// One wave's speculative products: children and their hashes (A* adds f
/// scores), generated while the wave's evaluation is in flight.
template <typename State>
struct Speculation {
  std::vector<std::vector<State>> children;
  std::vector<std::vector<std::uint64_t>> hashes;
  std::vector<std::vector<double>> f_scores;  // A* only
};

/// Evaluates `batch`, overlapping cb.children / cb.hash (and f scoring when
/// `f_of` is non-null) with the evaluation when options.pipeline is set.
/// Returns the scores; fills `spec` with the batch's speculative children.
/// Stall time — the wait on the evaluation after speculation finished — is
/// accumulated into `stall_ms`.
template <typename State, typename FScore>
std::vector<Scored> evaluate_wave(const SearchCallbacks<State>& cb,
                                  const SearchOptions& options,
                                  const std::vector<State>& batch,
                                  const FScore* f_of, Speculation<State>& spec,
                                  double& stall_ms) {
  using clock = std::chrono::steady_clock;
  spec.children.assign(batch.size(), {});
  spec.hashes.assign(batch.size(), {});
  spec.f_scores.assign(batch.size(), {});
  if (!options.pipeline) {
    const auto t0 = clock::now();
    std::vector<Scored> scores =
        cb.evaluate(std::span<const State>(batch));
    stall_ms +=
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    return scores;
  }
  std::future<std::vector<Scored>> pending = std::async(
      std::launch::async,
      [&cb, &batch] { return cb.evaluate(std::span<const State>(batch)); });
  bool speculation_cut = false;
  try {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // A fired budget ends speculation: the wave is about to be discarded,
      // so generating more children is wasted work.  The evaluation is still
      // drained below (it observes the same budget through its own
      // checkpoints), keeping the background thread's exit clean.
      if (options.budget != nullptr && options.budget->should_stop()) {
        speculation_cut = true;
        break;
      }
      spec.children[i] = cb.children(batch[i]);
      auto& hashes = spec.hashes[i];
      hashes.reserve(spec.children[i].size());
      for (const State& child : spec.children[i]) {
        hashes.push_back(cb.hash(child));
      }
      if (f_of != nullptr) {
        auto& fs = spec.f_scores[i];
        fs.reserve(spec.children[i].size());
        for (const State& child : spec.children[i]) {
          fs.push_back((*f_of)(child));
        }
      }
    }
  } catch (...) {
    // The in-flight evaluation borrows `batch`; never unwind past it.
    pending.wait();
    throw;
  }
  const auto t0 = clock::now();
  // Rethrows a BudgetExhaustedError raised inside the evaluation on the
  // driver thread — the cancellation path out of the background evaluation.
  std::vector<Scored> scores = pending.get();
  stall_ms +=
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  if (speculation_cut) {
    // The evaluation finished between budget checkpoints, but speculation is
    // incomplete; committing a partial wave would diverge from the serial
    // driver, so the cut wave is abandoned wholesale.
    throw util::BudgetExhaustedError(options.budget->trigger());
  }
  return scores;
}

}  // namespace detail

/// Breadth-first generic search with batched, pipelined evaluation
/// (Algorithm 2).
template <typename State>
SearchResult<State> generic_search(const State& initial,
                                   const SearchCallbacks<State>& cb,
                                   const SearchOptions& options) {
  DECO_OBS_SPAN("search", "generic_search");
  const auto t0 = std::chrono::steady_clock::now();
  SearchResult<State> result;
  const bool meter_memory =
      options.budget != nullptr && options.budget->active() &&
      options.budget->memory_budget() > 0;
  detail::VisitedSet visited(options.max_visited, meter_memory);
  const std::size_t visited_floor =
      std::max<std::size_t>(options.batch_size, 64);
  std::queue<State> frontier;
  frontier.push(initial);
  visited.insert(cb.hash(initial));

  double bound = options.minimize ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
  std::size_t stale_waves = 0;
  detail::Speculation<State> spec;

  while (!frontier.empty() &&
         result.stats.states_evaluated < options.max_states) {
    if (detail::service_budget(options.budget, visited, visited_floor)) break;
    // Pull one batch off the FIFO queue.
    std::vector<State> batch;
    while (!frontier.empty() && batch.size() < options.batch_size &&
           result.stats.states_evaluated + batch.size() < options.max_states) {
      batch.push_back(std::move(frontier.front()));
      frontier.pop();
    }
    // Child generation for this wave overlaps its evaluation (no f scoring
    // in breadth-first mode).
    const std::function<double(const State&)>* no_f = nullptr;
    std::vector<Scored> scores;
    try {
      scores = detail::evaluate_wave(cb, options, batch, no_f, spec,
                                     result.stats.eval_stall_ms);
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
      if (s.feasible &&
          (!result.best || detail::better(s.objective, bound, options.minimize))) {
        result.best = batch[i];
        result.best_score = s;
        bound = s.objective;
        improved = true;
      }
      // Bound prune: with a monotone objective, a state already worse than
      // the incumbent cannot lead to a better feasible descendant.  Its
      // speculative children are simply dropped.
      if (options.monotone_objective && result.best &&
          !detail::better(s.objective, bound, options.minimize)) {
        ++result.stats.states_pruned;
        continue;
      }
      ++result.stats.states_expanded;
      if (!options.pipeline) {
        spec.children[i] = cb.children(batch[i]);
        spec.hashes[i].clear();
        for (const State& child : spec.children[i]) {
          spec.hashes[i].push_back(cb.hash(child));
        }
      }
      for (std::size_t c = 0; c < spec.children[i].size(); ++c) {
        if (visited.insert(spec.hashes[i][c])) {
          frontier.push(std::move(spec.children[i][c]));
        } else {
          ++result.stats.duplicate_hits;
        }
      }
    }
    stale_waves = improved ? 0 : stale_waves + 1;
    if (options.stale_wave_limit > 0 && result.best &&
        stale_waves >= options.stale_wave_limit) {
      break;
    }
  }
  result.stats.visited_evicted = visited.evicted();
  result.stats.elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  result.budget =
      detail::finish_budget(options.budget, result.stats.states_evaluated);
  detail::record_search_metrics("search.generic_ms", result.stats);
  return result;
}

/// Best-first A* search using the user's g/h scores for ordering + pruning.
template <typename State>
SearchResult<State> astar_search(const State& initial,
                                 const SearchCallbacks<State>& cb,
                                 const SearchOptions& options) {
  DECO_OBS_SPAN("search", "astar_search");
  const auto t0 = std::chrono::steady_clock::now();
  SearchResult<State> result;

  struct Entry {
    State state;
    double f;
  };
  const double sign = options.minimize ? 1.0 : -1.0;
  auto worse = [sign](const Entry& a, const Entry& b) {
    return sign * a.f > sign * b.f;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> open(worse);
  const bool meter_memory =
      options.budget != nullptr && options.budget->active() &&
      options.budget->memory_budget() > 0;
  detail::VisitedSet visited(options.max_visited, meter_memory);
  const std::size_t visited_floor =
      std::max<std::size_t>(options.batch_size, 64);

  auto f_of = [&](const State& s) {
    const double g = cb.g_score ? cb.g_score(s) : 0;
    const double h = cb.h_score ? cb.h_score(s) : 0;
    return g + h;
  };
  // The g/h scorers may themselves observe the budget (e.g. WLog
  // interpreters); a cut before the first state is scored yields an empty
  // anytime result rather than an escaping exception.
  bool budget_cut = false;
  try {
    open.push(Entry{initial, f_of(initial)});
  } catch (const util::BudgetExhaustedError&) {
    budget_cut = true;
  }
  visited.insert(cb.hash(initial));

  double bound = options.minimize ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
  std::size_t stale_waves = 0;
  detail::Speculation<State> spec;

  while (!budget_cut && !open.empty() &&
         result.stats.states_evaluated < options.max_states) {
    if (detail::service_budget(options.budget, visited, visited_floor)) break;
    std::vector<State> batch;
    while (!open.empty() && batch.size() < options.batch_size &&
           result.stats.states_evaluated + batch.size() < options.max_states) {
      Entry e = open.top();
      open.pop();
      // Prune against the incumbent: "by not placing the states with high g
      // and h scores into the candidate list".
      if (result.best && !detail::better(e.f, bound, options.minimize)) {
        ++result.stats.states_pruned;
        continue;
      }
      batch.push_back(std::move(e.state));
    }
    if (batch.empty()) break;
    // Child generation, hashing and f-scoring for this wave overlap its
    // evaluation.
    std::vector<Scored> scores;
    try {
      scores = detail::evaluate_wave(cb, options, batch, &f_of, spec,
                                     result.stats.eval_stall_ms);
    } catch (const util::BudgetExhaustedError&) {
      break;  // anytime cut — the incumbent stands, the wave is discarded
    }
    result.stats.states_evaluated += batch.size();
    ++result.stats.waves;
    bool improved = false;

    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Scored& s = scores[i];
      if (s.feasible &&
          (!result.best || detail::better(s.objective, bound, options.minimize))) {
        result.best = batch[i];
        result.best_score = s;
        bound = s.objective;
        improved = true;
      }
      ++result.stats.states_expanded;
      if (!options.pipeline) {
        try {
          spec.children[i] = cb.children(batch[i]);
          spec.hashes[i].clear();
          spec.f_scores[i].clear();
          for (const State& child : spec.children[i]) {
            spec.hashes[i].push_back(cb.hash(child));
            spec.f_scores[i].push_back(f_of(child));
          }
        } catch (const util::BudgetExhaustedError&) {
          // Incumbent updates up to here stand; the rest of the wave's
          // children are dropped and the search ends anytime-style.
          budget_cut = true;
          break;
        }
      }
      for (std::size_t c = 0; c < spec.children[i].size(); ++c) {
        if (visited.insert(spec.hashes[i][c])) {
          const double f = spec.f_scores[i][c];
          if (result.best && options.monotone_objective &&
              !detail::better(f, bound, options.minimize)) {
            ++result.stats.states_pruned;
            continue;
          }
          open.push(Entry{std::move(spec.children[i][c]), f});
        } else {
          ++result.stats.duplicate_hits;
        }
      }
    }
    stale_waves = improved ? 0 : stale_waves + 1;
    if (options.stale_wave_limit > 0 && result.best &&
        stale_waves >= options.stale_wave_limit) {
      break;
    }
  }
  result.stats.visited_evicted = visited.evicted();
  result.stats.elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  result.budget =
      detail::finish_budget(options.budget, result.stats.states_evaluated);
  detail::record_search_metrics("search.astar_ms", result.stats);
  return result;
}

}  // namespace deco::core
