// Benchmark-side spans: named intervals the benchmark records around its own
// calls into the engine.  Every span carries the id of the request it belongs
// to and the id of the span that encloses it (0 at the top of a request), so
// the traced run can write the span tree and check that the top-level spans
// cover each request's wall-clock time.
//
// Timestamps use obs::TraceCollector::now_us(), the clock of the engine's own
// trace events, so engine events can be placed under the benchmark span that
// contains them.  Single-threaded: only the client thread opens spans.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace planbench {

struct Span {
  std::string name;
  std::string source;  ///< "bench" or "obs" (an engine trace event)
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0: top level of its request
  std::uint64_t request = 0;  ///< 0: outside any request (set-up)
  std::uint32_t tid = 0;
  double start_us = 0;
  double dur_us = 0;
};

class SpanLog {
 public:
  /// Spans opened from now on belong to `request`.
  void set_request(std::uint64_t request) { request_ = request; }

  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(const char* name);
  /// Closes span `index` (the innermost open one); returns its duration, ms.
  double close(std::size_t index);

  /// Files the engine's trace events recorded during `request`: each gets the
  /// innermost benchmark span that contains it as parent.  At most `cap`
  /// events are kept over the whole run; the rest are only counted.
  void adopt(std::span<const deco::obs::TraceEvent> events,
             std::uint64_t request, std::size_t cap);

  /// Benchmark spans (and adopted events) in record order.
  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration (ms) of the spans named `name` in `request`, which must
  /// be the latest request logged.
  double total_ms(std::uint64_t request, const std::string& name) const;
  /// Summed duration (ms) of the top-level benchmark spans of `request`
  /// (the latest request logged).
  double top_level_ms(std::uint64_t request) const;

  /// Drops the spans of `request`, the latest request logged.
  void drop_request(std::uint64_t request);

  /// Writes the span tree as JSON.
  void write(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  ///< indices of open spans, innermost last
  std::uint64_t request_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t adopted_ = 0;
  std::size_t dropped_ = 0;
};

/// RAII span: opened at construction, closed at close() or destruction (so an
/// exception inside the measured call still closes it).
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name)
      : log_(&log), index_(log.open(name)) {}
  ~SpanScope() {
    if (!closed_) log_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Closes the span now; returns its duration in milliseconds.
  double close() {
    closed_ = true;
    return log_->close(index_);
  }

 private:
  SpanLog* log_;
  std::size_t index_;
  bool closed_ = false;
};

}  // namespace planbench
