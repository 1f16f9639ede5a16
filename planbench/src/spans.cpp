#include "spans.hpp"

#include <ostream>
#include <stdexcept>

namespace planbench {

std::size_t SpanLog::open(const char* name) {
  Span span;
  span.name = name;
  span.source = "bench";
  span.id = next_id_++;
  span.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
  span.request = request_;
  span.tid = deco::obs::current_thread_track();
  span.start_us = deco::obs::TraceCollector::now_us();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double SpanLog::close(std::size_t index) {
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("planbench: spans must close innermost first");
  }
  stack_.pop_back();
  Span& span = spans_[index];
  span.dur_us = deco::obs::TraceCollector::now_us() - span.start_us;
  return span.dur_us / 1000.0;
}

void SpanLog::adopt(std::span<const deco::obs::TraceEvent> events,
                    std::uint64_t request, std::size_t cap) {
  // The request's benchmark spans are the tail of the log.
  std::size_t first = spans_.size();
  while (first > 0 && spans_[first - 1].request == request &&
         spans_[first - 1].source == "bench") {
    --first;
  }
  const std::size_t last = spans_.size();
  for (const deco::obs::TraceEvent& event : events) {
    if (event.phase != 'X') continue;
    if (adopted_ >= cap) {
      ++dropped_;
      continue;
    }
    Span span;
    span.name = event.name;
    span.source = "obs";
    span.id = next_id_++;
    span.request = request;
    span.tid = event.tid;
    span.start_us = event.ts_us;
    span.dur_us = event.dur_us;
    // Innermost = the latest-opened benchmark span that contains the event.
    for (std::size_t i = last; i > first; --i) {
      const Span& b = spans_[i - 1];
      if (b.start_us <= event.ts_us &&
          event.ts_us + event.dur_us <= b.start_us + b.dur_us) {
        span.parent = b.id;
        break;
      }
    }
    spans_.push_back(std::move(span));
    ++adopted_;
  }
}

double SpanLog::total_ms(std::uint64_t request, const std::string& name) const {
  double us = 0;
  for (auto it = spans_.rbegin(); it != spans_.rend() && it->request == request;
       ++it) {
    if (it->source == "bench" && it->name == name) us += it->dur_us;
  }
  return us / 1000.0;
}

double SpanLog::top_level_ms(std::uint64_t request) const {
  double us = 0;
  for (auto it = spans_.rbegin(); it != spans_.rend() && it->request == request;
       ++it) {
    if (it->source == "bench" && it->parent == 0) us += it->dur_us;
  }
  return us / 1000.0;
}

void SpanLog::drop_request(std::uint64_t request) {
  if (!stack_.empty()) {
    throw std::logic_error("planbench: dropping a request with open spans");
  }
  while (!spans_.empty() && spans_.back().request == request) {
    spans_.pop_back();
  }
}

void SpanLog::write(std::ostream& out) const {
  out << "{\"clock\": \"steady, microseconds\", \"dropped_obs_events\": "
      << dropped_ << ",\n \"spans\": [";
  bool first = true;
  for (const Span& s : spans_) {
    out << (first ? "\n  " : ",\n  ") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"source\": \"" << s.source << "\", \"name\": \""
        << deco::obs::json_escape(s.name) << "\", \"tid\": " << s.tid
        << ", \"ts_us\": " << s.start_us << ", \"dur_us\": " << s.dur_us
        << "}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace planbench
