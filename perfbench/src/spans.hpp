// In-memory span recorder for the traced run.
//
// A span is one call into a layer's public function: name, start, end, the
// span that caused it and a request id shared by every span of one cell or
// request. Spans are kept in memory and written out once at the end. A
// layer's self time is its spans' durations minus the time covered by their
// children; over a traced pass the self times must add up to the pass's wall
// time (the trace covers the run).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t rid = 0;     ///< request id (cell or request)
  std::string name;          ///< "<layer>.<call>"
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint32_t thread = 0;
  double count = 0.0;  ///< work items of the call (elements, draws, tasks...)

  double seconds() const { return static_cast<double>(t1_ns - t0_ns) * 1e-9; }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }
  std::uint64_t next_id() { return next_id_.fetch_add(1); }
  void add(Span span);

  /// Spans recorded since the last take().
  std::vector<Span> take();

 private:
  Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span. The parent is the innermost open span of this thread unless
/// `parent` names one explicitly (a span opened on behalf of another
/// thread's call, e.g. the server side of a client request).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::uint64_t rid,
             std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  void set_count(double count) { span_.count = count; }

 private:
  SpanRecorder& recorder_;
  Span span_;
  bool active_;
  std::uint64_t saved_current_ = 0;
};

/// Module name of a span ("router.reuse" -> "api.router").
std::string layer_of(const std::string& span_name);

struct TraceBreakdown {
  std::map<std::string, double> layer_self_s;  ///< self time per layer
  double self_sum_s = 0.0;
  double wall_s = 0.0;
  double gap_frac = 0.0;  ///< |sum of self - wall| / wall
};

/// Self-time breakdown of one traced pass of `wall_s` seconds.
TraceBreakdown breakdown(const std::vector<Span>& spans, double wall_s);

/// Append spans as JSON lines (one span per line, times in microseconds).
void write_spans(const std::string& path, const std::vector<Span>& spans, int pass);

}  // namespace perfbench
