#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_map>

#include "common/json.hpp"

namespace perfbench {

namespace {

thread_local std::uint64_t tl_current_span = 0;

std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

}  // namespace

void SpanRecorder::add(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, const char* name, std::uint64_t rid,
                       std::uint64_t parent)
    : recorder_(recorder), active_(recorder.enabled()) {
  if (!active_) return;
  span_.id = recorder_.next_id();
  span_.parent = parent != 0 ? parent : tl_current_span;
  span_.rid = rid;
  span_.name = name;
  span_.thread = thread_tag();
  saved_current_ = tl_current_span;
  tl_current_span = span_.id;
  span_.t0_ns = recorder_.now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.t1_ns = recorder_.now_ns();
  tl_current_span = saved_current_;
  recorder_.add(std::move(span_));
}

std::string layer_of(const std::string& span_name) {
  const std::string head = span_name.substr(0, span_name.find('.'));
  if (head == "router") return "api.router";
  if (head == "http") return "api.http";
  if (head == "queue") return "api.bag_queue";
  if (head == "store") return "api.job_store";
  return head;
}

TraceBreakdown breakdown(const std::vector<Span>& spans, double wall_s) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Children of one parent never overlap each other (the traced run issues
  // one call at a time), so a parent's self time is its duration minus its
  // children's, each clipped to the parent's interval.
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.t0_ns, p.t0_ns);
    const std::int64_t hi = std::min(s.t1_ns, p.t1_ns);
    if (hi > lo) self[it->second] -= static_cast<double>(hi - lo) * 1e-9;
  }
  TraceBreakdown out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // A child whose parent is missing (outside this pass) counts as a root.
    out.layer_self_s[layer_of(spans[i].name)] += self[i];
    out.self_sum_s += self[i];
  }
  out.wall_s = wall_s;
  out.gap_frac = wall_s > 0.0 ? std::fabs(out.self_sum_s - wall_s) / wall_s : 1.0;
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans, int pass) {
  std::ofstream out(path, std::ios::app);
  for (const Span& s : spans) {
    preempt::JsonObject obj;
    obj.emplace_back("pass", pass);
    obj.emplace_back("id", static_cast<std::size_t>(s.id));
    obj.emplace_back("parent", static_cast<std::size_t>(s.parent));
    obj.emplace_back("rid", static_cast<std::size_t>(s.rid));
    obj.emplace_back("name", s.name);
    obj.emplace_back("layer", layer_of(s.name));
    obj.emplace_back("t0_us", static_cast<double>(s.t0_ns) * 1e-3);
    obj.emplace_back("t1_us", static_cast<double>(s.t1_ns) * 1e-3);
    obj.emplace_back("thread", static_cast<std::size_t>(s.thread));
    obj.emplace_back("count", s.count);
    out << preempt::JsonValue(std::move(obj)).dump() << "\n";
  }
}

}  // namespace perfbench
