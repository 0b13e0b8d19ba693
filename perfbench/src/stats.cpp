#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/vkernel.hpp"

namespace perfbench {

using preempt::JsonArray;
using preempt::JsonObject;
using preempt::JsonValue;

void RunResult::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void RunResult::fail(const std::string& why) {
  ++failed_;
  if (errors_.size() < 20) errors_.push_back(why);
  std::cerr << "perfbench: FAIL " << why << "\n";
}

void RunResult::invalidate(const std::string& why) {
  valid_ = false;
  if (errors_.size() < 20) errors_.push_back("invalid run: " + why);
  std::cerr << "perfbench: INVALID " << why << "\n";
}

void RunResult::detail(const std::string& key, JsonValue value) {
  details_.emplace_back(key, std::move(value));
}

std::string RunResult::summary_line() const {
  JsonObject metrics;
  for (const Metric& m : metrics_) {
    JsonObject entry;
    entry.emplace_back("value", std::isfinite(m.value) ? JsonValue(m.value) : JsonValue());
    entry.emplace_back("unit", m.unit);
    metrics.emplace_back(m.name, std::move(entry));
  }
  JsonObject out;
  out.emplace_back("correct", correct());
  out.emplace_back("attempted", static_cast<std::size_t>(attempted_));
  out.emplace_back("failed", static_cast<std::size_t>(failed_));
  out.emplace_back("metrics", JsonValue(std::move(metrics)));
  return JsonValue(std::move(out)).dump();
}

JsonValue RunResult::full(const JsonValue& env) const {
  JsonObject out = preempt::parse_json(summary_line()).as_object();
  out.emplace_back("err_frac", attempted_ == 0 ? 0.0
                                               : static_cast<double>(failed_) /
                                                     static_cast<double>(attempted_));
  out.emplace_back("valid", valid_);
  JsonArray errors;
  for (const std::string& e : errors_) errors.emplace_back(e);
  out.emplace_back("errors", std::move(errors));
  out.emplace_back("env", env);
  out.emplace_back("details", JsonValue(details_));
  return JsonValue(std::move(out));
}

void RunResult::print_table(const std::string& title) const {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double err = attempted_ == 0 ? 0.0
                                     : static_cast<double>(failed_) /
                                           static_cast<double>(attempted_);
  std::printf("  %-32s %16.6g %s  (%llu failed of %llu attempted)\n", "err_frac", err, "ratio",
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::fflush(stdout);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  std::size_t rank = static_cast<std::size_t>(std::ceil(clamped * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void release_free_memory() { malloc_trim(0); }

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::size_t cpu_count() { return std::max(1u, std::thread::hardware_concurrency()); }

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

JsonValue env_stamp(const Args& args) {
  JsonObject env;
  env.emplace_back("cpu_model", cpu_model());
  env.emplace_back("nproc", cpu_count());
  env.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  env.emplace_back("compiler", PERFBENCH_COMPILER);
  env.emplace_back("vkernel_path", preempt::vk::path_name(preempt::vk::active_path()));
  env.emplace_back("git_sha", args.git_sha);
  env.emplace_back("src_digest", args.src_digest);
  return JsonValue(std::move(env));
}

const JsonValue& cfg_member(const JsonValue& block, const std::string& key) {
  const JsonValue* v = block.find(key);
  if (v == nullptr) throw preempt::InvalidArgument("workloads.json: missing '" + key + "'");
  return *v;
}

double cfg_number(const JsonValue& block, const std::string& key) {
  const JsonValue& v = cfg_member(block, key);
  if (!v.is_number()) throw preempt::InvalidArgument("workloads.json: '" + key + "' is not a number");
  return v.as_number();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  // Keep derived seeds below 2^53 so they survive a JSON round trip exactly.
  return preempt::substream_seed(seed, index) >> 11;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
