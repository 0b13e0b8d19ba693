// Shared plumbing of the end-to-end benchmark: arguments, the result record
// printed as the last stdout line, small statistics helpers and the
// environment stamp that makes two result sets comparable.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string config_path;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

/// One workload run. `attempted`/`failed` count operations (requests,
/// cells, output checks); any failure makes the run exit non-zero.
class RunResult {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Count one attempted operation.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count one failed operation and keep the first few reasons.
  void fail(const std::string& why);
  /// Invalidate the run without counting an operation (e.g. the load
  /// generator fell behind): its figures must not be read as a result.
  void invalidate(const std::string& why);
  /// Extra facts (sample counts, property shares) for the full result file.
  void detail(const std::string& key, preempt::JsonValue value);

  bool correct() const { return failed_ == 0 && valid_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t attempted() const { return attempted_; }

  /// The one-line {"correct","attempted","failed","metrics"} object.
  std::string summary_line() const;
  /// Everything, including the environment stamp and details.
  preempt::JsonValue full(const preempt::JsonValue& env) const;
  /// Human-readable metric table (stdout, before the summary line).
  void print_table(const std::string& title) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  preempt::JsonObject details_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool valid_ = true;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set of this process in MiB (getrusage).
double rss_peak_mb();

/// Return the allocator's free pages to the system (malloc_trim), between
/// phases and outside any timing. Without it the peak resident set depends
/// on which glibc arena each short-lived client thread happened to get and
/// on how fragmented those arenas were left, and swung by a third between
/// runs of the same inputs.
void release_free_memory();

/// CPU time of this process, all threads, in seconds
/// (CLOCK_PROCESS_CPUTIME_ID). On a paravirtualised guest it leaves out the
/// time the hypervisor gave the vCPUs to other tenants (steal) and the time
/// a request waits for a thread to wake. Steal moved wall-clock figures on a
/// shared host by several times from minute to minute. CPU time moves much
/// less; it still grows when a busy host runs each instruction slower.
double cpu_seconds();

/// CPU model, nproc, build type, compiler, vkernel path, git SHA and source
/// digest.
preempt::JsonValue env_stamp(const Args& args);

/// Number of online CPUs (at least 1).
std::size_t cpu_count();

/// A number of a workloads.json object; throws when missing.
double cfg_number(const preempt::JsonValue& block, const std::string& key);
/// A member of a workloads.json object; throws when missing.
const preempt::JsonValue& cfg_member(const preempt::JsonValue& block, const std::string& key);

/// Seed of the `index`-th derived input stream of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// 64-bit FNV-1a, used to compare response bodies without storing them.
std::uint64_t fnv1a(const std::string& text);

}  // namespace perfbench
