// The three workloads and the control-traffic measurement they share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/service_daemon.hpp"
#include "bench.hpp"
#include "inputs.hpp"

namespace perfbench {

/// Constants of the bench. workloads.json records only the rates, ladders,
/// limits and bounds, and what differs per workload.
inline constexpr std::size_t kConnections = 4;   ///< client connections (capped at nproc)
inline constexpr std::size_t kSetupReps = 15;    ///< set-ups per run (median setup_s)
inline constexpr double kWarmupS = 0.5;          ///< unmeasured warm-up of control traffic
/// The fixed-rate phase runs in this many slices, with the workload's other
/// measured work (tiny bags, sharded rounds) between them, so that a burst
/// of noise from the machine's other tenants lands in one slice of each
/// figure rather than in the whole of one.
inline constexpr std::size_t kSlices = 8;
inline constexpr std::size_t kWorkers = 2;       ///< worker daemons of a sweep workload
inline constexpr std::size_t kShards = 4;        ///< coordinator shards
inline constexpr double kRoundsPerSecond = 0.8;  ///< sharded rounds per --seconds
inline constexpr std::size_t kJournalJobs = 1000;      ///< control-plane seeded journal
inline constexpr std::size_t kMaxFinishedJobs = 4096;  ///< control-plane store cap
inline constexpr std::size_t kTraceRequests = 1500;    ///< traced requests per pass
inline constexpr std::size_t kTraceTinyCells = 64;     ///< control-plane traced cells
inline constexpr double kTraceFixedS = 3.0;  ///< fixed-rate phase of the traced run

/// How a control-traffic phase is measured.
struct PhasePlan {
  double fixed_share;        ///< fixed-rate phase, as a share of --seconds
  double rung_s;             ///< ladder rung length ...
  double rung_min_requests;  ///< ... but at least this many requests
  std::size_t window_requests;  ///< requests per p99 window
};
/// The decision traffic of control-plane, and the result-serving traffic of
/// the sweep workloads, whose runs spend most of --seconds on sharded rounds.
inline constexpr PhasePlan kControlPlan{0.5, 0.3, 4000, 2000};
inline constexpr PhasePlan kServingPlan{0.3, 0.4, 1000, 1000};

/// A workload's control traffic, as recorded in workloads.json.
struct Traffic {
  double offered_rps = 0.0;
  std::vector<double> ladder_rps;
  double p99_limit_ms = 0.0;
  std::vector<double> mix;  ///< weight per Route
  std::size_t list_limit = 0;
  PhasePlan plan = kControlPlan;
};

struct Context {
  Args args;
  Traffic traffic;
  double lag_bound_ms = 0.0;
  double trace_gap_bound = 0.0;
  /// Sweep workloads: registered scenarios on a seed axis of `seeds`, with
  /// the base replication count overridden when `replications` is set.
  std::vector<std::string> scenarios;
  std::size_t seeds = 0;
  std::optional<std::size_t> replications;
};

/// In-process answer for a request sent to server `server` (reuse checks).
using InProcess = std::function<preempt::api::HttpResponse(std::size_t server,
                                                           const preempt::api::HttpRequest&)>;

struct ControlFigures {
  double p50_ms = 0.0;
  double cpu_us = 0.0;  ///< process CPU time per request at the fixed rate
  double p99_ms = 0.0;
  double max_rps = 0.0;
  double lag_p99_ms = 0.0;
  std::size_t backlog_max = 0;
};

/// Open-loop control traffic against `ports`: a warm-up, `fixed_s` seconds
/// at the workload's offered rate in kSlices slices (ctl_cpu_us, ctl_p50_ms,
/// ctl_p99_ms, loadgen lag; `between`, when set, runs after each slice) and, when
/// `ladder` is set, the rate ladder (ctl_max_rps). Every response must
/// be 2xx JSON; reuse decisions must equal the in-process answer. The
/// traffic may submit at most `bag_budget` bags (the store's headroom: more
/// would evict the finished jobs it reads back). Counts requests and
/// failures into `result`.
ControlFigures measure_control(const Context& ctx, const MixContext& mix,
                               const std::vector<std::uint16_t>& ports, const InProcess& in_process,
                               double fixed_s, bool ladder, std::size_t bag_budget,
                               RunResult& result, const std::function<void()>& between = {});

/// Construct daemons kSetupReps times, keeping the last set. setup_s is the
/// median of the process CPU time of one set-up (the wall times go to the
/// result file). `make` builds and starts one set and returns it once /healthz
/// answered.
template <class Set>
std::unique_ptr<Set> timed_setup(const std::function<void()>& prepare,
                                 const std::function<std::unique_ptr<Set>()>& make,
                                 RunResult& result) {
  std::vector<double> times, cpu;
  std::unique_ptr<Set> set;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    set.reset();
    prepare();
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    set = make();
    times.push_back(seconds_since(t0));
    cpu.push_back(cpu_seconds() - cpu0);
  }
  result.metric("setup_s", median(cpu), "s");
  preempt::JsonArray all_cpu, all_wall;
  for (double t : cpu) all_cpu.emplace_back(t);
  for (double t : times) all_wall.emplace_back(t);
  result.detail("setup_s_all", std::move(all_cpu));
  result.detail("setup_wall_s_all", std::move(all_wall));
  return set;
}

/// Client connections per server: kConnections capped at nproc, split
/// over the servers (at least one each).
std::size_t connections_per_server(std::size_t servers);

/// The generator's view of the workload's traffic (targets filled in by the
/// caller).
MixContext mix_context(const Context& ctx);

/// Poll /healthz on `port` until it answers 200 (throws after 30 s).
void wait_healthy(std::uint16_t port);

/// A GET request for ServiceDaemon::handle (in-process, no socket).
preempt::api::HttpRequest get_request(const std::string& target);

/// Ids of every done job on a daemon, via its own listing route.
std::vector<std::uint64_t> done_job_ids(preempt::api::ServiceDaemon& daemon);

int run_control_plane(const Context& ctx, RunResult& result);
/// sweep-mc and fleet: sharded sweep rounds plus result-serving traffic.
int run_sweep_workload(const Context& ctx, RunResult& result);
/// The traced per-layer run of any workload.
int run_traced(const Context& ctx, RunResult& result);

/// Cells of a sweep workload (sweep-mc, fleet) for the given seed.
std::vector<preempt::scenario::SweepSpec> workload_sweeps(const Context& ctx);

/// Local reference: scenario::run of every cell (in parallel), rendered as
/// the sweep report the coordinator's merge must reproduce byte for byte.
std::string reference_report(const std::vector<preempt::scenario::ScenarioSpec>& cells);

}  // namespace perfbench
