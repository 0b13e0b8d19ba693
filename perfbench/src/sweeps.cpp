// sweep-mc and fleet: a researcher's sweep scattered by the shard
// coordinator over in-process worker daemons (journals on), repeated for a
// fixed number of rounds; then the result-serving control traffic a
// researcher sends while reading those results back.
#include <atomic>
#include <mutex>
#include <filesystem>
#include <thread>

#include "api/http_client.hpp"
#include "common/error.hpp"
#include "scenario/runner.hpp"
#include "shard/coordinator.hpp"
#include "workloads.hpp"

namespace perfbench {

using preempt::JsonArray;
using preempt::JsonValue;
namespace api = preempt::api;
namespace scenario = preempt::scenario;

std::vector<scenario::SweepSpec> workload_sweeps(const Context& ctx) {
  return seeded_sweeps(ctx.scenarios, seed_axis(ctx.args.seed, ctx.seeds), ctx.replications);
}

std::string reference_report(const std::vector<scenario::ScenarioSpec>& cells) {
  std::vector<scenario::ScenarioResult> results(cells.size());
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  std::exception_ptr error;
  std::mutex error_mutex;
  for (std::size_t t = 0; t < cpu_count(); ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = cursor.fetch_add(1); i < cells.size(); i = cursor.fetch_add(1)) {
        try {
          results[i] = scenario::run(cells[i]);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  scenario::SweepReport report;
  for (std::size_t i = 0; i < cells.size(); ++i) report.cells.push_back({cells[i], results[i]});
  return scenario::to_json(report).dump();
}

std::vector<std::uint64_t> done_job_ids(api::ServiceDaemon& daemon) {
  std::vector<std::uint64_t> ids;
  for (std::size_t offset = 0;; offset += 1000) {
    const JsonValue page = preempt::parse_json(
        daemon.handle(get_request("/v1/bags?status=done&limit=1000&offset=" + std::to_string(offset)))
            .body);
    const JsonArray& jobs = page.find("jobs")->as_array();
    for (const JsonValue& job : jobs) ids.push_back(static_cast<std::uint64_t>(job.number_or("id", 0)));
    if (jobs.size() < 1000) break;
  }
  return ids;
}

namespace {

struct Workers {
  std::vector<std::unique_ptr<api::ServiceDaemon>> daemons;
  std::vector<std::uint16_t> ports() const {
    std::vector<std::uint16_t> out;
    for (const auto& d : daemons) out.push_back(d->port());
    return out;
  }
};

}  // namespace

int run_sweep_workload(const Context& ctx, RunResult& result) {
  const std::string& name = ctx.args.workload;
  const std::vector<scenario::ScenarioSpec> cells = expand_all(workload_sweeps(ctx));
  const std::string reference = reference_report(cells);
  result.detail("cells", cells.size());
  result.detail("dist.law_repeat_frac", law_repeat_frac(cells));

  std::vector<std::string> journals;
  for (std::size_t k = 0; k < kWorkers; ++k) {
    journals.push_back(ctx.args.out_dir + "/" + name + "-worker" + std::to_string(k) + ".jsonl");
  }
  const std::unique_ptr<Workers> workers = timed_setup<Workers>(
      [&] {
        for (const std::string& j : journals) std::filesystem::remove(j);
      },
      [&] {
        auto set = std::make_unique<Workers>();
        for (const std::string& j : journals) {
          api::ServiceDaemon::Options o;
          o.store_path = j;
          set->daemons.push_back(std::make_unique<api::ServiceDaemon>(o));
          set->daemons.back()->start(0);
        }
        for (const auto& d : set->daemons) wait_healthy(d->port());
        return set;
      },
      result);

  preempt::shard::CoordinatorOptions co;
  co.workers = workers->ports();
  co.shards = kShards;
  co.label = name;
  /// One sharded round: its wall and process CPU time, from the first submit
  /// to the merged report (the byte comparison with the reference is not
  /// timed).
  struct RoundTime {
    double wall_s, cpu_s;
  };
  auto round = [&]() -> RoundTime {
    release_free_memory();
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    preempt::shard::ShardCoordinator coordinator(co);
    const preempt::shard::ShardOutcome outcome = coordinator.run_cells(cells);
    const RoundTime time{seconds_since(t0), cpu_seconds() - cpu0};
    const bool identical = outcome.complete && outcome.report.dump() == reference;
    result.attempt(cells.size());
    if (!identical) {
      result.fail(outcome.complete ? "merged report differs from the local scenario::run reference"
                                   : std::to_string(outcome.unfinished_cells.size()) +
                                         " cells unfinished");
    }
    return time;
  };
  round();  // warm-up

  // Sharded rounds, a slice after each slice of the result-serving traffic
  // over the warm-up round's finished jobs.
  const std::size_t rounds_per_slice = std::max<std::size_t>(
      1, static_cast<std::size_t>(kRoundsPerSecond * ctx.args.seconds / kSlices + 0.5));
  std::vector<double> per_cpu_s, rates;
  JsonArray round_s, round_cpu_s;
  const auto round_slice = [&] {
    for (std::size_t r = 0; r < rounds_per_slice; ++r) {
      const RoundTime t = round();
      round_s.emplace_back(t.wall_s);
      round_cpu_s.emplace_back(t.cpu_s);
      rates.push_back(static_cast<double>(cells.size()) / t.wall_s);
      per_cpu_s.push_back(static_cast<double>(cells.size()) / t.cpu_s);
    }
  };
  MixContext mix = mix_context(ctx);
  for (const auto& d : workers->daemons) mix.done_ids.push_back(done_job_ids(*d));
  const InProcess in_process = [&](std::size_t server, const api::HttpRequest& request) {
    return workers->daemons.at(server)->handle(request);
  };
  const ControlFigures fig =
      measure_control(ctx, mix, workers->ports(), in_process,
                      ctx.traffic.plan.fixed_share * ctx.args.seconds, false, 0, result,
                      round_slice);
  result.detail("rounds_s", std::move(round_s));
  result.detail("rounds_cpu_s", std::move(round_cpu_s));

  result.metric("rss_peak_mb", rss_peak_mb(), "MB");
  result.metric("ctl_cpu_us", fig.cpu_us, "us");
  result.metric("cells_per_cpu_s", median(per_cpu_s), "cells/cpu-s");
  result.detail("ctl_p50_ms", fig.p50_ms);
  result.detail("cells_per_s", median(rates));
  result.detail("ctl_p99_ms", fig.p99_ms);
  result.detail("loadgen.lag_p99_ms", fig.lag_p99_ms);
  for (const auto& d : workers->daemons) d->stop();
  return 0;
}

}  // namespace perfbench
