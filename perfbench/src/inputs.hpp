// Seeded input generation. Everything a daemon receives is derived here
// from the workload seed; the same seed always yields the same inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "loadgen.hpp"
#include "scenario/sweep.hpp"

namespace perfbench {

/// Registered sweeps with an extra "seed" axis of `seeds` (and, when
/// `replications` is set, the base replication count overridden).
std::vector<preempt::scenario::SweepSpec> seeded_sweeps(const std::vector<std::string>& names,
                                                        const std::vector<std::uint64_t>& seeds,
                                                        std::optional<std::size_t> replications);
/// Expand every sweep and concatenate the cells, scenario-major.
std::vector<preempt::scenario::ScenarioSpec> expand_all(
    const std::vector<preempt::scenario::SweepSpec>& sweeps);

/// Seeds of a workload's seed axis.
std::vector<std::uint64_t> seed_axis(std::uint64_t seed, std::size_t count);

/// Share of cells whose ground-truth law was already built by an earlier
/// cell (the property a lifetime-law cache would exploit).
double law_repeat_frac(const std::vector<preempt::scenario::ScenarioSpec>& cells);

/// A tiny POST /v1/bags body and the scenario cell the daemon runs for it.
struct TinyBag {
  std::string body;
  preempt::scenario::ScenarioSpec cell;
};
TinyBag tiny_bag(std::uint64_t seed);

/// What the control-traffic generator may reference.
struct MixContext {
  std::vector<double> mix;  ///< weight per Route
  /// Done job ids per server (bag_get / bag_list targets).
  std::vector<std::vector<std::uint64_t>> done_ids;
  std::size_t list_limit = 20;
  std::vector<double> lifetimes;  ///< seeded campaign lifetimes (hours)
};

/// Route weights from a workloads.json "mix" object.
std::vector<double> mix_weights(const preempt::JsonValue& mix);

/// Lifetimes of a seeded measurement campaign across all regimes.
std::vector<double> campaign_lifetimes(std::uint64_t seed, std::size_t count);

/// `count` requests drawn from the mix, due on a Poisson schedule at
/// `rate_rps`. Servers are chosen round-robin.
std::vector<Request> control_requests(const MixContext& ctx, std::size_t count, double rate_rps,
                                      std::uint64_t seed, std::size_t servers);

/// One request of the given route (route-coverage requests of the traced run).
Request make_request(int route, const MixContext& ctx, std::uint64_t seed, std::size_t server);

/// Write a JSONL job journal of `jobs` finished bag jobs (submit, running and
/// done events per job, as a live daemon journals them).
void write_seeded_journal(const std::string& path, std::size_t jobs, std::uint64_t seed);

}  // namespace perfbench
