#include "inputs.hpp"

#include <cstdio>
#include <filesystem>
#include <set>

#include "api/api_client.hpp"
#include "api/job_store.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "scenario/registry.hpp"
#include "sim/workloads.hpp"
#include "trace/generator.hpp"

namespace perfbench {

using preempt::JsonArray;
using preempt::JsonObject;
using preempt::JsonValue;
namespace scenario = preempt::scenario;
namespace trace = preempt::trace;

std::vector<scenario::SweepSpec> seeded_sweeps(const std::vector<std::string>& names,
                                               const std::vector<std::uint64_t>& seeds,
                                               std::optional<std::size_t> replications) {
  std::vector<scenario::SweepSpec> out;
  for (const std::string& name : names) {
    const scenario::NamedScenario* named = scenario::find_builtin(name);
    if (named == nullptr) throw preempt::InvalidArgument("no registered scenario '" + name + "'");
    scenario::SweepSpec sweep = named->sweep;
    if (replications) sweep.base.replications = *replications;
    scenario::SweepAxis axis;
    axis.field = "seed";
    for (const std::uint64_t s : seeds) axis.values.emplace_back(static_cast<std::size_t>(s));
    sweep.axes.push_back(std::move(axis));
    out.push_back(std::move(sweep));
  }
  return out;
}

std::vector<scenario::ScenarioSpec> expand_all(const std::vector<scenario::SweepSpec>& sweeps) {
  std::vector<scenario::ScenarioSpec> cells;
  for (const scenario::SweepSpec& sweep : sweeps) {
    for (scenario::ScenarioSpec& cell : scenario::expand(sweep)) cells.push_back(std::move(cell));
  }
  return cells;
}

std::vector<std::uint64_t> seed_axis(std::uint64_t seed, std::size_t count) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(derive_seed(seed, 1000 + i) % 1000000007ULL);
  return seeds;
}

double law_repeat_frac(const std::vector<scenario::ScenarioSpec>& cells) {
  std::set<std::string> seen;
  std::size_t with_law = 0, repeats = 0;
  for (const scenario::ScenarioSpec& cell : cells) {
    const JsonValue spec = scenario::to_json(cell);
    const JsonValue* law = spec.find("ground_truth");
    if (law == nullptr) continue;  // portfolio cells build one law per market
    ++with_law;
    if (!seen.insert(law->dump()).second) ++repeats;
  }
  return with_law == 0 ? 0.0 : static_cast<double>(repeats) / static_cast<double>(with_law);
}

TinyBag tiny_bag(std::uint64_t seed) {
  static const char* const kApps[] = {"nanoconfinement", "shapes", "lulesh"};
  static const char* const kPolicies[] = {"model", "fresh", "memoryless"};
  preempt::Rng rng(seed);
  preempt::api::BagSubmission bag;
  bag.app = kApps[rng.uniform_index(3)];
  bag.jobs = 2 + rng.uniform_index(5);
  const std::uint64_t spare_vms = rng.uniform_index(3);
  bag.policy = kPolicies[rng.uniform_index(3)];
  bag.replications = rng.uniform_index(4) == 0 ? 2 : 1;
  bag.seed = rng.generator()() >> 11;

  TinyBag out;
  scenario::ScenarioSpec& cell = out.cell;
  cell.name = "tiny-bag";
  cell.kind = scenario::ScenarioKind::kService;
  cell.app = bag.app;
  cell.jobs = bag.jobs;
  cell.seed = bag.seed;
  cell.policy = *preempt::sim::reuse_policy_from_string(bag.policy);
  cell.replications = bag.replications;
  for (const preempt::sim::Workload& w : preempt::sim::all_workloads()) {
    if (w.name == bag.app) {
      // A bag needs at least one job gang's worth of VMs.
      bag.vms = static_cast<std::size_t>(w.job.gang_vms) + spare_vms;
      cell.ground_truth.regime = trace::RegimeKey{w.vm_type, trace::Zone::kUsEast1B,
                                                  trace::DayPeriod::kDay,
                                                  trace::WorkloadKind::kBatch};
    }
  }
  cell.ground_truth.source = scenario::DistributionSpec::Source::kRegime;
  cell.cluster_size = bag.vms;
  out.body = bag.to_json();
  return out;
}

std::vector<double> mix_weights(const JsonValue& mix) {
  std::vector<double> weights(kRouteCount, 0.0);
  for (const auto& [key, value] : mix.as_object()) {
    bool known = false;
    for (int r = 0; r < kRouteCount; ++r) {
      if (key == route_name(r)) {
        weights[static_cast<std::size_t>(r)] = value.as_number();
        known = true;
      }
    }
    if (!known) throw preempt::InvalidArgument("workloads.json: unknown route '" + key + "'");
  }
  return weights;
}

std::vector<double> campaign_lifetimes(std::uint64_t seed, std::size_t count) {
  std::vector<double> out;
  const auto specs = trace::all_vm_specs();
  const auto zones = trace::all_zones();
  for (std::uint64_t k = 0; out.size() < count; ++k) {
    trace::CampaignConfig config;
    config.regime.type = specs[k % specs.size()].type;
    config.regime.zone = zones[(k / specs.size()) % zones.size()];
    config.regime.period = (k / 2) % 2 == 0 ? trace::DayPeriod::kDay : trace::DayPeriod::kNight;
    config.vm_count = 100;
    config.seed = derive_seed(seed, 5000 + k);
    const trace::Dataset campaign = trace::generate_campaign(config);
    for (const auto& record : campaign.records()) out.push_back(record.lifetime_hours);
  }
  out.resize(count);
  return out;
}

namespace {

std::string fixed4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

struct RegimeText {
  std::string type, zone;
};

RegimeText pick_regime(preempt::Rng& rng) {
  const auto specs = trace::all_vm_specs();
  const auto zones = trace::all_zones();
  return {trace::to_string(specs[rng.uniform_index(specs.size())].type),
          trace::to_string(zones[rng.uniform_index(zones.size())])};
}

double pick_lifetime(preempt::Rng& rng, const std::vector<double>& lifetimes) {
  return lifetimes.empty() ? 1.0 : lifetimes[rng.uniform_index(lifetimes.size())];
}

}  // namespace

Request make_request(int route, const MixContext& ctx, std::uint64_t seed, std::size_t server) {
  preempt::Rng rng(seed);
  Request req;
  req.route = route;
  req.server = server;
  const RegimeText regime = pick_regime(rng);
  switch (route) {
    case kReuse: {
      const double age = pick_lifetime(rng, ctx.lifetimes) * rng.uniform();
      const double job = std::max(0.05, 0.5 * pick_lifetime(rng, ctx.lifetimes));
      req.target = "/v1/decisions/reuse?age=" + fixed4(age) + "&job=" + fixed4(job) +
                   "&type=" + regime.type + "&zone=" + regime.zone;
      break;
    }
    case kLifetimes:
      req.target = "/v1/lifetimes?type=" + regime.type + "&zone=" + regime.zone;
      break;
    case kModels:
      req.target = "/v1/models?type=" + regime.type + "&zone=" + regime.zone + "&period=" +
                   (rng.bernoulli(0.5) ? "day" : "night") + "&workload=" +
                   (rng.bernoulli(0.5) ? "batch" : "idle");
      break;
    case kObservations: {
      JsonArray lifetimes;
      for (int i = 0; i < 5; ++i) lifetimes.emplace_back(pick_lifetime(rng, ctx.lifetimes));
      JsonObject body;
      body.emplace_back("type", regime.type);
      body.emplace_back("zone", regime.zone);
      body.emplace_back("lifetimes", std::move(lifetimes));
      req.method = "POST";
      req.target = "/v1/observations";
      req.body = JsonValue(std::move(body)).dump();
      break;
    }
    case kBagGet: {
      const auto& ids = ctx.done_ids.at(server);
      req.target = "/v1/bags/" + std::to_string(ids.at(rng.uniform_index(ids.size())));
      break;
    }
    case kBagList: {
      const std::size_t total = ctx.done_ids.at(server).size();
      const std::size_t pages = std::max<std::size_t>(1, total / ctx.list_limit);
      req.target = "/v1/bags?status=done&limit=" + std::to_string(ctx.list_limit) +
                   "&offset=" + std::to_string(rng.uniform_index(pages) * ctx.list_limit);
      break;
    }
    case kBagSubmit:
      req.method = "POST";
      req.target = "/v1/bags";
      req.body = tiny_bag(rng.generator()()).body;
      break;
    case kMetrics:
      req.target = "/v1/metrics";
      break;
    default:
      throw preempt::InvalidArgument(std::string("no generator for route ") + route_name(route));
  }
  return req;
}

std::vector<Request> control_requests(const MixContext& ctx, std::size_t count, double rate_rps,
                                      std::uint64_t seed, std::size_t servers) {
  const std::vector<double> due = poisson_schedule(count, rate_rps, derive_seed(seed, 1));
  preempt::Rng rng(derive_seed(seed, 2));
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int route = static_cast<int>(rng.discrete(ctx.mix));
    out.push_back(make_request(route, ctx, rng.generator()(), i % servers));
    out.back().due_s = due[i];
  }
  return out;
}

void write_seeded_journal(const std::string& path, std::size_t jobs, std::uint64_t seed) {
  std::filesystem::remove(path);
  preempt::api::JobJournal journal(path);
  for (std::size_t id = 1; id <= jobs; ++id) {
    preempt::Rng rng(derive_seed(seed, 9000 + id));
    const TinyBag bag = tiny_bag(rng.generator()());
    preempt::api::BagJobRecord record;
    record.id = id;
    record.spec.app = bag.cell.app;
    record.spec.jobs = bag.cell.jobs;
    record.spec.vms = bag.cell.cluster_size;
    record.spec.seed = bag.cell.seed;
    record.spec.policy = bag.cell.policy;
    record.spec.policy_name = preempt::sim::to_string(bag.cell.policy);
    journal.append(preempt::api::make_submit_event(record));
    journal.append(preempt::api::make_running_event(id));
    record.status = preempt::api::BagJobStatus::kDone;
    preempt::sim::ServiceReport& r = record.report;
    r.jobs_completed = bag.cell.jobs;
    r.makespan_hours = rng.uniform(0.5, 12.0);
    r.ideal_makespan_hours = r.makespan_hours * rng.uniform(0.6, 1.0);
    r.increase_fraction = r.makespan_hours / r.ideal_makespan_hours - 1.0;
    r.total_cost = rng.uniform(1.0, 40.0);
    r.cost_per_job = r.total_cost / static_cast<double>(bag.cell.jobs);
    r.on_demand_cost_per_job = r.cost_per_job * rng.uniform(3.0, 5.0);
    r.cost_reduction_factor = r.on_demand_cost_per_job / r.cost_per_job;
    r.preemptions = static_cast<int>(rng.uniform_index(4));
    r.preemptions_total = r.preemptions + static_cast<int>(rng.uniform_index(3));
    r.vms_launched = static_cast<int>(bag.cell.cluster_size + rng.uniform_index(3));
    r.total_vm_hours = r.makespan_hours * static_cast<double>(bag.cell.cluster_size);
    r.wasted_hours = rng.uniform(0.0, 1.0);
    journal.append(preempt::api::make_terminal_event(record));
  }
}

}  // namespace perfbench
