// The traced run: the workload's generated inputs fed one call at a time
// through each layer's public functions, with one span per call.
//
// A traced pass has four parts, all on the inputs of the workload's seed:
//   cells     every cell through a bench-owned BagJobQueue (one worker):
//             parse, law build, the kind's compute calls (CheckpointDp,
//             simulate_plan, run_service, simulate_fleet, ...), render and
//             a JobJournal append per cell;
//   shard     partition_cells, shard bodies, adopt and merge_report of those
//             cells; the merged report must equal the scenario::run reference;
//   requests  the workload's control traffic, one request at a time over a
//             keep-alive HttpConnection to a bench-owned HttpServer whose
//             handler times ServiceDaemon::handle (router span inside the
//             http span); routes the mix lacks get a few coverage requests;
//   probes    vkernel batch kernels, sample_many per law, sample_many_parallel,
//             plus the compute layers the workload's cells do not reach
//             (checkpoint DP, a service cell, a fleet cell) on seeded inputs,
//             journal compaction and replay.
// Untraced and traced passes alternate until --seconds is used; their wall
// ratio is trace.overhead_frac. Before the passes, one sharded round through
// the coordinator (untraced) gives the shard.* metrics and a short open-loop
// phase gives the loadgen.* metrics.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "api/http_client.hpp"
#include "api/http_server.hpp"
#include "api/job_store.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/vkernel.hpp"
#include "fleet/simulation.hpp"
#include "mc/engine.hpp"
#include "policy/checkpoint.hpp"
#include "policy/checkpoint_sim.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "shard/coordinator.hpp"
#include "shard/partition.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using preempt::JsonArray;
using preempt::JsonObject;
using preempt::JsonValue;
namespace api = preempt::api;
namespace scenario = preempt::scenario;

namespace {

constexpr std::size_t kVkBatch = 256;     // the sample_many block size
constexpr std::size_t kVkCalls = 2048;    // batch calls per vkernel probe
constexpr std::size_t kDraws = 1 << 20;   // sample_many probe size (1 thread)
constexpr std::size_t kParallelDraws = 1 << 22;
constexpr std::uint64_t kRequestRid = 1000000;

const char* route_span(const api::HttpRequest& req) {
  const std::string path = req.path();
  if (path == "/v1/decisions/reuse") return "router.reuse";
  if (path == "/v1/lifetimes") return "router.lifetimes";
  if (path == "/v1/models") return "router.models";
  if (path == "/v1/observations") return "router.observations";
  if (path == "/v1/bags") return req.method == "POST" ? "router.bag_submit" : "router.bag_list";
  if (path.rfind("/v1/bags/", 0) == 0) return "router.bag_get";
  if (path == "/v1/metrics") return "router.metrics";
  if (path == "/v1/scenarios/run") return "router.run_cells";
  return "router.other";
}

/// Daemons served by bench-owned HttpServers whose handler records the
/// router span of each request (the same handle() ServiceDaemon::start
/// serves).
struct TracedDaemons {
  SpanRecorder* recorder = nullptr;
  std::atomic<std::uint64_t> client_span{0};
  std::atomic<std::uint64_t> rid{0};
  std::vector<std::unique_ptr<api::ServiceDaemon>> daemons;
  std::vector<std::unique_ptr<api::HttpServer>> servers;

  void serve() {
    for (std::size_t k = 0; k < daemons.size(); ++k) {
      servers.push_back(std::make_unique<api::HttpServer>());
      api::ServiceDaemon* daemon = daemons[k].get();
      servers.back()->start([this, daemon](const api::HttpRequest& req) {
        const ScopedSpan span(*recorder, route_span(req), rid.load(), client_span.load());
        return daemon->handle(req);
      });
    }
  }
  std::vector<std::uint16_t> ports() const {
    std::vector<std::uint16_t> out;
    for (const auto& s : servers) out.push_back(s->port());
    return out;
  }
  ~TracedDaemons() {
    for (auto& s : servers) s->stop();
  }
};

/// The cell's compute through the same public calls scenario::run makes,
/// one span per call.
scenario::ScenarioResult compute_cell(SpanRecorder& rec, std::uint64_t rid,
                                      const scenario::ScenarioSpec& spec) {
  scenario::ScenarioResult result;
  result.kind = spec.kind;
  if (spec.kind == scenario::ScenarioKind::kPortfolio ||
      (spec.kind == scenario::ScenarioKind::kFleet && spec.replications > 1)) {
    ScopedSpan s(rec, spec.kind == scenario::ScenarioKind::kPortfolio ? "portfolio.run"
                                                                       : "fleet.run_replicated",
                 rid);
    s.set_count(static_cast<double>(spec.replications));
    return scenario::run(spec);
  }
  preempt::dist::DistributionPtr truth;
  preempt::dist::DistributionPtr decision;
  {
    const ScopedSpan s(rec, "dist.law_build", rid);
    truth = scenario::make_ground_truth(spec);
    if (spec.kind == scenario::ScenarioKind::kService) {
      decision = scenario::make_decision_model(spec, *truth);
    }
  }
  switch (spec.kind) {
    case scenario::ScenarioKind::kService: {
      ScopedSpan s(rec, "sim.run_service", rid);
      s.set_count(static_cast<double>(spec.replications));
      return scenario::run_service(spec, *truth, *decision);
    }
    case scenario::ScenarioKind::kCheckpoint: {
      const preempt::policy::CheckpointConfig cfg = scenario::checkpoint_config(spec);
      preempt::policy::CheckpointPlan plan;
      if (spec.scheduler == "dp") {
        const ScopedSpan s(rec, "policy.dp", rid);
        const preempt::policy::CheckpointDp dp(*truth, spec.job_hours, cfg);
        plan.checkpoint_cost_hours = cfg.checkpoint_cost_hours;
        plan.work_segments_hours = dp.schedule_partial(spec.job_hours, spec.start_age_hours);
      } else if (spec.scheduler == "young-daly") {
        plan = preempt::policy::young_daly_plan(spec.job_hours, spec.mttf_hours,
                                                cfg.checkpoint_cost_hours);
      } else {
        plan = preempt::policy::no_checkpoint_plan(spec.job_hours, cfg.checkpoint_cost_hours);
      }
      preempt::policy::SimulationOptions options;
      options.runs = spec.replications;
      options.seed = spec.seed;
      options.start_age_hours = spec.start_age_hours;
      options.restart_overhead_hours = cfg.restart_overhead_hours;
      ScopedSpan s(rec, "policy.simulate_plan", rid);
      s.set_count(static_cast<double>(spec.replications));
      result.makespan = preempt::policy::simulate_plan(*truth, plan, options);
      return result;
    }
    case scenario::ScenarioKind::kFleet: {
      ScopedSpan s(rec, "fleet.simulate", rid);
      result.fleet_report = preempt::fleet::simulate_fleet(spec.fleet, spec.seed, truth.get());
      s.set_count(static_cast<double>(result.fleet_report.tasks_submitted));
      return result;
    }
    default:
      break;
  }
  throw preempt::InvalidArgument("unsupported cell kind");
}

struct Inputs {
  std::vector<scenario::SweepSpec> sweeps;
  std::vector<scenario::ScenarioSpec> cells;
  std::vector<std::string> cell_text;  ///< each cell as dispatched (spec JSON)
  std::string reference;
  std::vector<std::string> reference_results;  ///< per-cell "result" JSON
  std::vector<Request> requests;
  std::string journal_path;  ///< the workload daemon's journal (replay probe)
};

struct PassFacts {
  double wall_s = 0.0;
  std::vector<std::string> rendered;  ///< per-cell result JSON
  std::string merged;                 ///< merged report dump
  std::vector<std::uint64_t> reuse_hash;
  std::vector<std::string> errors;
  std::uint64_t reconnects = 0;
  std::size_t journal_bytes = 0;  ///< appended by the cells part
  std::vector<std::pair<std::size_t, std::uint64_t>> submitted;  ///< (server, job id)
  std::vector<double> fleet_tasks;  ///< per fleet.simulate call
  std::vector<double> fleet_preemptions, fleet_migrations;
};

class Tracer {
 public:
  Tracer(const Context& ctx, Inputs& in, TracedDaemons& daemons, SpanRecorder& rec)
      : ctx_(ctx), in_(in), daemons_(daemons), rec_(rec) {}

  PassFacts pass(bool traced) {
    PassFacts facts;
    facts.rendered.resize(in_.cells.size());
    facts.reuse_hash.assign(in_.requests.size(), 0);
    const std::string journal = ctx_.args.out_dir + "/" + ctx_.args.workload + "-trace-store.jsonl";
    std::filesystem::remove(journal);
    std::filesystem::remove(journal + ".tmp");
    preempt::api::JobJournal store(journal);
    std::vector<api::BagJobRecord> records(in_.cells.size());
    rec_.take();
    rec_.set_enabled(traced);
    const Clock::time_point t0 = Clock::now();

    expand_sweeps();
    run_cells(facts, store, records);
    facts.journal_bytes = store.bytes();
    merge(facts);
    run_requests(facts);
    probes(store, records);

    facts.wall_s = seconds_since(t0);
    rec_.set_enabled(false);
    // Bags the requests submitted run on the daemons' own workers: let them
    // finish (outside the pass) so the next pass starts from an idle daemon.
    for (const auto& [server, id] : facts.submitted) {
      if (!daemons_.daemons.at(server)->wait_for_bag(id, 120.0)) {
        facts.errors.push_back("submitted job " + std::to_string(id) + " never finished");
      }
    }
    return facts;
  }

 private:
  void expand_sweeps() {
    if (in_.sweeps.empty()) {
      // Control-plane cells are single-cell submissions: expansion is the
      // validation the daemon runs per submitted spec.
      for (std::size_t i = 0; i < in_.cells.size(); ++i) {
        const ScopedSpan s(rec_, "scenario.expand", i + 1);
        scenario::SweepSpec single{in_.cells[i], {}};
        scenario::expand(single);
      }
      return;
    }
    for (std::size_t i = 0; i < in_.sweeps.size(); ++i) {
      ScopedSpan s(rec_, "scenario.expand", 0);
      s.set_count(static_cast<double>(scenario::expand(in_.sweeps[i]).size()));
    }
  }

  void run_cells(PassFacts& facts, api::JobJournal& store, std::vector<api::BagJobRecord>& records) {
    // The queue's whole life (worker start, submits, waits, join) is the
    // queue layer's span; each cell's executor span nests inside it. One
    // worker, so that one call runs at a time (measure_queue times the
    // queue under the workload's own arrival pattern).
    ScopedSpan drain(rec_, "queue.drain", 0);
    drain.set_count(static_cast<double>(in_.cells.size()));
    const std::uint64_t drain_span = drain.id();
    api::BagJobQueue queue(1, [&](api::BagJobRecord& job) {
      const std::size_t i = std::stoul(job.spec.scenario_name);
      const std::uint64_t rid = i + 1;
      {
        const ScopedSpan cell(rec_, "scenario.cell", rid, drain_span);
        scenario::ScenarioSpec spec;
        {
          const ScopedSpan s(rec_, "scenario.parse", rid);
          spec = scenario::scenario_from_json(preempt::parse_json(in_.cell_text[i]));
          scenario::validate(spec);
        }
        const scenario::ScenarioResult result = compute_cell(rec_, rid, spec);
        if (spec.kind == scenario::ScenarioKind::kFleet) {
          facts.fleet_tasks.push_back(static_cast<double>(result.fleet_report.tasks_submitted));
          facts.fleet_preemptions.push_back(
              static_cast<double>(result.fleet_report.machine_preemptions));
          facts.fleet_migrations.push_back(static_cast<double>(result.fleet_report.migrations));
        }
        JsonValue rendered;
        {
          const ScopedSpan s(rec_, "scenario.render", rid);
          rendered = result.to_json();
          facts.rendered[i] = rendered.dump();
        }
        {
          const ScopedSpan s(rec_, "store.append", rid);
          api::BagJobRecord& record = records[i];
          record.id = rid;
          record.status = api::BagJobStatus::kDone;
          record.spec.scenario_name = ctx_.args.workload;
          record.spec.cells = {spec};
          record.scenario_result = std::move(rendered);
          store.append(api::make_terminal_event(record));
        }
      }
    });
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < in_.cells.size(); ++i) {
      api::BagJobSpec spec;
      spec.scenario_name = std::to_string(i);
      ids.push_back(queue.submit(std::move(spec)));
    }
    for (const std::uint64_t id : ids) queue.wait(id, 600.0);
  }

  void merge(PassFacts& facts) {
    std::vector<std::vector<std::size_t>> parts;
    {
      ScopedSpan s(rec_, "shard.partition", 0);
      parts = preempt::shard::partition_cells(in_.cells.size(), kShards);
      s.set_count(static_cast<double>(in_.cells.size()));
    }
    std::vector<JsonValue> results(in_.cells.size());
    std::vector<bool> have(in_.cells.size(), false);
    for (std::size_t k = 0; k < parts.size(); ++k) {
      {
        const ScopedSpan s(rec_, "shard.body", k + 1);
        preempt::shard::shard_body_json(in_.cells, parts[k], ctx_.args.workload);
      }
      JsonArray answered;
      {
        // What the worker's done job carries for this shard.
        const ScopedSpan s(rec_, "scenario.render_shard", k + 1);
        for (const std::size_t i : parts[k]) {
          JsonObject cell;
          cell.emplace_back("name", in_.cells[i].name);
          cell.emplace_back("spec", scenario::to_json(in_.cells[i]));
          cell.emplace_back("result", preempt::parse_json(facts.rendered[i]));
          answered.emplace_back(std::move(cell));
        }
      }
      JsonObject shard_result;
      shard_result.emplace_back("cells", std::move(answered));
      const ScopedSpan s(rec_, "shard.adopt", k + 1);
      preempt::shard::adopt_shard_result(in_.cells, parts[k], JsonValue(std::move(shard_result)),
                                         results, have);
    }
    JsonValue merged;
    {
      const ScopedSpan s(rec_, "shard.merge", 0);
      merged = preempt::shard::merge_report(in_.cells, results, have);
    }
    const ScopedSpan s(rec_, "scenario.render_report", 0);
    facts.merged = merged.dump();
  }

  void run_requests(PassFacts& facts) {
    std::vector<std::unique_ptr<api::HttpConnection>> conns;
    for (const std::uint16_t port : daemons_.ports()) {
      conns.push_back(std::make_unique<api::HttpConnection>(port));
      conns.back()->set_recv_timeout(30.0);
    }
    std::uint64_t sockets = 0;
    for (std::size_t i = 0; i < in_.requests.size(); ++i) {
      const Request& req = in_.requests[i];
      api::HttpConnection& conn = *conns.at(req.server);
      if (!conn.connected()) ++sockets;
      const std::uint64_t rid = kRequestRid + i;
      api::HttpResponse response;
      try {
        const ScopedSpan s(rec_, "http.request", rid);
        daemons_.rid.store(rid);
        daemons_.client_span.store(s.id());
        response = conn.request(req.method, req.target, req.body);
      } catch (const std::exception& e) {
        facts.errors.push_back(std::string("transport: ") + e.what());
        conn.close();
        continue;
      }
      if (response.status < 200 || response.status >= 300) {
        facts.errors.push_back(req.target + " answered " + std::to_string(response.status));
        continue;
      }
      const ScopedSpan check(rec_, "bench.check", rid);
      try {
        const JsonValue body = preempt::parse_json(response.body);
        if (req.route == kReuse) facts.reuse_hash[i] = fnv1a(response.body);
        if (req.route == kBagSubmit || req.route == kRunCells) {
          facts.submitted.emplace_back(req.server,
                                       static_cast<std::uint64_t>(body.number_or("id", 0)));
        }
      } catch (const std::exception& e) {
        facts.errors.push_back(req.target + ": response is not JSON");
      }
    }
    facts.reconnects = sockets > conns.size() ? sockets - conns.size() : 0;
  }

  void probes(api::JobJournal& store, const std::vector<api::BagJobRecord>& records) {
    // vkernel batch kernels at the sample_many block size.
    auto kernel = [&](const char* name, void (*fn)(const double*, double*, std::size_t) noexcept,
                      const std::vector<double>& x) {
      ScopedSpan s(rec_, name, 0);
      for (std::size_t c = 0; c < kVkCalls; ++c) fn(x.data(), probe_.out.data(), kVkBatch);
      s.set_count(static_cast<double>(kVkCalls * kVkBatch));
    };
    kernel("vkernel.exp_many", preempt::vk::exp_many, probe_.negative);
    kernel("vkernel.log_many", preempt::vk::log_many, probe_.unit);
    kernel("vkernel.expm1_many", preempt::vk::expm1_many, probe_.negative);
    kernel("vkernel.log1p_many", preempt::vk::log1p_many, probe_.unit);

    // sample_many once per distinct law of the workload's cells.
    for (const preempt::dist::DistributionPtr& law : probe_.laws) {
      preempt::Rng draw_rng(derive_seed(ctx_.args.seed, 41));
      ScopedSpan s(rec_, "dist.sample_many", 0);
      law->sample_many(draw_rng, probe_.draws);
      s.set_count(static_cast<double>(probe_.draws.size()));
    }
    {
      ScopedSpan s(rec_, "mc.sample_many_parallel", 0);
      preempt::mc::sample_many_parallel(*probe_.laws.front(), derive_seed(ctx_.args.seed, 42),
                                        probe_.many);
      s.set_count(static_cast<double>(probe_.many.size()));
    }

    // Compute layers the workload's own cells do not reach, and one service
    // cell at one replication (sim.service).
    for (const scenario::ScenarioSpec& cell : probe_.compute_cells) compute_cell(rec_, 0, cell);
    for (const scenario::ScenarioSpec& cell : probe_.service_cells) {
      preempt::dist::DistributionPtr truth, decision;
      {
        const ScopedSpan s(rec_, "dist.law_build", 0);
        truth = scenario::make_ground_truth(cell);
        decision = scenario::make_decision_model(cell, *truth);
      }
      const ScopedSpan s(rec_, "sim.service", 0);
      scenario::run_service(cell, *truth, *decision);
    }

    // Journal compaction and replay.
    {
      const ScopedSpan s(rec_, "store.compact", 0);
      std::vector<api::BagJobRecord> done;
      for (const api::BagJobRecord& r : records) {
        if (r.id != 0) done.push_back(r);
      }
      store.compact(api::make_snapshot_event(done, done.size() + 1, done.size()));
    }
    ScopedSpan s(rec_, "store.replay", 0);
    s.set_count(static_cast<double>(api::replay_journal(in_.journal_path).records.size()));
  }

  /// Probe inputs, built once outside the timed passes.
  struct ProbeInputs {
    std::vector<double> unit, negative, out;
    std::vector<preempt::dist::DistributionPtr> laws;
    std::vector<double> draws, many;
    std::vector<scenario::ScenarioSpec> compute_cells;
    std::vector<scenario::ScenarioSpec> service_cells;
  };

  ProbeInputs build_probes() const {
    ProbeInputs p;
    preempt::Rng rng(derive_seed(ctx_.args.seed, 40));
    p.unit.resize(kVkBatch);
    p.negative.resize(kVkBatch);
    p.out.resize(kVkBatch);
    for (std::size_t i = 0; i < kVkBatch; ++i) {
      p.unit[i] = rng.uniform();
      p.negative[i] = -20.0 * rng.uniform();
    }
    std::set<std::string> seen;
    for (const scenario::ScenarioSpec& cell : in_.cells) {
      const JsonValue spec = scenario::to_json(cell);
      const JsonValue* law_spec = spec.find("ground_truth");
      if (law_spec == nullptr || !seen.insert(law_spec->dump()).second) continue;
      p.laws.push_back(scenario::make_ground_truth(cell));
    }
    if (p.laws.empty()) p.laws.push_back(scenario::make_ground_truth(fallback_service_cell()));
    p.draws.resize(kDraws);
    p.many.resize(kParallelDraws);
    if (!has_kind(scenario::ScenarioKind::kCheckpoint)) {
      scenario::ScenarioSpec probe = scenario::find_builtin("paper-fig08-checkpointing")->sweep.base;
      probe.seed = derive_seed(ctx_.args.seed, 43);
      p.compute_cells.push_back(probe);
    }
    if (!has_kind(scenario::ScenarioKind::kFleet)) {
      scenario::ScenarioSpec probe = scenario::find_builtin("fleet-quick")->sweep.base;
      probe.seed = derive_seed(ctx_.args.seed, 44);
      probe.replications = 1;
      p.compute_cells.push_back(probe);
    }
    for (const scenario::ScenarioSpec& cell : in_.cells) {
      if (cell.kind == scenario::ScenarioKind::kService && p.service_cells.size() < 8) {
        p.service_cells.push_back(cell);
      }
    }
    if (p.service_cells.empty()) p.service_cells.push_back(fallback_service_cell());
    for (scenario::ScenarioSpec& cell : p.service_cells) cell.replications = 1;
    return p;
  }

  scenario::ScenarioSpec fallback_service_cell() const {
    scenario::ScenarioSpec probe = scenario::find_builtin("paper-fig09-quick")->sweep.base;
    probe.seed = derive_seed(ctx_.args.seed, 45);
    return probe;
  }

  bool has_kind(scenario::ScenarioKind kind) const {
    return std::any_of(in_.cells.begin(), in_.cells.end(),
                       [&](const scenario::ScenarioSpec& c) { return c.kind == kind; });
  }

  const Context& ctx_;
  Inputs& in_;
  TracedDaemons& daemons_;
  SpanRecorder& rec_;
  ProbeInputs probe_ = build_probes();
};

struct QueueFigures {
  std::vector<double> wait_ms;  ///< submit -> executor start, per job
  std::size_t depth_max = 0;    ///< jobs submitted but not started
  std::vector<double> busy_frac;  ///< per round: executor time / (workers x round)
};

/// api.bag_queue under the workload's own arrival pattern (untraced):
/// bench-owned BagJobQueues with the daemon's bag workers, one per daemon
/// the workload feeds, executing the jobs that daemon's queue receives.
/// Sweep workloads: the shards the coordinator sends to each worker, all
/// submitted at once, each running its cells in order as the daemon's shard
/// executor does. control-plane: a batch of tiny bags, one cell each, all
/// submitted at once, as the untraced run's tiny-bag batches are. Every
/// cell must equal the reference.
QueueFigures measure_queue(const Inputs& in, bool control, std::size_t rounds,
                           RunResult& result) {
  const std::size_t bag_workers = api::ServiceDaemon::Options{}.bag_workers;
  const std::size_t queues = control ? 1 : kWorkers;
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> jobs;  // (queue, cells)
  if (control) {
    for (std::size_t i = 0; i < in.cells.size(); ++i) jobs.push_back({0, {i}});
  } else {
    const auto parts = preempt::shard::partition_cells(in.cells.size(), kShards);
    for (std::size_t k = 0; k < parts.size(); ++k) jobs.push_back({k % queues, parts[k]});
  }
  QueueFigures fig;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<double> submit_s(jobs.size()), start_s(jobs.size()), end_s(jobs.size());
    std::vector<std::string> rendered(in.cells.size());
    const Clock::time_point base = Clock::now();
    {
      std::vector<std::unique_ptr<api::BagJobQueue>> qs;
      for (std::size_t q = 0; q < queues; ++q) {
        qs.push_back(std::make_unique<api::BagJobQueue>(bag_workers, [&](api::BagJobRecord& job) {
          const std::size_t j = std::stoul(job.spec.scenario_name);
          start_s[j] = seconds_since(base);
          for (const std::size_t i : jobs[j].second) {
            rendered[i] = scenario::run(in.cells[i]).to_json().dump();
          }
          end_s[j] = seconds_since(base);
        }));
      }
      auto submit = [&](std::size_t j) {
        api::BagJobSpec spec;
        spec.scenario_name = std::to_string(j);
        submit_s[j] = seconds_since(base);
        return std::make_pair(jobs[j].first, qs[jobs[j].first]->submit(std::move(spec)));
      };
      std::vector<std::pair<std::size_t, std::uint64_t>> ids;
      for (std::size_t j = 0; j < jobs.size(); ++j) ids.push_back(submit(j));
      for (const auto& [q, id] : ids) qs[q]->wait(id, 600.0);
    }
    result.attempt(in.cells.size());
    for (std::size_t i = 0; i < in.cells.size(); ++i) {
      if (rendered[i] != in.reference_results[i]) {
        result.fail("queued cell " + in.cells[i].name + " differs from scenario::run");
      }
    }
    // Depth: per queue, jobs submitted and not yet started, over time.
    for (std::size_t q = 0; q < queues; ++q) {
      std::vector<std::pair<double, int>> events;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j].first != q) continue;
        events.emplace_back(submit_s[j], +1);
        events.emplace_back(start_s[j], -1);
      }
      std::sort(events.begin(), events.end());  // a start before a submit at a tie
      long depth = 0;
      for (const auto& [t, delta] : events) {
        depth += delta;
        fig.depth_max = std::max(fig.depth_max, static_cast<std::size_t>(std::max(0L, depth)));
      }
    }
    double busy = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      fig.wait_ms.push_back((start_s[j] - submit_s[j]) * 1e3);
      busy += end_s[j] - start_s[j];
    }
    const double span = *std::max_element(end_s.begin(), end_s.end()) -
                        *std::min_element(submit_s.begin(), submit_s.end());
    fig.busy_frac.push_back(busy / (static_cast<double>(queues * bag_workers) * span));
  }
  return fig;
}

/// Per-call statistics of the spans named `name`.
struct SpanStats {
  std::vector<double> seconds;
  std::vector<double> counts;
  double total_s = 0.0, total_count = 0.0;
};

std::map<std::string, SpanStats> by_name(const std::vector<Span>& spans) {
  std::map<std::string, SpanStats> out;
  for (const Span& s : spans) {
    SpanStats& st = out[s.name];
    st.seconds.push_back(s.seconds());
    st.counts.push_back(s.count);
    st.total_s += s.seconds();
    st.total_count += s.count;
  }
  return out;
}

}  // namespace

int run_traced(const Context& ctx, RunResult& result) {
  const std::uint64_t seed = ctx.args.seed;
  const bool control = ctx.args.workload == "control-plane";
  const std::string spans_path =
      ctx.args.out_dir + "/" + ctx.args.workload + "-spans-seed" + std::to_string(seed) + ".jsonl";
  std::filesystem::remove(spans_path);

  // ---- inputs
  Inputs in;
  MixContext mix = mix_context(ctx);
  mix.lifetimes = campaign_lifetimes(derive_seed(seed, 12), 4000);
  if (control) {
    for (std::size_t i = 0; i < kTraceTinyCells; ++i) {
      scenario::ScenarioSpec cell = tiny_bag(derive_seed(seed, 20000 + i)).cell;
      cell.name = "tiny-bag-" + std::to_string(i);
      in.cells.push_back(std::move(cell));
    }
  } else {
    in.sweeps = workload_sweeps(ctx);
    in.cells = expand_all(in.sweeps);
  }
  for (const scenario::ScenarioSpec& cell : in.cells) in.cell_text.push_back(scenario::to_json(cell).dump());
  in.reference = reference_report(in.cells);
  const JsonValue reference = preempt::parse_json(in.reference);
  for (const JsonValue& cell : reference.find("cells")->as_array()) {
    in.reference_results.push_back(cell.find("result")->dump());
  }
  result.detail("cells", in.cells.size());
  result.detail("dist.law_repeat_frac", law_repeat_frac(in.cells));

  // ---- daemons behind bench-owned servers
  SpanRecorder rec;
  TracedDaemons daemons;
  daemons.recorder = &rec;
  if (control) {
    const std::string master = ctx.args.out_dir + "/control-plane-journal-seed.jsonl";
    in.journal_path = ctx.args.out_dir + "/control-plane-trace-daemon.jsonl";
    write_seeded_journal(master, kJournalJobs, derive_seed(seed, 11));
    std::filesystem::copy_file(master, in.journal_path,
                               std::filesystem::copy_options::overwrite_existing);
    api::ServiceDaemon::Options options;
    options.max_finished_jobs = kMaxFinishedJobs;
    options.store_path = in.journal_path;
    daemons.daemons.push_back(std::make_unique<api::ServiceDaemon>(options));
    mix.done_ids.emplace_back();
    for (std::uint64_t id = 1; id <= kJournalJobs; ++id) mix.done_ids[0].push_back(id);
  } else {
    for (std::size_t k = 0; k < kWorkers; ++k) {
      api::ServiceDaemon::Options o;
      o.store_path = ctx.args.out_dir + "/" + ctx.args.workload + "-trace-worker" +
                     std::to_string(k) + ".jsonl";
      std::filesystem::remove(o.store_path);
      if (k == 0) in.journal_path = o.store_path;
      daemons.daemons.push_back(std::make_unique<api::ServiceDaemon>(o));
    }
  }
  daemons.serve();
  for (const std::uint16_t port : daemons.ports()) wait_healthy(port);

  // ---- one sharded round through the coordinator (untraced): shard.*
  auto route_requests = [&](std::size_t server, const std::string& route) {
    const JsonValue m =
        preempt::parse_json(daemons.daemons[server]->handle(get_request("/v1/metrics")).body);
    double n = 0;
    for (const JsonValue& row : m.find("routes")->as_array()) {
      if (row.string_or("route", "") == route && row.string_or("method", "") == "GET") {
        n += row.number_or("requests", 0);
      }
    }
    return n;
  };
  {
    double polls_before = 0;
    for (std::size_t k = 0; k < daemons.daemons.size(); ++k) polls_before += route_requests(k, "/v1/bags/{id}");
    preempt::shard::CoordinatorOptions co;
    co.workers = daemons.ports();
    co.shards = kShards;
    co.label = ctx.args.workload;
    std::map<std::size_t, Clock::time_point> dispatched;
    std::vector<double> dispatch_ms;
    co.observer = [&](const preempt::shard::ShardEventInfo& e) {
      if (e.event == preempt::shard::ShardEvent::kDispatched) dispatched.emplace(e.shard, Clock::now());
      if (e.event == preempt::shard::ShardEvent::kShardDone && dispatched.count(e.shard) != 0) {
        dispatch_ms.push_back(seconds_since(dispatched[e.shard]) * 1e3);
      }
    };
    const Clock::time_point t0 = Clock::now();
    preempt::shard::ShardCoordinator coordinator(co);
    const preempt::shard::ShardOutcome outcome = coordinator.run_cells(in.cells);
    const double round_s = seconds_since(t0);
    result.attempt(in.cells.size());
    if (!outcome.complete || outcome.report.dump() != in.reference) {
      result.fail("coordinator merge differs from the local scenario::run reference");
    }
    double polls = -polls_before;
    for (std::size_t k = 0; k < daemons.daemons.size(); ++k) polls += route_requests(k, "/v1/bags/{id}");
    const double shards = static_cast<double>(std::min(co.shards, in.cells.size()));
    result.metric("shard.polls_per_shard", polls / shards, "polls");
    result.metric("shard.redispatches", static_cast<double>(outcome.redispatches), "count");
    result.metric("shard.dispatch_p50_ms", median(dispatch_ms), "ms");
    result.metric("cells_per_s", static_cast<double>(in.cells.size()) / round_s, "cells/s");
  }
  if (!control) {
    for (const auto& d : daemons.daemons) mix.done_ids.push_back(done_job_ids(*d));
  }

  // ---- the bag queue under the workload's arrival pattern (untraced)
  {
    const QueueFigures q = measure_queue(in, control, 3, result);
    result.metric("queue.wait_p50_ms", median(q.wait_ms), "ms");
    result.metric("queue.depth_max", static_cast<double>(q.depth_max), "count");
    result.metric("queue.busy_frac", median(q.busy_frac), "ratio");
    result.detail("queue.jobs", q.wait_ms.size());
  }

  // ---- control traffic (untraced): tail latency, rate ladder, loadgen lag
  {
    const InProcess in_process = [&](std::size_t server, const api::HttpRequest& request) {
      return daemons.daemons.at(server)->handle(request);
    };
    const std::size_t headroom = control ? (kMaxFinishedJobs - kJournalJobs) / 2 : 0;
    const ControlFigures fig = measure_control(ctx, mix, daemons.ports(), in_process,
                                               kTraceFixedS, true, headroom, result);
    result.metric("ctl_p50_ms", fig.p50_ms, "ms");
    result.metric("ctl_p99_ms", fig.p99_ms, "ms");
    result.metric("ctl_max_rps", fig.max_rps, "req/s");
    result.metric("loadgen.lag_p99_ms", fig.lag_p99_ms, "ms");
    result.metric("loadgen.backlog_max", static_cast<double>(fig.backlog_max), "count");
  }

  // ---- the traced request list: the workload's traffic plus route coverage
  in.requests = control_requests(mix, kTraceRequests, ctx.traffic.offered_rps,
                                 derive_seed(seed, 60), daemons.daemons.size());
  {
    std::vector<std::size_t> per_route(kRouteCount, 0);
    for (const Request& r : in.requests) ++per_route[static_cast<std::size_t>(r.route)];
    for (int route = 0; route < kRouteCount; ++route) {
      if (per_route[static_cast<std::size_t>(route)] > 0) continue;
      const std::size_t n = route == kRunCells ? 3 : 20;
      for (std::size_t k = 0; k < n; ++k) {
        if (route == kRunCells) {
          Request r;
          r.route = kRunCells;
          r.method = "POST";
          r.target = "/v1/scenarios/run";
          r.body = preempt::shard::shard_body_json(in.cells, {k % in.cells.size()}, "coverage");
          in.requests.push_back(std::move(r));
        } else {
          in.requests.push_back(make_request(route, mix, derive_seed(seed, 70 + k), 0));
        }
      }
    }
  }

  // ---- alternate untraced and traced passes until the budget is used
  Tracer tracer(ctx, in, daemons, rec);
  std::vector<double> untraced_walls, traced_walls, gaps;
  std::vector<Span> all_spans;
  std::vector<PassFacts> traced_facts;
  std::map<std::string, double> layer_self;
  const Clock::time_point started = Clock::now();
  int pass_index = 0;
  double pair_s = 0.0;
  do {
    const Clock::time_point pair_start = Clock::now();
    const PassFacts u = tracer.pass(false);
    untraced_walls.push_back(u.wall_s);
    PassFacts t = tracer.pass(true);
    std::vector<Span> spans = rec.take();
    const TraceBreakdown bd = breakdown(spans, t.wall_s);
    traced_walls.push_back(t.wall_s);
    gaps.push_back(bd.gap_frac);
    for (const auto& [layer, s] : bd.layer_self_s) layer_self[layer] += s;
    write_spans(spans_path, spans, pass_index);
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
    traced_facts.push_back(std::move(t));
    ++pass_index;
    pair_s = seconds_since(pair_start);
  } while (seconds_since(started) + pair_s < 0.5 * ctx.args.seconds && pass_index < 50);

  // ---- checks
  for (const PassFacts& f : traced_facts) {
    result.attempt(in.cells.size() + in.requests.size() + 1);
    for (std::size_t i = 0; i < in.cells.size(); ++i) {
      if (f.rendered[i] != in.reference_results[i]) {
        result.fail("traced cell " + in.cells[i].name + " differs from scenario::run");
      }
    }
    if (f.merged != in.reference) {
      result.fail("traced merge differs from the local scenario::run reference");
    }
    for (const std::string& e : f.errors) result.fail(e);
    for (std::size_t i = 0; i < in.requests.size(); ++i) {
      if (in.requests[i].route != kReuse || f.reuse_hash[i] == 0) continue;
      const Request& req = in.requests[i];
      if (fnv1a(daemons.daemons[req.server]->handle(get_request(req.target)).body) != f.reuse_hash[i]) {
        result.fail("reuse decision differs from handle(): " + req.target);
      }
    }
  }
  const double worst_gap = *std::max_element(gaps.begin(), gaps.end());
  if (worst_gap > ctx.trace_gap_bound) {
    result.fail("layer self times miss the traced wall by " + std::to_string(worst_gap) +
                " (bound " + std::to_string(ctx.trace_gap_bound) + ")");
  }

  // ---- per-layer metrics
  const std::map<std::string, SpanStats> st = by_name(all_spans);
  auto stats = [&](const std::string& name) -> const SpanStats& {
    static const SpanStats kEmpty;
    const auto it = st.find(name);
    return it == st.end() ? kEmpty : it->second;
  };
  auto p50_of = [&](const std::string& name, double scale) {
    return median(stats(name).seconds) * scale;
  };
  auto per_element_ns = [&](const std::string& name) {
    const SpanStats& s = stats(name);
    return s.total_count > 0 ? s.total_s * 1e9 / s.total_count : 0.0;
  };
  auto rate_of = [&](const std::vector<std::string>& names, double scale) {
    double count = 0, secs = 0;
    for (const std::string& n : names) {
      count += stats(n).total_count;
      secs += stats(n).total_s;
    }
    return secs > 0 ? count / secs * scale : 0.0;
  };
  const double passes = static_cast<double>(traced_facts.size());

  result.metric("vkernel.exp_ns", per_element_ns("vkernel.exp_many"), "ns");
  result.metric("vkernel.log_ns", per_element_ns("vkernel.log_many"), "ns");
  result.metric("vkernel.expm1_ns", per_element_ns("vkernel.expm1_many"), "ns");
  result.metric("vkernel.log1p_ns", per_element_ns("vkernel.log1p_many"), "ns");
  result.detail("vkernel.computed_bytes_per_element", 16);
  {
    std::vector<double> per_law;
    const SpanStats& s = stats("dist.sample_many");
    for (std::size_t i = 0; i < s.seconds.size(); ++i) per_law.push_back(s.counts[i] / s.seconds[i] / 1e6);
    result.metric("dist.sample_many_mdraws_per_s", median(per_law), "Mdraws/s");
  }
  result.metric("dist.law_build_us", p50_of("dist.law_build", 1e6), "us");
  result.metric("dist.law_repeat_frac", law_repeat_frac(in.cells), "ratio");
  {
    double reps = 0;
    for (const char* n : {"sim.run_service", "policy.simulate_plan", "portfolio.run", "fleet.run_replicated"}) {
      const SpanStats& s = stats(n);
      for (std::size_t i = 0; i < s.counts.size(); ++i) {
        if (s.counts[i] > 1) reps += s.counts[i];
      }
    }
    result.metric("mc.replications", reps / passes, "count");
  }
  result.metric("mc.replications_per_s",
                rate_of({"sim.run_service", "policy.simulate_plan", "portfolio.run", "fleet.run_replicated"}, 1.0),
                "1/s");
  result.metric("mc.parallel_mdraws_per_s", rate_of({"mc.sample_many_parallel"}, 1e-6), "Mdraws/s");
  result.metric("policy.dp_ms", p50_of("policy.dp", 1e3), "ms");
  result.metric("policy.sim_runs_per_s", rate_of({"policy.simulate_plan"}, 1.0), "1/s");
  result.metric("sim.service_ms", p50_of("sim.service", 1e3), "ms");
  result.metric("fleet.simulate_ms", p50_of("fleet.simulate", 1e3), "ms");
  result.metric("fleet.tasks_per_s", rate_of({"fleet.simulate"}, 1.0), "1/s");
  {
    const PassFacts& f = traced_facts.front();
    double tasks = 0, pre = 0, mig = 0;
    for (double v : f.fleet_tasks) tasks += v;
    for (double v : f.fleet_preemptions) pre += v;
    for (double v : f.fleet_migrations) mig += v;
    // Fleet cells run in the cells part, or one fleet probe when the
    // workload has none.
    if (f.fleet_tasks.empty()) tasks = stats("fleet.simulate").total_count / passes;
    result.metric("fleet.tasks", tasks, "count");
    result.metric("fleet.machine_preemptions", pre, "count");
    result.metric("fleet.migrations", mig, "count");
    if (!f.fleet_tasks.empty()) result.detail("fleet.tasks_per_cell", tasks / static_cast<double>(f.fleet_tasks.size()));
  }
  result.metric("scenario.parse_us", p50_of("scenario.parse", 1e6), "us");
  result.metric("scenario.expand_us", p50_of("scenario.expand", 1e6), "us");
  result.metric("scenario.run_ms", p50_of("scenario.cell", 1e3), "ms");
  result.metric("scenario.render_us", p50_of("scenario.render", 1e6), "us");
  {
    std::vector<double> append_us = stats("store.append").seconds;
    for (double& v : append_us) v *= 1e6;
    result.metric("store.append_p50_us", percentile(append_us, 0.50), "us");
    result.metric("store.append_p99_us", percentile(append_us, 0.99), "us");
    const PassFacts& f = traced_facts.front();
    result.metric("store.bytes_per_job",
                  static_cast<double>(f.journal_bytes) /
                      static_cast<double>(std::max<std::size_t>(1, in.cells.size())),
                  "B");
    result.metric("store.compact_ms", p50_of("store.compact", 1e3), "ms");
    result.metric("store.replay_ms", p50_of("store.replay", 1e3), "ms");
  }
  for (int route = 0; route < kRouteCount; ++route) {
    const std::string name = std::string("router.") + route_name(route);
    result.metric(name + "_us", p50_of(name, 1e6), "us");
  }
  {
    // http: round trip of HttpConnection::request and its share outside handle().
    std::map<std::uint64_t, double> handle_s;
    for (const Span& s : all_spans) {
      if (s.name.rfind("router.", 0) == 0) handle_s[s.parent] += s.seconds();
    }
    std::vector<double> rtt_us, self_us;
    for (const Span& s : all_spans) {
      if (s.name != "http.request") continue;
      rtt_us.push_back(s.seconds() * 1e6);
      self_us.push_back((s.seconds() - handle_s[s.id]) * 1e6);
    }
    result.metric("http.rtt_p50_us", percentile(rtt_us, 0.50), "us");
    result.metric("http.rtt_p99_us", percentile(rtt_us, 0.99), "us");
    result.metric("http.self_p50_us", percentile(self_us, 0.50), "us");
    double reconnects = 0;
    for (const PassFacts& f : traced_facts) reconnects += static_cast<double>(f.reconnects);
    result.metric("http.reconnects", reconnects / passes, "count");
    double shed = 0;
    for (const auto& s : daemons.servers) shed += static_cast<double>(s->connections_shed());
    result.metric("http.shed", shed, "count");
  }
  {
    std::vector<double> partition_us = stats("shard.partition").seconds;
    for (double& v : partition_us) v *= 1e6;
    result.metric("shard.partition_us", median(partition_us), "us");
    result.metric("shard.merge_ms", p50_of("shard.merge", 1e3), "ms");
  }
  const double overhead = median(traced_walls) / median(untraced_walls) - 1.0;
  result.metric("trace.overhead_frac", overhead, "ratio");
  result.metric("trace.sum_gap_frac", worst_gap, "ratio");

  // Layer self-time shares of the traced wall.
  double total_self = 0;
  for (const auto& [layer, s] : layer_self) total_self += s;
  JsonObject shares;
  std::printf("layer self time over %zu traced passes (wall %.3f s median):\n",
              traced_facts.size(), median(traced_walls));
  for (const auto& [layer, s] : layer_self) {
    shares.emplace_back(layer, s / total_self);
    std::printf("  %-16s %10.4f s  %6.2f%%\n", layer.c_str(), s / passes, 100.0 * s / total_self);
  }
  result.detail("layer_self_share", JsonValue(std::move(shares)));
  result.detail("traced_passes", traced_facts.size());
  result.detail("spans_file", spans_path);
  result.detail("spans", all_spans.size());
  return 0;
}

}  // namespace perfbench
