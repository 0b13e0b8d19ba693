// perfbench: libpreempt's end-to-end benchmark (see perfbench/README.md).
//
//   perfbench --workload control-plane|sweep-mc|fleet --seed N --seconds S
//             --trace 0|1 --config perfbench/workloads.json --out DIR
//
// Prints a metric table, the environment stamp, and as the last stdout line
// {"correct","attempted","failed","metrics"}. Exits non-zero when any output
// check failed or the run was invalid.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/json.hpp"
#include "workloads.hpp"

namespace {

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--config") {
      args.config_path = value;
    } else if (key == "--out") {
      args.out_dir = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--src-digest") {
      args.src_digest = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (args.workload.empty() || args.config_path.empty() || args.out_dir.empty() ||
      args.seconds < 1) {
    throw std::invalid_argument("--workload, --config, --out and --seconds >= 1 are required");
  }
  return args;
}

/// The workload's settings: its traffic block (control-plane's own, or the
/// result-serving block the sweep workloads share) and its cells.
perfbench::Context load_context(perfbench::Args args, const preempt::JsonValue& config) {
  using perfbench::cfg_member;
  using perfbench::cfg_number;
  perfbench::Context ctx;
  ctx.args = std::move(args);
  ctx.lag_bound_ms = cfg_number(config, "lag_bound_ms");
  ctx.trace_gap_bound = cfg_number(config, "trace_gap_bound");
  const bool control = ctx.args.workload == "control-plane";
  const preempt::JsonValue& traffic = cfg_member(config, control ? "control-plane" : "result_serving");
  ctx.traffic.offered_rps = cfg_number(traffic, "offered_rps");
  for (const preempt::JsonValue& r : cfg_member(traffic, "ladder_rps").as_array()) {
    ctx.traffic.ladder_rps.push_back(r.as_number());
  }
  ctx.traffic.p99_limit_ms = cfg_number(traffic, "p99_limit_ms");
  ctx.traffic.mix = perfbench::mix_weights(cfg_member(traffic, "mix"));
  ctx.traffic.list_limit = static_cast<std::size_t>(cfg_number(traffic, "list_limit"));
  ctx.traffic.plan = control ? perfbench::kControlPlan : perfbench::kServingPlan;
  if (!control) {
    const preempt::JsonValue& block = cfg_member(config, ctx.args.workload);
    for (const preempt::JsonValue& v : cfg_member(block, "scenarios").as_array()) {
      ctx.scenarios.push_back(v.as_string());
    }
    ctx.seeds = static_cast<std::size_t>(cfg_number(block, "seeds"));
    if (block.find("replications") != nullptr) {
      ctx.replications = static_cast<std::size_t>(cfg_number(block, "replications"));
    }
  }
  return ctx;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    perfbench::Args args = parse_args(argc, argv);
    std::ifstream in(args.config_path);
    if (!in) throw std::runtime_error("cannot read " + args.config_path);
    std::stringstream text;
    text << in.rdbuf();
    const perfbench::Context ctx = load_context(std::move(args), preempt::parse_json(text.str()));

    perfbench::RunResult result;
    if (ctx.args.trace) {
      perfbench::run_traced(ctx, result);
    } else if (ctx.args.workload == "control-plane") {
      perfbench::run_control_plane(ctx, result);
    } else {
      perfbench::run_sweep_workload(ctx, result);
    }

    const preempt::JsonValue env = perfbench::env_stamp(ctx.args);
    const std::string stem = ctx.args.out_dir + "/" + ctx.args.workload + "-trace" +
                             (ctx.args.trace ? "1" : "0") + "-seed" +
                             std::to_string(ctx.args.seed);
    std::ofstream(stem + ".json") << result.full(env).dump(2) << "\n";
    result.print_table(ctx.args.workload + (ctx.args.trace ? " (traced)" : "") + " seed " +
                       std::to_string(ctx.args.seed));
    std::printf("env %s\n", env.dump().c_str());
    std::printf("%s\n", result.summary_line().c_str());
    std::fflush(stdout);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
