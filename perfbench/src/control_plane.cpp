// control-plane: the controller's per-job decision traffic (paper Sec. 5),
// open loop over a few keep-alive connections against a daemon restored from
// a seeded job journal, plus batches of tiny bags on a second daemon.
// measure_control (the open-loop phases) is shared with the sweep workloads.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "api/http_client.hpp"
#include "common/error.hpp"
#include "workloads.hpp"

namespace perfbench {

using preempt::JsonArray;
using preempt::JsonObject;
using preempt::JsonValue;
namespace api = preempt::api;

void wait_healthy(std::uint16_t port) {
  const Clock::time_point t0 = Clock::now();
  api::HttpConnection conn(port);
  conn.set_recv_timeout(5.0);
  for (;;) {
    try {
      if (conn.get("/healthz").status == 200) return;
    } catch (const preempt::IoError&) {
      conn.close();
    }
    if (seconds_since(t0) > 30.0) throw preempt::IoError("daemon never answered /healthz");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::size_t connections_per_server(std::size_t servers) {
  return std::max<std::size_t>(1, std::min(kConnections, cpu_count()) / servers);
}

MixContext mix_context(const Context& ctx) {
  MixContext mix;
  mix.mix = ctx.traffic.mix;
  mix.list_limit = ctx.traffic.list_limit;
  return mix;
}

api::HttpRequest get_request(const std::string& target) {
  api::HttpRequest request;
  request.method = "GET";
  request.target = target;
  request.version = "HTTP/1.1";
  return request;
}

namespace {

struct Phase {
  PhaseResult load;
  std::vector<std::uint64_t> submitted;  ///< bag ids from 202 answers
  double cpu_s = 0.0;  ///< process CPU time of the open-loop run
};

/// One open-loop phase with every response checked.
Phase checked_phase(const std::vector<Request>& requests, const std::vector<std::uint16_t>& ports,
                    std::size_t conns_per_server, const InProcess& in_process,
                    RunResult& result) {
  std::vector<std::uint64_t> reuse_hash(requests.size(), 0);
  std::mutex ids_mutex;
  Phase phase;
  const ResponseCheck check = [&](std::size_t i, const Request& req,
                                  const api::HttpResponse& response) -> std::string {
    if (response.status < 200 || response.status >= 300) {
      return "status " + std::to_string(response.status) + " " + response.body.substr(0, 160);
    }
    JsonValue body;
    try {
      body = preempt::parse_json(response.body);
    } catch (const std::exception& e) {
      return std::string("response is not JSON: ") + e.what();
    }
    if (req.route == kReuse) reuse_hash[i] = fnv1a(response.body);
    if (req.route == kBagSubmit) {
      const JsonValue* id = body.find("id");
      if (id == nullptr || !id->is_number()) return "202 without a job id";
      const std::lock_guard<std::mutex> lock(ids_mutex);
      phase.submitted.push_back(static_cast<std::uint64_t>(id->as_number()));
    }
    return "";
  };
  release_free_memory();
  const double cpu0 = cpu_seconds();
  phase.load = run_open_loop(requests, ports, conns_per_server, check);
  phase.cpu_s = cpu_seconds() - cpu0;
  result.attempt(requests.size());
  for (const std::string& e : phase.load.errors) result.fail(e);
  for (std::size_t k = phase.load.errors.size(); k < phase.load.failed; ++k) {
    result.fail("request failed");
  }

  // Reuse decisions must equal the daemon's in-process answer.
  std::unordered_map<std::string, std::uint64_t> expected;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    if (req.route != kReuse || !std::isfinite(phase.load.latency_ms[i])) continue;
    const std::string key = std::to_string(req.server) + req.target;
    auto it = expected.find(key);
    if (it == expected.end()) {
      it = expected.emplace(key, fnv1a(in_process(req.server, get_request(req.target)).body)).first;
    }
    if (it->second != reuse_hash[i]) result.fail("reuse decision differs from handle(): " + req.target);
  }
  return phase;
}

/// Median of the p99s of consecutive windows of `window` requests (the
/// plain p99 when there are fewer): one stall burst on a shared machine
/// moves one window, not the figure.
double windowed_p99(const std::vector<double>& latency_ms, std::size_t window) {
  std::vector<double> p99s;
  for (std::size_t begin = 0; begin + window <= latency_ms.size(); begin += window) {
    const auto first = latency_ms.begin() + static_cast<std::ptrdiff_t>(begin);
    p99s.push_back(percentile(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(window)), 0.99));
  }
  return p99s.empty() ? percentile(latency_ms, 0.99) : median(p99s);
}

JsonValue phase_json(const PhaseResult& p, const std::vector<Request>& requests, double rate) {
  JsonObject o;
  JsonObject routes;
  for (int route = 0; route < kRouteCount; ++route) {
    std::vector<double> lat;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].route == route) lat.push_back(p.latency_ms[i]);
    }
    if (lat.empty()) continue;
    JsonObject r;
    r.emplace_back("n", lat.size());
    r.emplace_back("p50_ms", percentile(lat, 0.5));
    r.emplace_back("p99_ms", percentile(lat, 0.99));
    routes.emplace_back(route_name(route), std::move(r));
  }
  o.emplace_back("offered_rps", rate);
  o.emplace_back("requests", p.requests);
  o.emplace_back("failed", p.failed);
  o.emplace_back("achieved_rps", p.achieved_rps);
  o.emplace_back("p50_ms", p.p50_ms);
  o.emplace_back("p99_ms", std::isfinite(p.p99_ms) ? JsonValue(p.p99_ms) : JsonValue());
  for (const double q : {0.9, 0.95, 0.98, 0.995}) {
    const double v = percentile(p.latency_ms, q);
    o.emplace_back("p" + std::to_string(static_cast<int>(q * 1000)) + "_ms",
                   std::isfinite(v) ? JsonValue(v) : JsonValue());
  }
  o.emplace_back("lag_p99_ms", p.lag_p99_ms);
  o.emplace_back("backlog_max", p.backlog_max);
  o.emplace_back("backlog_end", p.backlog_end);
  o.emplace_back("drain_ms", p.drain_ms);
  o.emplace_back("reconnects", static_cast<std::size_t>(p.reconnects));
  o.emplace_back("routes", JsonValue(std::move(routes)));
  return JsonValue(std::move(o));
}

}  // namespace

ControlFigures measure_control(const Context& ctx, const MixContext& mix,
                               const std::vector<std::uint16_t>& ports, const InProcess& in_process,
                               double fixed_s, bool ladder, std::size_t bag_budget,
                               RunResult& result, const std::function<void()>& between) {
  const std::uint64_t seed = ctx.args.seed;
  const Traffic& traffic = ctx.traffic;
  const double rate = traffic.offered_rps;
  const double limit_ms = traffic.p99_limit_ms;
  const std::size_t conns = connections_per_server(ports.size());
  auto count_for = [](double r, double seconds, double min_requests) {
    return static_cast<std::size_t>(std::max(min_requests, std::round(r * seconds)));
  };
  const std::vector<double> rungs = ladder ? traffic.ladder_rps : std::vector<double>{};
  const std::size_t window = traffic.plan.window_requests;

  // Every phase's requests up front: warm-up, the fixed-rate slices, each
  // ladder rung.
  std::vector<std::vector<Request>> phases;
  phases.push_back(control_requests(mix, count_for(rate, kWarmupS, 100), rate,
                                    derive_seed(seed, 100), ports.size()));
  for (std::size_t k = 0; k < kSlices; ++k) {
    phases.push_back(control_requests(mix, count_for(rate, fixed_s / kSlices, 200), rate,
                                      derive_seed(seed, 200 + k), ports.size()));
  }
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    phases.push_back(control_requests(mix,
                                      count_for(rungs[k], traffic.plan.rung_s,
                                                traffic.plan.rung_min_requests),
                                      rungs[k], derive_seed(seed, 300 + k), ports.size()));
  }
  // Bags submitted by the traffic must not evict the jobs it reads back.
  std::size_t bag_submits = 0;
  for (const auto& phase : phases) {
    for (const Request& r : phase) bag_submits += r.route == kBagSubmit ? 1 : 0;
  }
  if (bag_submits > bag_budget) {
    throw preempt::InvalidArgument("the traffic submits up to " +
                                   std::to_string(bag_submits) + " bags, over the store's headroom of " +
                                   std::to_string(bag_budget));
  }
  result.detail("ctl_bag_submits_planned", bag_submits);

  // Warm-up: lazy paths and connection set-up, not measured.
  checked_phase(phases[0], ports, conns, in_process, result);
  // The fixed rate, slice by slice with `between` after each: p50 and the
  // CPU time per request are medians over the slices, p99 the windowed p99
  // of all samples.
  ControlFigures fig;
  std::vector<double> slice_p50, slice_cpu_us, latency_ms;
  std::vector<std::uint64_t> submitted;
  JsonArray slice_log;
  for (std::size_t k = 0; k < kSlices; ++k) {
    const Phase slice = checked_phase(phases[1 + k], ports, conns, in_process, result);
    slice_p50.push_back(slice.load.p50_ms);
    slice_cpu_us.push_back(slice.cpu_s * 1e6 / static_cast<double>(phases[1 + k].size()));
    latency_ms.insert(latency_ms.end(), slice.load.latency_ms.begin(), slice.load.latency_ms.end());
    fig.lag_p99_ms = std::max(fig.lag_p99_ms, slice.load.lag_p99_ms);
    fig.backlog_max = std::max(fig.backlog_max, slice.load.backlog_max);
    submitted.insert(submitted.end(), slice.submitted.begin(), slice.submitted.end());
    JsonObject entry = phase_json(slice.load, phases[1 + k], rate).as_object();
    entry.emplace_back("cpu_us", slice_cpu_us.back());
    slice_log.emplace_back(std::move(entry));
    if (between) between();
  }
  fig.p50_ms = median(slice_p50);
  fig.cpu_us = median(slice_cpu_us);
  fig.p99_ms = windowed_p99(latency_ms, window);
  if (fig.lag_p99_ms > ctx.lag_bound_ms) {
    result.invalidate("load generator lag p99 " + std::to_string(fig.lag_p99_ms) +
                      " ms exceeds the " + std::to_string(ctx.lag_bound_ms) + " ms bound");
  }
  result.detail("ctl_samples", latency_ms.size());
  result.detail("ctl_fixed_slices", JsonValue(std::move(slice_log)));

  // Ladder: the highest rate whose p99 meets the limit with no growing
  // backlog, interpolated (log-log) between the last passing and the first
  // failing rung so that the figure is continuous.
  JsonArray rung_log;
  double pass_rate = 0.0, pass_p99 = 0.0, pass_achieved = 0.0;
  bool failed_rung = false;
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    const double r = rungs[k];
    const Phase rung = checked_phase(phases[1 + kSlices + k], ports, conns, in_process, result);
    submitted.insert(submitted.end(), rung.submitted.begin(), rung.submitted.end());
    const PhaseResult& p = rung.load;
    const double p99 = windowed_p99(p.latency_ms, window);
    // No growing backlog: what is queued when the last request falls due
    // drains within the latency limit.
    const bool pass = p.failed == 0 && p99 <= limit_ms && p.drain_ms <= limit_ms &&
                      p.lag_p99_ms <= ctx.lag_bound_ms;
    JsonObject entry = phase_json(p, phases[1 + kSlices + k], r).as_object();
    entry.emplace_back("pass", pass);
    rung_log.emplace_back(std::move(entry));
    if (!pass) {
      // A rung that failed on errors, backlog or lag counts as far over.
      const double fail_p99 = std::clamp(p99, limit_ms * 1.0001, limit_ms * 100.0);
      if (pass_rate <= 0.0) {
        fig.max_rps = r * limit_ms / fail_p99;  // below the ladder: extrapolate
      } else {
        const double t = (std::log(limit_ms) - std::log(pass_p99)) /
                         (std::log(fail_p99) - std::log(pass_p99));
        fig.max_rps = std::exp(std::log(pass_rate) + t * (std::log(r) - std::log(pass_rate)));
      }
      failed_rung = true;
      break;
    }
    pass_rate = r;
    pass_p99 = std::max(p99, 1e-6);
    pass_achieved = p.achieved_rps;
  }
  if (!failed_rung) fig.max_rps = pass_achieved;  // ladder exhausted: a lower bound
  if (ladder) {
    result.detail("ctl_ladder", JsonValue(std::move(rung_log)));
    result.detail("ctl_ladder_exhausted", !failed_rung);
  }

  // Every bag the traffic submitted must finish.
  std::size_t not_done = 0;
  for (const std::uint64_t id : submitted) {
    const api::HttpRequest get = get_request("/v1/bags/" + std::to_string(id));
    std::string status;
    for (int attempt = 0; attempt < 3000; ++attempt) {
      const api::HttpResponse r = in_process(0, get);
      status = r.status == 200 ? preempt::parse_json(r.body).string_or("status", "") : "missing";
      if (status != "queued" && status != "running") break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (status != "done") ++not_done;
  }
  result.attempt(submitted.size());
  for (std::size_t k = 0; k < not_done; ++k) result.fail("submitted bag never reached done");
  result.detail("ctl_bags_submitted", submitted.size());
  return fig;
}

namespace {

/// Tiny bags `first` .. `first + bags - 1` of the seed's sequence, in
/// batches of `batch`: `conns` keep-alive connections post a share of the
/// batch each, one of them waits until every bag of it finished, and then
/// each verifies its share done with a report over HTTP. A batch stays
/// below the store's finished-job cap, so no bag is evicted before it is
/// read back. One waiter, because the queue wakes every waiter on each
/// finished job, so with one per connection the CPU time a bag costs would
/// depend on how their waits happened to overlap.
void bag_batches(api::ServiceDaemon& daemon, std::uint64_t seed, std::size_t conns,
                 std::size_t first, std::size_t bags, std::size_t batch, RunResult& result) {
  std::vector<std::uint64_t> ids(bags, 0);
  std::vector<std::string> errors(bags);
  std::barrier sync(static_cast<std::ptrdiff_t>(conns));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      api::HttpConnection conn(daemon.port());
      conn.set_recv_timeout(10.0);
      for (std::size_t begin = 0; begin < bags; begin += batch) {
        const std::size_t end = std::min(bags, begin + batch);
        for (std::size_t i = begin + t; i < end; i += conns) {
          try {
            const api::HttpResponse r =
                conn.post("/v1/bags", tiny_bag(derive_seed(seed, 20000 + first + i)).body);
            const JsonValue submitted = preempt::parse_json(r.body);
            const JsonValue* id = submitted.find("id");
            if (r.status != 202 || id == nullptr || !id->is_number()) {
              throw preempt::IoError("submit answered " + std::to_string(r.status));
            }
            ids[i] = static_cast<std::uint64_t>(id->as_number());
          } catch (const std::exception& e) {
            errors[i] = e.what();
            conn.close();
          }
        }
        sync.arrive_and_wait();
        if (t == 0) {
          for (std::size_t i = begin; i < end; ++i) {
            if (ids[i] != 0 && !daemon.wait_for_bag(ids[i], 60.0)) errors[i] = "bag did not finish";
          }
        }
        sync.arrive_and_wait();
        for (std::size_t i = begin + t; i < end; i += conns) {
          if (!errors[i].empty()) continue;
          try {
            const api::HttpResponse r = conn.get("/v1/bags/" + std::to_string(ids[i]));
            const JsonValue job = preempt::parse_json(r.body);
            if (r.status != 200 || job.string_or("status", "") != "done" ||
                job.find("report") == nullptr) {
              throw preempt::IoError("bag " + std::to_string(ids[i]) + " not done with a report");
            }
          } catch (const std::exception& e) {
            errors[i] = e.what();
            conn.close();
          }
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.attempt(bags);
  for (const std::string& e : errors) {
    if (!e.empty()) result.fail("tiny bag: " + e);
  }
}

}  // namespace

int run_control_plane(const Context& ctx, RunResult& result) {
  const std::uint64_t seed = ctx.args.seed;
  const std::string master = ctx.args.out_dir + "/control-plane-journal-seed.jsonl";
  const std::string live = ctx.args.out_dir + "/control-plane-store.jsonl";
  write_seeded_journal(master, kJournalJobs, derive_seed(seed, 11));

  MixContext mix = mix_context(ctx);
  mix.lifetimes = campaign_lifetimes(derive_seed(seed, 12), 4000);
  mix.done_ids.emplace_back();
  for (std::uint64_t id = 1; id <= kJournalJobs; ++id) mix.done_ids[0].push_back(id);

  api::ServiceDaemon::Options options;
  options.max_finished_jobs = kMaxFinishedJobs;
  options.store_path = live;
  // The tiny-bag daemon keeps the default finished-job cap on a fresh
  // journal, so its store reaches a steady state (evicting and compacting
  // at a fixed pace) within the warm-up windows.
  const std::string burst_store = ctx.args.out_dir + "/control-plane-bursts.jsonl";
  api::ServiceDaemon::Options burst_options;
  burst_options.store_path = burst_store;
  struct Daemons {
    std::unique_ptr<api::ServiceDaemon> ctl, bursts;
  };
  const std::unique_ptr<Daemons> set = timed_setup<Daemons>(
      [&] {
        std::filesystem::copy_file(master, live,
                                   std::filesystem::copy_options::overwrite_existing);
        std::filesystem::remove(burst_store);
      },
      [&] {
        auto d = std::make_unique<Daemons>();
        d->ctl = std::make_unique<api::ServiceDaemon>(options);
        d->bursts = std::make_unique<api::ServiceDaemon>(burst_options);
        d->ctl->start(0);
        d->bursts->start(0);
        wait_healthy(d->ctl->port());
        wait_healthy(d->bursts->port());
        // First touch of every read route: whatever a user pays once.
        api::HttpConnection conn(d->ctl->port());
        for (int route : {kReuse, kLifetimes, kModels, kBagGet, kBagList, kMetrics}) {
          const std::string target = make_request(route, mix, seed, 0).target;
          const api::HttpResponse r = conn.get(target);
          if (r.status != 200) {
            throw preempt::IoError("first-touch " + target + " answered " +
                                   std::to_string(r.status) + ": " + r.body.substr(0, 200));
          }
        }
        return d;
      },
      result);
  api::ServiceDaemon* daemon = set->ctl.get();

  const InProcess in_process = [&](std::size_t, const api::HttpRequest& request) {
    return daemon->handle(request);
  };
  // cells_per_cpu_s: tiny bags (scenario service cells) from submit to
  // verified result on the tiny-bag daemon, one slice after each slice of
  // control traffic, after the warm-up bags: the median over the slices of
  // bags per CPU second. The wall-clock rate of each slice is kept in the
  // result file.
  constexpr std::size_t kWarmupBags = 2000, kSliceBags = 1600, kBatchBags = 400;
  static_assert(kBatchBags < api::ServiceDaemon::Options{}.max_finished_jobs / 2);
  const std::size_t users = connections_per_server(1);
  bag_batches(*set->bursts, seed, users, 0, kWarmupBags, kBatchBags, result);
  std::size_t bags = kWarmupBags;
  std::vector<double> per_cpu_s, rates;
  const auto bag_slice = [&] {
    release_free_memory();
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    bag_batches(*set->bursts, seed, users, bags, kSliceBags, kBatchBags, result);
    per_cpu_s.push_back(static_cast<double>(kSliceBags) / (cpu_seconds() - cpu0));
    rates.push_back(static_cast<double>(kSliceBags) / seconds_since(t0));
    bags += kSliceBags;
  };
  const ControlFigures fig =
      measure_control(ctx, mix, {daemon->port()}, in_process,
                      ctx.traffic.plan.fixed_share * ctx.args.seconds, false,
                      kMaxFinishedJobs - kJournalJobs, result, bag_slice);
  JsonArray wall_rates, cpu_rates;
  for (double r : rates) wall_rates.emplace_back(r);
  for (double r : per_cpu_s) cpu_rates.emplace_back(r);
  result.detail("cells_per_s_slices", std::move(wall_rates));
  result.detail("cells_per_cpu_s_slices", std::move(cpu_rates));
  result.detail("cells", bags);

  result.metric("rss_peak_mb", rss_peak_mb(), "MB");
  result.metric("ctl_cpu_us", fig.cpu_us, "us");
  result.metric("cells_per_cpu_s", median(per_cpu_s), "cells/cpu-s");
  result.detail("ctl_p50_ms", fig.p50_ms);
  result.detail("cells_per_s", median(rates));
  result.detail("ctl_p99_ms", fig.p99_ms);
  result.detail("loadgen.lag_p99_ms", fig.lag_p99_ms);
  set->ctl->stop();
  set->bursts->stop();
  return 0;
}

}  // namespace perfbench
