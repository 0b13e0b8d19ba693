#include "loadgen.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "api/http_client.hpp"
#include "bench.hpp"
#include "common/random.hpp"

namespace perfbench {

const char* route_name(int route) {
  static const char* const kNames[kRouteCount] = {
      "reuse", "lifetimes", "models", "observations", "bag_get",
      "bag_list", "bag_submit", "metrics", "run_cells",
  };
  return route >= 0 && route < kRouteCount ? kNames[route] : "unknown";
}

std::vector<double> poisson_schedule(std::size_t count, double rate_rps, std::uint64_t seed) {
  preempt::Rng rng(seed);
  std::vector<double> due(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(rate_rps);
    due[i] = t;
  }
  return due;
}

PhaseResult run_open_loop(const std::vector<Request>& requests,
                          const std::vector<std::uint16_t>& ports,
                          std::size_t connections_per_server, const ResponseCheck& check) {
  const std::size_t n = requests.size();
  PhaseResult out;
  out.requests = n;
  if (n == 0) return out;

  // Per-server claim lists in due order.
  std::vector<std::vector<std::size_t>> lists(ports.size());
  for (std::size_t i = 0; i < n; ++i) lists.at(requests[i].server).push_back(i);
  for (auto& list : lists) {
    std::stable_sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      return requests[a].due_s < requests[b].due_s;
    });
  }
  std::vector<std::atomic<std::size_t>> cursors(ports.size());
  for (auto& c : cursors) c.store(0);

  std::vector<double> claim_s(n, 0.0), send_s(n, 0.0), recv_s(n, 0.0);
  std::vector<char> ok(n, 0);
  std::mutex error_mutex;
  std::atomic<std::uint64_t> connects{0};
  std::atomic<std::size_t> failed{0};

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto client = [&](std::size_t server) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // wake on time, not 50 us late
    preempt::api::HttpConnection conn(ports[server]);
    conn.set_recv_timeout(10.0);
    const std::vector<std::size_t>& list = lists[server];
    for (;;) {
      const std::size_t k = cursors[server].fetch_add(1);
      if (k >= list.size()) break;
      const std::size_t i = list[k];
      const Request& req = requests[i];
      claim_s[i] = seconds_since(start);
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(req.due_s));
      std::this_thread::sleep_until(due);
      if (!conn.connected()) connects.fetch_add(1);
      send_s[i] = seconds_since(start);
      std::string why;
      try {
        const preempt::api::HttpResponse response =
            conn.request(req.method, req.target, req.body);
        recv_s[i] = seconds_since(start);
        why = check(i, req, response);
      } catch (const std::exception& e) {
        recv_s[i] = seconds_since(start);
        why = std::string("transport: ") + e.what();
        conn.close();
      }
      if (why.empty()) {
        ok[i] = 1;
      } else {
        failed.fetch_add(1);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (out.errors.size() < 10) {
          out.errors.push_back(std::string(route_name(req.route)) + " " + req.target + ": " + why);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < ports.size(); ++s) {
    for (std::size_t c = 0; c < connections_per_server; ++c) threads.emplace_back(client, s);
  }
  for (std::thread& t : threads) t.join();

  out.failed = failed.load();
  out.latency_ms.resize(n);
  std::vector<double> lag_ms(n);
  double last_recv = 0.0, last_due = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double due = requests[i].due_s;
    out.latency_ms[i] = ok[i] ? (recv_s[i] - due) * 1e3 : std::numeric_limits<double>::infinity();
    lag_ms[i] = std::max(0.0, send_s[i] - std::max(due, claim_s[i])) * 1e3;
    last_recv = std::max(last_recv, recv_s[i]);
    last_due = std::max(last_due, due);
  }
  out.p50_ms = percentile(out.latency_ms, 0.50);
  out.p99_ms = percentile(out.latency_ms, 0.99);
  out.lag_p99_ms = percentile(lag_ms, 0.99);

  // Backlog: requests due but not yet sent, over time.
  std::vector<std::pair<double, int>> events;
  events.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    events.emplace_back(requests[i].due_s, +1);
    events.emplace_back(std::max(send_s[i], requests[i].due_s), -1);
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second < b.second;  // sends first
  });
  long depth = 0, depth_max = 0;
  for (const auto& [t, delta] : events) {
    depth += delta;
    depth_max = std::max(depth_max, depth);
  }
  out.backlog_max = static_cast<std::size_t>(depth_max);
  for (std::size_t i = 0; i < n; ++i) {
    if (send_s[i] > last_due) ++out.backlog_end;
  }
  const std::uint64_t sockets = connects.load();
  const std::uint64_t pool = ports.size() * connections_per_server;
  out.reconnects = sockets > pool ? sockets - pool : 0;
  out.drain_ms = (last_recv - last_due) * 1e3;
  out.elapsed_s = last_recv;
  out.achieved_rps = last_recv > 0.0 ? static_cast<double>(n - out.failed) / last_recv : 0.0;
  return out;
}

}  // namespace perfbench
