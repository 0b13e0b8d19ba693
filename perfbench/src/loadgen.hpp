// Open-loop HTTP load generator over a small pool of keep-alive connections.
//
// Requests carry a due time (offset from the phase start). Each connection
// has one client thread; a free thread claims the next request in due order,
// sleeps until it is due and sends it. Latency runs from the due time to the
// full response, so a stall on the server (or a busy pool) is charged to
// every request that waited behind it. The generator's own lateness (a
// thread that was free but woke late) is reported separately as lag, and a
// phase whose lag exceeds the benchmark's bound is invalid, never faster.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/http.hpp"

namespace perfbench {

/// Route indices (the router.* metrics use the same names).
enum Route : int {
  kReuse,
  kLifetimes,
  kModels,
  kObservations,
  kBagGet,
  kBagList,
  kBagSubmit,
  kMetrics,
  kRunCells,
  kRouteCount,
};
const char* route_name(int route);

struct Request {
  int route = kReuse;
  std::string method = "GET";
  std::string target;
  std::string body;
  std::size_t server = 0;  ///< index into the port list
  double due_s = 0.0;      ///< offset from the phase start
};

/// Verdict on one response, run on the client thread after the latency is
/// taken. Returns an empty string when the response is acceptable.
using ResponseCheck = std::function<std::string(std::size_t index, const Request& request,
                                                const preempt::api::HttpResponse& response)>;

struct PhaseResult {
  std::size_t requests = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure reasons
  std::vector<double> latency_ms;   ///< per request, from due time; +inf on failure
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lag_p99_ms = 0.0;        ///< generator lateness
  std::size_t backlog_max = 0;    ///< requests due but not yet sent
  std::size_t backlog_end = 0;    ///< still unsent when the last request fell due
  double drain_ms = 0.0;          ///< last response minus last due time
  std::uint64_t reconnects = 0;   ///< sockets opened beyond one per connection
  double elapsed_s = 0.0;
  double achieved_rps = 0.0;
};

/// Poisson arrivals at `rate_rps` for `count` requests (seeded offsets).
std::vector<double> poisson_schedule(std::size_t count, double rate_rps, std::uint64_t seed);

/// Run one open-loop phase. `connections_per_server` client threads (and
/// sockets) are opened per port; a request goes to a connection of its
/// `server`.
PhaseResult run_open_loop(const std::vector<Request>& requests,
                          const std::vector<std::uint16_t>& ports,
                          std::size_t connections_per_server, const ResponseCheck& check);

}  // namespace perfbench
