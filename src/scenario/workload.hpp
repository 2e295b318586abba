// Closed-loop workload synthesizer: 10^5..10^6 modeled users as aggregated
// flow bundles (DESIGN.md §6g).
//
// Simulating a million user sessions as a million sockets would drown the
// event queue in per-session timers. Instead each client host carries ONE
// ClientBundle aggregating U users in the classic closed-loop (think ->
// request -> response -> think) cycle. While n of a bundle's users are
// thinking, the time to the bundle's next request is exponential with rate
// n / think_mean — the superposition of n independent memoryless think
// timers — so the bundle needs exactly one pending timer regardless of U.
// When n changes (a request leaves, a response or timeout returns a user to
// thinking), the timer is resampled; the exponential's memorylessness makes
// that statistically equivalent to keeping per-user timers. The superseded
// timer event is cancelled (EventQueue::cancel is O(1)).
//
// Traffic is ASP-shaped: a request is one small UDP datagram to a server
// drawn deterministically from the bundle's xorshift64 stream; the server
// streams back `frames_per_response` datagrams (HTTP-object / audio-talkspurt
// / MPEG-GOP profiles pick the sizes), the last one flagged so the client
// can close the loop. A request that sees no last-frame within `timeout`
// returns its user to thinking and counts a timeout (the retransmission-free
// analogue of an aborted page load).
//
// Determinism: every bundle draw happens in deterministic event order on the
// bundle's host (shard-confined), and all cross-host interaction is packets,
// which the parallel executor merges canonically — so the aggregate counters
// are byte-identical across shard counts (tests/scenario_test.cpp pins it).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace asp::scenario {

/// Traffic shape + closed-loop parameters for one scenario.
struct WorkloadParams {
  std::string profile = "http";  // http | audio | mpeg | cache (sizes below)
  std::uint64_t users = 1000;    // total modeled users across all bundles
  double think_mean_ms = 3000;   // mean think time per user
  net::SimTime timeout = net::millis(2000);
  double server_fraction = 0.05;  // leading fraction of hosts that serve
  std::uint64_t seed = 1;

  // Shape (profile defaults; a .scn may override after apply_profile()).
  std::uint32_t request_bytes = 200;
  std::uint32_t frames_per_response = 4;
  std::uint32_t frame_bytes = 1400;

  // Cacheable-object universe (cache profile; 0 disables object ids and
  // keeps the wire format byte-identical to the original three profiles).
  // Requests carry a Zipf-drawn object id; servers echo it into single-frame
  // responses so in-network caches can index what they forward.
  std::uint64_t objects = 0;
  double zipf_skew = 1.0;

  /// Applies the named profile's shape defaults. Unknown profile -> false.
  bool apply_profile();
};

inline constexpr std::uint16_t kServerPort = 9000;
inline constexpr std::uint16_t kClientPort = 9001;

/// Aggregate, deterministic workload counters (summed over bundles in bundle
/// order; no wall-clock anywhere).
struct WorkloadStats {
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t latency_sum_ns = 0;  // over completed requests
  std::uint64_t latency_max_ns = 0;
  std::uint64_t origin_requests = 0;  // requests that reached a server (an
                                      // in-network cache hit never does)
  /// log2 histogram of completed-request latency: bucket b counts latencies
  /// with bit_width(ns) == b, i.e. in [2^(b-1), 2^b). Integer buckets sum
  /// deterministically across bundles and shard counts, which a sorted
  /// sample list would not (it is O(completed) state per bundle).
  std::array<std::uint64_t, 65> latency_hist{};

  /// Latency quantile from the histogram: the upper bound (2^b - 1 ns) of
  /// the first bucket whose cumulative count reaches q * completed.
  /// Deterministic and conservative to within the 2x bucket resolution.
  std::uint64_t latency_quantile_ns(double q) const;
};

class ClientBundle;
class ServerApp;

/// Owns every bundle and server socket for one scenario run. Hosts are split
/// by `server_fraction`: the leading ceil(fraction * hosts) hosts serve, the
/// rest carry client bundles with `users` spread round-robin.
class Workload {
 public:
  /// `hosts` is the topology's canonical host list (creation order).
  Workload(const std::vector<net::Node*>& hosts, const WorkloadParams& p);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Schedules the first request of every bundle (call once, before run).
  void start();

  /// Sums per-bundle counters in bundle order (deterministic; call at a
  /// barrier — end of run or between windows).
  WorkloadStats stats() const;

  std::size_t server_count() const { return servers_.size(); }
  std::size_t bundle_count() const { return bundles_.size(); }

 private:
  std::unique_ptr<std::vector<net::Ipv4Addr>> server_addrs_;  // stable: bundles
                                                              // hold a pointer
  std::unique_ptr<std::vector<double>> zipf_cdf_;  // shared Zipf table (may be
                                                   // empty: objects == 0)
  std::vector<std::unique_ptr<ServerApp>> servers_;
  std::vector<std::unique_ptr<ClientBundle>> bundles_;
};

}  // namespace asp::scenario
