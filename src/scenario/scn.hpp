// The .scn scenario format: one small INI-style file describes a whole
// experiment — topology shape, impairments, workload, shard count.
//
//   # fat_tree_10k.scn
//   [topology]
//   kind = fat_tree
//   k = 34
//   hosts_per_edge = 17
//
//   [impairments]
//   scope = access        # access | fabric | all | none
//   loss_rate = 0.0001
//   seed = 7
//
//   [workload]
//   profile = http        # http | audio | mpeg | cache (shape defaults)
//   users = 100000
//   think_ms = 3000
//
//   [asp]
//   monitors = core       # none | core: counting-forwarder ASPs on the
//                         # transit tier (BuiltTopology::top_routers)
//   cache = planp         # none | planp | native: object cache on the edge
//   cache_entries = 512   # tier (BuiltTopology::edge_routers)
//   cache_ttl_ms = 0      # 0 = entries never expire
//
//   [run]
//   shards = 1
//   duration_ms = 100
//
// Full-line comments start with '#' or ';'. Every section and key must be
// known — a typo is a parse error with a line number, not a silently ignored
// setting (same policy as bench/harness.hpp flags). Shape overrides
// (request_bytes, ...) must come after `profile`, which resets them.
#pragma once

#include <cstdint>
#include <string>

#include "scenario/topology.hpp"
#include "scenario/workload.hpp"

namespace asp::scenario {

/// Which generated media get the impairment configuration.
struct ImpairmentConfig {
  std::string scope = "access";  // access | fabric | all | none
  double loss_rate = 0;
  double corrupt_rate = 0;
  double duplicate_rate = 0;
  net::SimTime jitter = 0;
  std::uint64_t seed = 1;

  bool any() const {
    return scope != "none" && (loss_rate > 0 || corrupt_rate > 0 ||
                               duplicate_rate > 0 || jitter > 0);
  }
};

struct RunConfig {
  int shards = 1;
  net::SimTime duration = net::millis(100);
};

struct ScenarioConfig {
  std::string name = "scenario";
  TopologyParams topology;
  ImpairmentConfig impairments;
  WorkloadParams workload;
  std::string asp_monitors = "none";  // none | core
  // In-network caching tier on BuiltTopology::edge_routers: none, `planp`
  // (the verified edge-cache ASP) or `native` (the hand-written C++ hook —
  // same policy, for measuring the interpretation overhead).
  std::string asp_cache = "none";  // none | planp | native
  int cache_entries = 256;
  std::int64_t cache_ttl_ms = 0;  // 0 = no expiry
  RunConfig run;
};

/// Parses .scn text into `out`. On failure returns false and sets `error`
/// to "line N: what went wrong". `out` is default-initialized first.
bool parse_scn(const std::string& text, ScenarioConfig& out, std::string& error);

/// parse_scn over a file; `out.name` becomes the file stem ("fat_tree_10k"
/// for /path/fat_tree_10k.scn).
bool load_scn_file(const std::string& path, ScenarioConfig& out,
                   std::string& error);

}  // namespace asp::scenario
