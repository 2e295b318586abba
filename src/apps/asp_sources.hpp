// PLAN-P source text of every ASP the simulator installs (paper §3).
//
// asps/<name>.planp is the only copy of each ASP. The build embeds the files
// (src/apps/CMakeLists.txt), so nothing is read at run time; to change an
// ASP, edit its file and rebuild. ASPs are configured at download time by
// substituting addresses and ports into the source (§3.2: "the ASP can be
// easily changed ... to match a new network topology"): each such parameter
// is a top-level `val NAME : T = init` line, and an override replaces it.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "net/addr.hpp"

namespace asp::apps {

/// Replaces the initialiser of the top-level `val <name> : T = ...` line.
struct ValOverride {
  std::string_view name;
  std::string value;
};

/// `text` with each override applied. The initialiser runs from after `= ` to
/// the end of its line, or to the blanks before a trailing `--` comment.
/// Throws std::invalid_argument unless exactly one top-level `val` line
/// declares each name.
std::string override_vals(std::string text, std::initializer_list<ValOverride> overrides);

/// The embedded asps/<name>.planp with `overrides` applied. Throws
/// std::invalid_argument for a name with no file.
std::string asp_source(std::string_view name,
                       std::initializer_list<ValOverride> overrides = {});

/// The name of every embedded file, sorted.
std::vector<std::string_view> asp_names();

// Typed entry points for the ASPs that take parameters.

/// §3.2 gateways: `name` is "http_gateway" (paper Figure 2),
/// "http_gateway_hash" or "http_gateway_failover" (§5).
inline std::string http_gateway_asp(std::string_view name,
                                    asp::net::Ipv4Addr virtual_server,
                                    asp::net::Ipv4Addr server0,
                                    asp::net::Ipv4Addr server1) {
  return asp_source(name, {{"virtualServer", virtual_server.str()},
                           {"server0", server0.str()},
                           {"server1", server1.str()}});
}

/// The in-network HTTP caching proxy (DESIGN.md 6i).
inline std::string cache_proxy_asp(asp::net::Ipv4Addr origin, int entries, int ttl_ms) {
  return asp_source("cache_proxy", {{"originHost", origin.str()},
                                    {"cacheEntries", std::to_string(entries)},
                                    {"cacheTtlMs", std::to_string(ttl_ms)}});
}

/// §3.3 monitor of the video server's streams.
inline std::string mpeg_monitor_asp(asp::net::Ipv4Addr server_host) {
  return asp_source("mpeg_monitor", {{"serverHost", server_host.str()}});
}

/// §3.3 client, phase 2: captures a shared stream for the local player.
inline std::string mpeg_capture_asp(asp::net::Ipv4Addr shared_client,
                                    int shared_vport, int my_vport) {
  return asp_source("mpeg_capture", {{"sharedClient", shared_client.str()},
                                     {"sharedPort", std::to_string(shared_vport)},
                                     {"myPort", std::to_string(my_vport)}});
}

}  // namespace asp::apps
