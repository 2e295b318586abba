#include "scenario/scn.hpp"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace asp::scenario {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// Integers outside the target type are rejected, never wrapped.
bool to_int(const std::string& v, int& out) {
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) return false;
  if (x < INT_MIN || x > INT_MAX) return false;
  out = static_cast<int>(x);
  return true;
}

bool to_u64(const std::string& v, std::uint64_t& out) {
  // strtoull negates a leading '-' instead of rejecting it.
  if (v.find('-') != std::string::npos) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) return false;
  out = x;
  return true;
}

bool to_double(const std::string& v, double& out) {
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return end != v.c_str() && *end == '\0';
}

struct Ctx {
  ScenarioConfig* cfg;
  std::string err;  // empty = ok

  bool fail(const std::string& what) {
    err = what;
    return false;
  }
};

bool apply_topology(Ctx& c, const std::string& k, const std::string& v) {
  TopologyParams& t = c.cfg->topology;
  double d;
  if (k == "kind") {
    t.kind = v;
    return true;
  }
  if (k == "k") return to_int(v, t.k) || c.fail("k: not an integer");
  if (k == "hosts_per_edge")
    return to_int(v, t.hosts_per_edge) || c.fail("hosts_per_edge: not an integer");
  if (k == "t1_count") return to_int(v, t.t1_count) || c.fail("t1_count: not an integer");
  if (k == "t2_per_t1") return to_int(v, t.t2_per_t1) || c.fail("t2_per_t1: not an integer");
  if (k == "stubs_per_t2")
    return to_int(v, t.stubs_per_t2) || c.fail("stubs_per_t2: not an integer");
  if (k == "hosts_per_stub")
    return to_int(v, t.hosts_per_stub) || c.fail("hosts_per_stub: not an integer");
  if (k == "metros") return to_int(v, t.metros) || c.fail("metros: not an integer");
  if (k == "aggs_per_metro")
    return to_int(v, t.aggs_per_metro) || c.fail("aggs_per_metro: not an integer");
  if (k == "lans_per_agg")
    return to_int(v, t.lans_per_agg) || c.fail("lans_per_agg: not an integer");
  if (k == "hosts_per_lan")
    return to_int(v, t.hosts_per_lan) || c.fail("hosts_per_lan: not an integer");
  if (k == "seed") return to_u64(v, t.seed) || c.fail("seed: not an integer");
  if (k == "host_bps") return to_double(v, t.host_bps) || c.fail("host_bps: not a number");
  if (k == "edge_bps") return to_double(v, t.edge_bps) || c.fail("edge_bps: not a number");
  if (k == "agg_bps") return to_double(v, t.agg_bps) || c.fail("agg_bps: not a number");
  if (k == "core_bps") return to_double(v, t.core_bps) || c.fail("core_bps: not a number");
  if (k == "access_delay_us") {
    if (!to_double(v, d)) return c.fail("access_delay_us: not a number");
    t.access_delay = net::micros(d);
    return true;
  }
  if (k == "fabric_delay_us") {
    if (!to_double(v, d)) return c.fail("fabric_delay_us: not a number");
    t.fabric_delay = net::micros(d);
    return true;
  }
  return c.fail("unknown [topology] key: " + k);
}

bool apply_impairments(Ctx& c, const std::string& k, const std::string& v) {
  ImpairmentConfig& i = c.cfg->impairments;
  double d;
  if (k == "scope") {
    if (v != "access" && v != "fabric" && v != "all" && v != "none")
      return c.fail("scope must be access|fabric|all|none");
    i.scope = v;
    return true;
  }
  if (k == "loss_rate") return to_double(v, i.loss_rate) || c.fail("loss_rate: not a number");
  if (k == "corrupt_rate")
    return to_double(v, i.corrupt_rate) || c.fail("corrupt_rate: not a number");
  if (k == "duplicate_rate")
    return to_double(v, i.duplicate_rate) || c.fail("duplicate_rate: not a number");
  if (k == "jitter_us") {
    if (!to_double(v, d)) return c.fail("jitter_us: not a number");
    i.jitter = net::micros(d);
    return true;
  }
  if (k == "seed") return to_u64(v, i.seed) || c.fail("seed: not an integer");
  return c.fail("unknown [impairments] key: " + k);
}

bool apply_workload(Ctx& c, const std::string& k, const std::string& v) {
  WorkloadParams& w = c.cfg->workload;
  double d;
  int n;
  if (k == "profile") {
    w.profile = v;
    if (!w.apply_profile()) {
      return c.fail("profile must be http|audio|mpeg|cache");
    }
    return true;
  }
  if (k == "users") return to_u64(v, w.users) || c.fail("users: not an integer");
  if (k == "think_ms")
    return to_double(v, w.think_mean_ms) || c.fail("think_ms: not a number");
  if (k == "timeout_ms") {
    if (!to_double(v, d)) return c.fail("timeout_ms: not a number");
    w.timeout = net::millis(d);
    return true;
  }
  if (k == "server_fraction")
    return to_double(v, w.server_fraction) || c.fail("server_fraction: not a number");
  if (k == "seed") return to_u64(v, w.seed) || c.fail("seed: not an integer");
  if (k == "request_bytes") {
    if (!to_int(v, n) || n < 0) return c.fail("request_bytes: not an integer");
    w.request_bytes = static_cast<std::uint32_t>(n);
    return true;
  }
  if (k == "frames_per_response") {
    if (!to_int(v, n) || n < 1) return c.fail("frames_per_response: bad value");
    w.frames_per_response = static_cast<std::uint32_t>(n);
    return true;
  }
  if (k == "frame_bytes") {
    if (!to_int(v, n) || n < 1) return c.fail("frame_bytes: bad value");
    w.frame_bytes = static_cast<std::uint32_t>(n);
    return true;
  }
  if (k == "objects") return to_u64(v, w.objects) || c.fail("objects: not an integer");
  if (k == "zipf_skew") {
    if (!to_double(v, d) || d < 0) return c.fail("zipf_skew: bad value");
    w.zipf_skew = d;
    return true;
  }
  return c.fail("unknown [workload] key: " + k);
}

bool apply_asp(Ctx& c, const std::string& k, const std::string& v) {
  int n;
  if (k == "monitors") {
    if (v != "none" && v != "core") return c.fail("monitors must be none|core");
    c.cfg->asp_monitors = v;
    return true;
  }
  if (k == "cache") {
    if (v != "none" && v != "planp" && v != "native")
      return c.fail("cache must be none|planp|native");
    c.cfg->asp_cache = v;
    return true;
  }
  if (k == "cache_entries") {
    if (!to_int(v, n) || n < 1) return c.fail("cache_entries: bad value");
    c.cfg->cache_entries = n;
    return true;
  }
  if (k == "cache_ttl_ms") {
    if (!to_int(v, n) || n < 0) return c.fail("cache_ttl_ms: bad value");
    c.cfg->cache_ttl_ms = n;
    return true;
  }
  return c.fail("unknown [asp] key: " + k);
}

bool apply_run(Ctx& c, const std::string& k, const std::string& v) {
  RunConfig& r = c.cfg->run;
  double d;
  if (k == "shards") return to_int(v, r.shards) || c.fail("shards: not an integer");
  if (k == "duration_ms") {
    if (!to_double(v, d)) return c.fail("duration_ms: not a number");
    r.duration = net::millis(d);
    return true;
  }
  return c.fail("unknown [run] key: " + k);
}

}  // namespace

bool parse_scn(const std::string& text, ScenarioConfig& out, std::string& error) {
  out = ScenarioConfig{};
  Ctx ctx{&out, ""};
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string t = trim(line);
    if (t.empty() || t[0] == '#' || t[0] == ';') continue;
    if (t.front() == '[') {
      if (t.back() != ']') {
        error = "line " + std::to_string(lineno) + ": unterminated section";
        return false;
      }
      section = trim(t.substr(1, t.size() - 2));
      if (section != "topology" && section != "impairments" &&
          section != "workload" && section != "asp" && section != "run") {
        error = "line " + std::to_string(lineno) + ": unknown section [" +
                section + "]";
        return false;
      }
      continue;
    }
    std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      error = "line " + std::to_string(lineno) + ": expected key = value";
      return false;
    }
    std::string key = trim(t.substr(0, eq));
    std::string value = trim(t.substr(eq + 1));
    if (key.empty() || value.empty()) {
      error = "line " + std::to_string(lineno) + ": empty key or value";
      return false;
    }
    bool ok;
    if (section == "topology") {
      ok = apply_topology(ctx, key, value);
    } else if (section == "impairments") {
      ok = apply_impairments(ctx, key, value);
    } else if (section == "workload") {
      ok = apply_workload(ctx, key, value);
    } else if (section == "asp") {
      ok = apply_asp(ctx, key, value);
    } else if (section == "run") {
      ok = apply_run(ctx, key, value);
    } else {
      ctx.err = "key before any [section]";
      ok = false;
    }
    if (!ok) {
      error = "line " + std::to_string(lineno) + ": " + ctx.err;
      return false;
    }
  }
  error.clear();
  return true;
}

bool load_scn_file(const std::string& path, ScenarioConfig& out,
                   std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  if (!parse_scn(text, out, error)) return false;
  // name = file stem.
  std::size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  std::size_t dot = base.find_last_of('.');
  out.name = dot == std::string::npos ? base : base.substr(0, dot);
  return true;
}

}  // namespace asp::scenario
