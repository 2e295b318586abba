// Scenario runner of the benchmark: one process builds and runs one scenario from a
// generated .scn file and prints one JSON line of wall-clock costs plus the
// scenario's deterministic metrics JSON (as a string, so callers can compare
// it byte for byte).
//
//   pb_run   --scn FILE --name NAME --shards N   untraced: setup_s, run_s, rss
//   pb_run   --scn FILE --name NAME --split      set-up split: Scenario(cfg),
//                                                topology build, Workload
//                                                constructor
//   pb_trace --scn FILE --name NAME --shards N   traced run (PB_TRACE build)
//
// Every layer is measured from outside, through public calls only:
// Node::set_ip_hook wrapping Node::standard_ip, Node::add_rx_tap,
// build_topology, the Workload constructor, obs::registry() and
// mem::total_pool_stats(). A counting global operator new exists only in the
// PB_TRACE build, so pb_run times the program exactly as users link it.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/pool.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"

#ifdef PB_TRACE
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// The array and nothrow forms forward to these in libstdc++.
void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#endif

namespace {

using asp::net::Node;
using asp::scenario::Scenario;
using asp::scenario::ScenarioConfig;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Builds a one-line JSON object from numeric fields plus the metrics JSON.
class Line {
 public:
  Line& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Line& u64(const char* key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Line& str(const char* key, const std::string& v) { return raw(key, json_string(v)); }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  Line& raw(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(key) + ": " + v;
    return *this;
  }
  std::string body_;
};

struct Args {
  std::string scn, name;
  int shards = 1;
  bool split = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(k + ": missing value");
      return argv[++i];
    };
    if (k == "--scn") {
      a.scn = value();
    } else if (k == "--name") {
      a.name = value();
    } else if (k == "--shards") {
      a.shards = std::stoi(value());
    } else if (k == "--split") {
      a.split = true;
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (a.scn.empty() || a.name.empty()) throw std::runtime_error("--scn and --name are required");
  if (a.shards < 1) throw std::runtime_error("--shards must be >= 1");
  return a;
}

ScenarioConfig load_config(const Args& a) {
  std::ifstream in(a.scn);
  if (!in) throw std::runtime_error("cannot read " + a.scn);
  std::stringstream text;
  text << in.rdbuf();
  ScenarioConfig cfg;
  std::string error;
  if (!asp::scenario::parse_scn(text.str(), cfg, error)) {
    throw std::runtime_error(a.scn + ": " + error);
  }
  cfg.name = a.name;
  return cfg;
}

#ifdef PB_TRACE
/// One node's spans (calls, wall ns) and, on ASP routers, its rx count. A
/// node is shard-confined, so its tally needs no synchronisation under the
/// executor; the alignment keeps two shards off one cache line.
struct alignas(64) Tally {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t asp_rx = 0;
};

std::uint64_t counter_value(const std::string& name) {
  const auto& counters = asp::obs::registry().counters();
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

/// Traced: routers without an ASP and all hosts get an IP hook that runs
/// the same Node::standard_ip receive() would, inside a span, and reports
/// the packet consumed; routers with an ASP get an rx tap instead (their
/// hook belongs to the ASP runtime).
void run_traced(const ScenarioConfig& cfg, int shards) {
  Scenario sc(cfg);
  const asp::scenario::BuiltTopology& topo = sc.topology();
  std::set<const Node*> asp_nodes, cache_nodes;
  if (cfg.asp_monitors == "core") asp_nodes.insert(topo.top_routers.begin(), topo.top_routers.end());
  if (cfg.asp_cache != "none") {
    cache_nodes.insert(topo.edge_routers.begin(), topo.edge_routers.end());
    asp_nodes.insert(topo.edge_routers.begin(), topo.edge_routers.end());
  }

  const auto& nodes = sc.network().nodes();
  std::vector<Tally> tallies(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Node* n = nodes[i].get();
    Tally* slot = &tallies[i];
    if (asp_nodes.count(n) != 0) {
      n->add_rx_tap([slot](const asp::net::Packet&, const asp::net::Interface&) { ++slot->asp_rx; });
      continue;
    }
    n->set_ip_hook([n, slot](asp::net::Packet& p, asp::net::Interface& in) {
      const auto t0 = Clock::now();
      n->standard_ip(std::move(p), in);
      slot->ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
      ++slot->calls;
      return true;
    });
  }

  std::vector<std::string> asp_names;
  for (const Node* n : asp_nodes) asp_names.push_back(n->name());
  auto asp_counter_sum = [&asp_names](const char* what) {
    std::uint64_t s = 0;
    for (const std::string& name : asp_names) s += counter_value("node/" + name + "/asp/" + what);
    return s;
  };
  const std::uint64_t handled0 = asp_counter_sum("packets_handled");
  const std::uint64_t passed0 = asp_counter_sum("packets_passed");
  const std::uint64_t rc_hits0 = counter_value("node/_agg/net/route_cache_hits");
  const std::uint64_t rc_miss0 = counter_value("node/_agg/net/route_cache_misses");
  const asp::mem::PoolTotals pool0 = asp::mem::total_pool_stats();

  g_allocs.store(0);
  g_count_allocs.store(true);
  const auto t0 = Clock::now();
  const asp::scenario::ScenarioMetrics m = sc.run(shards);
  const double run_s = seconds_since(t0);
  g_count_allocs.store(false);

  const asp::mem::PoolTotals pool1 = asp::mem::total_pool_stats();
  Tally fwd, host_rx;
  std::uint64_t rx_all = 0, rx_cache = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Tally& t = tallies[i];
    Tally& into = nodes[i]->router() ? fwd : host_rx;
    into.calls += t.calls;
    into.ns += t.ns;
    rx_all += t.asp_rx;
    if (cache_nodes.count(nodes[i].get()) != 0) rx_cache += t.asp_rx;
  }
  Line()
      .num("run_s", run_s)
      .u64("shards", static_cast<std::uint64_t>(m.shards))
      .u64("islands", static_cast<std::uint64_t>(m.islands))
      .u64("fwd_calls", fwd.calls)
      .u64("fwd_ns", fwd.ns)
      .u64("host_rx_calls", host_rx.calls)
      .u64("host_rx_ns", host_rx.ns)
      .u64("route_cache_hits", counter_value("node/_agg/net/route_cache_hits") - rc_hits0)
      .u64("route_cache_misses", counter_value("node/_agg/net/route_cache_misses") - rc_miss0)
      .u64("asp_rx_pkts", rx_all)
      .u64("cache_rx_pkts", rx_cache)
      .u64("asp_handled", asp_counter_sum("packets_handled") - handled0)
      .u64("asp_passed", asp_counter_sum("packets_passed") - passed0)
      .u64("allocs", g_allocs.load())
      .u64("pool_misses", pool1.misses - pool0.misses)
      .u64("spills", pool1.spills)
      .str("metrics_json", m.to_json())
      .print();
}
#else
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Untraced: Scenario(cfg) is the set-up, Scenario::run() the run phase.
void run_plain(const ScenarioConfig& cfg, int shards) {
  auto t0 = Clock::now();
  Scenario sc(cfg);
  const double setup_s = seconds_since(t0);
  t0 = Clock::now();
  const asp::scenario::ScenarioMetrics m = sc.run(shards);
  const double run_s = seconds_since(t0);
  Line()
      .num("setup_s", setup_s)
      .num("run_s", run_s)
      .num("peak_rss_mb", peak_rss_mb())
      .u64("shards", static_cast<std::uint64_t>(m.shards))
      .u64("islands", static_cast<std::uint64_t>(m.islands))
      .u64("spills", asp::mem::total_pool_stats().spills)
      .str("metrics_json", m.to_json())
      .print();
}

/// The set-up split: Scenario(cfg) first, exactly as pb_run times it, then
/// build_topology on a scratch Network and the Workload constructor on its
/// hosts, in the coarse-metrics mode Scenario uses. The scenario stays alive
/// so the scratch builds take fresh memory too (rebuilding into freed
/// memory reads faster). The rest of Scenario(cfg) is the ASP installs.
void run_split(const ScenarioConfig& cfg) {
  auto t0 = Clock::now();
  const Scenario sc(cfg);
  const double setup_s = seconds_since(t0);
  asp::obs::ScopedCoarseMetrics coarse;
  asp::net::Network scratch;
  t0 = Clock::now();
  const asp::scenario::BuiltTopology topo = asp::scenario::build_topology(scratch, cfg.topology);
  const double topo_s = seconds_since(t0);
  t0 = Clock::now();
  const asp::scenario::Workload w(topo.hosts, cfg.workload);
  const double workload_s = seconds_since(t0);
  Line()
      .num("setup_s", setup_s)
      .num("topology_build_s", topo_s)
      .num("workload_build_s", workload_s)
      .print();
}
#endif

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const ScenarioConfig cfg = load_config(a);
#ifdef PB_TRACE
    if (a.split) throw std::runtime_error("--split is a pb_run mode");
    run_traced(cfg, a.shards);
#else
    if (a.split) {
      run_split(cfg);
    } else {
      run_plain(cfg, a.shards);
    }
#endif
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
