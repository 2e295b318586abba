// The in-network caching proxy (ROADMAP item 2): CacheStore semantics, the
// cache ASP's verification verdicts, planp-vs-native byte equivalence, origin
// offload, chaos convergence, and sharded determinism of the cache counters.
#include "apps/cache/experiment.hpp"

#include <gtest/gtest.h>

#include <map>

#include "apps/asp_sources.hpp"
#include "net/exec.hpp"
#include "net/network.hpp"
#include "planp/analysis.hpp"
#include "planp/cache.hpp"
#include "planp/parser.hpp"
#include "planp/typecheck.hpp"

namespace asp::apps {
namespace {

using asp::net::ip;
using asp::planp::CacheStore;

// --- CacheStore units --------------------------------------------------------

TEST(CacheStore, HitMissFillCounters) {
  CacheStore c;
  c.configure(8, 0);
  EXPECT_EQ(c.lookup(1, 0), nullptr);
  c.store(1, asp::net::make_buffer({1, 2, 3}), 0);
  const asp::net::Buffer* b = c.lookup(1, 5);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ((*b)->size(), 3u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().fills, 1u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(CacheStore, TtlExpiryCountsExpiredNotMiss) {
  CacheStore c;
  c.configure(8, 100);
  c.store(7, asp::net::make_buffer({9}), 1000);
  EXPECT_NE(c.lookup(7, 1100), nullptr);  // exactly at the deadline: fresh
  EXPECT_EQ(c.lookup(7, 1101), nullptr);  // one past: expired and dropped
  EXPECT_EQ(c.stats().expired, 1u);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_EQ(c.size(), 0u);
}

TEST(CacheStore, LruEvictsColdestAndPromotionProtects) {
  CacheStore c;
  c.configure(2, 0);
  c.store(1, asp::net::make_buffer({1}), 0);
  c.store(2, asp::net::make_buffer({2}), 0);
  EXPECT_NE(c.lookup(1, 1), nullptr);  // promote 1; 2 is now LRU
  c.store(3, asp::net::make_buffer({3}), 2);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_NE(c.lookup(1, 3), nullptr);
  EXPECT_EQ(c.lookup(2, 3), nullptr) << "coldest entry must be the one evicted";
  EXPECT_NE(c.lookup(3, 3), nullptr);
}

TEST(CacheStore, RefillReplacesBodyAndRefreshesTtl) {
  CacheStore c;
  c.configure(4, 100);
  c.store(5, asp::net::make_buffer({1}), 0);
  c.store(5, asp::net::make_buffer({2, 2}), 80);  // refresh at t=80
  const asp::net::Buffer* b = c.lookup(5, 150);   // stale under the old fill
  ASSERT_NE(b, nullptr);
  EXPECT_EQ((*b)->size(), 2u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(CacheStore, ReconfigureClearsResidencyKeepsCounters) {
  CacheStore c;
  c.configure(4, 0);
  c.store(1, asp::net::make_buffer({1}), 0);
  EXPECT_NE(c.lookup(1, 1), nullptr);
  c.configure(8, 0);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.stats().hits, 1u) << "counters survive reconfiguration";
}

TEST(CacheStore, KeyOfSeparatesFields) {
  // "GET /ab" vs "GET /a" + "b…" must not collide: fields are delimited.
  EXPECT_NE(CacheStore::key_of("GET", 1, "/ab"), CacheStore::key_of("GETb", 1, "/a"));
  EXPECT_NE(CacheStore::key_of("GET", 1, "/a"), CacheStore::key_of("GET", 2, "/a"));
  EXPECT_NE(CacheStore::key_of(std::uint64_t{1}, 2), CacheStore::key_of(std::uint64_t{2}, 1));
}

// --- the ASP itself ----------------------------------------------------------

TEST(CacheProxyAsp, PassesAllFiveAnalyses) {
  // Unlike the load-balancing gateway, the cache proxy is fully verifiable:
  // hit replies ride the destination-preserving `hit` channel, so the global
  // termination scan never sees a changed cycle, and every raising primitive
  // is wrapped in try. The cost analysis must also clear the budget.
  auto report = planp::analyze(
      planp::typecheck(planp::parse(asp_source("cache_proxy"))));
  EXPECT_TRUE(report.local_termination);
  EXPECT_TRUE(report.global_termination) << report.global_termination_detail;
  EXPECT_TRUE(report.guaranteed_delivery) << report.delivery_detail;
  EXPECT_TRUE(report.linear_duplication) << report.duplication_detail;
  EXPECT_TRUE(report.cost_bounded) << report.cost_detail;
  EXPECT_TRUE(report.accepted());
}

// --- experiment: offload, equivalence, chaos, determinism --------------------

CacheExperiment::Options small_opts(CacheMode mode) {
  CacheExperiment::Options o;
  o.mode = mode;
  o.client_machines = 3;
  o.processes_per_machine = 2;
  o.trace_accesses = 4'000;
  o.trace_files = 50;       // hot universe: high hit ratio
  o.cache_entries = 64;
  return o;
}

TEST(CacheExperiment, ProxyOffloadsOrigin) {
  CacheExperiment uncached(small_opts(CacheMode::kNoCache));
  auto base = uncached.run(5.0);
  ASSERT_GT(base.completed, 100u);
  // Every completion crossed the origin (a few more may be in flight).
  EXPECT_GE(base.origin_served, base.completed) << "no cache: all to origin";

  CacheExperiment cached(small_opts(CacheMode::kAspProxy));
  auto prox = cached.run(5.0);
  ASSERT_GT(prox.completed, 100u);
  EXPECT_GT(prox.cache.hits, 0u);
  // The acceptance bar: a Zipf workload against a hot cache cuts origin
  // traffic at least in half per completed request.
  double base_ratio = static_cast<double>(base.origin_served) /
                      static_cast<double>(base.completed);
  double prox_ratio = static_cast<double>(prox.origin_served) /
                      static_cast<double>(prox.completed);
  EXPECT_LT(prox_ratio, base_ratio / 2.0)
      << "origin=" << prox.origin_served << " completed=" << prox.completed;
}

TEST(CacheExperiment, PlanpAndNativeProxiesAreByteEquivalent) {
  std::map<std::string, std::vector<std::uint8_t>> asp_bodies, native_bodies;
  planp::CacheStore::Stats asp_stats, native_stats;
  for (CacheMode mode : {CacheMode::kAspProxy, CacheMode::kNativeProxy}) {
    auto& bodies = mode == CacheMode::kAspProxy ? asp_bodies : native_bodies;
    CacheExperiment exp(small_opts(mode));
    for (auto& pool : exp.pools()) {
      pool->on_response([&bodies](const std::string& path,
                                  const std::vector<std::uint8_t>& body) {
        auto it = bodies.find(path);
        if (it == bodies.end()) {
          bodies.emplace(path, body);
        } else {
          EXPECT_EQ(it->second, body) << "response for " << path
                                      << " changed between deliveries";
        }
      });
    }
    auto r = exp.run(3.0);
    ASSERT_GT(r.completed, 50u) << cache_mode_name(mode);
    EXPECT_GT(r.cache.hits, 0u) << cache_mode_name(mode);
    (mode == CacheMode::kAspProxy ? asp_stats : native_stats) = r.cache;
  }
  // Same policy, same wire bytes: every path both rigs saw must agree, and
  // every body must be the origin-canonical one (hits are not stale blends).
  ASSERT_FALSE(asp_bodies.empty());
  for (const auto& [path, body] : asp_bodies) {
    EXPECT_EQ(body, cache_response_body(path)) << path;
    auto it = native_bodies.find(path);
    if (it != native_bodies.end()) EXPECT_EQ(it->second, body) << path;
  }
  // Identical closed-loop schedules: the two proxies see the same requests,
  // so the cache verdicts line up exactly.
  EXPECT_EQ(asp_stats.hits, native_stats.hits);
  EXPECT_EQ(asp_stats.misses, native_stats.misses);
  EXPECT_EQ(asp_stats.fills, native_stats.fills);
}

TEST(CacheExperiment, ConvergesUnderTenPercentLoss) {
  CacheExperiment exp(small_opts(CacheMode::kAspProxy));
  asp::net::Medium* lan = exp.network().find_medium("origin-lan");
  ASSERT_NE(lan, nullptr);
  asp::net::Impairments imp;
  imp.loss_rate = 0.10;
  imp.seed = 41;
  lan->set_impairments(imp);
  auto r = exp.run(10.0);
  EXPECT_GT(lan->dropped_loss(), 0u) << "the chaos scenario must actually drop";
  // Losses cost watchdog timeouts, but the pools keep making progress and
  // the cache keeps serving hits (a hit never crosses the lossy origin LAN).
  EXPECT_GT(r.completed, 200u);
  EXPECT_GT(r.cache.hits, 0u);
}

struct CacheOutcome {
  CacheRunResult result;
};

CacheOutcome run_sharded(int shards) {
  CacheExperiment exp(small_opts(CacheMode::kAspProxy));
  std::unique_ptr<asp::net::ParallelExecutor> exec;
  if (shards > 1) {
    // 3 client access links are cuttable: clients + origin complex = 4 islands.
    exec = std::make_unique<asp::net::ParallelExecutor>(exp.network(), shards);
    EXPECT_GE(exec->shard_count(), 2);
  }
  return CacheOutcome{exp.run(5.0)};
}

TEST(CacheExperiment, ShardedCacheCountersEqualSerial) {
  CacheOutcome serial = run_sharded(1);
  CacheOutcome sharded = run_sharded(4);
  EXPECT_EQ(serial.result.completed, sharded.result.completed);
  EXPECT_EQ(serial.result.failed, sharded.result.failed);
  EXPECT_EQ(serial.result.origin_served, sharded.result.origin_served);
  EXPECT_EQ(serial.result.cache.hits, sharded.result.cache.hits);
  EXPECT_EQ(serial.result.cache.misses, sharded.result.cache.misses);
  EXPECT_EQ(serial.result.cache.fills, sharded.result.cache.fills);
  EXPECT_EQ(serial.result.cache.evictions, sharded.result.cache.evictions);
  EXPECT_GT(serial.result.cache.hits, 0u);
}

}  // namespace
}  // namespace asp::apps
