#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "mem/shard.hpp"

namespace asp::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker, enough to certify to_json() output: validates
// objects, strings, numbers and null (the only constructs the exporter
// emits), rejecting trailing garbage.
// ---------------------------------------------------------------------------
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return object();
    if (c == '"') return string();
    if (c == 'n') return literal("null");
    return number();
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(s_[pos_]) || s_[pos_] == '.' ||
                                s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(s_[pos_])) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Counter, CountsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

// Counter cells are single-writer: each shard-bound thread writes its own
// cell with a plain load and store, unbound threads share one atomic
// overflow cell. Eight threads bumping one shared counter and their own
// instance counters must still produce exact totals (cells indexed wrongly,
// or written by two threads, lose counts here).
TEST(Counter, ConcurrentShardThreadsCountExactly) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncs = 100'000;
  MetricsRegistry reg;
  Counter& shared = reg.counter("shared");
  std::vector<Counter*> own;
  for (int i = 0; i < kThreads; ++i) own.push_back(&reg.counter("own/" + std::to_string(i)));
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // The last thread stays unbound and counts through the overflow cell.
      if (i != kThreads - 1) mem::bind_shard(-1);
      for (std::uint64_t n = 0; n < kIncs; ++n) {
        shared.inc();
        own[static_cast<std::size_t>(i)]->inc(3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared.value(), kThreads * kIncs);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(own[static_cast<std::size_t>(i)]->value(), 3 * kIncs) << i;
  }
  shared.reset();
  EXPECT_EQ(shared.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(Histogram, ExactStatsAlongsideBuckets) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.observe(10);
  h.observe(20);
  h.observe(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 60.0);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 30.0);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, QuantilesOnUniformDistribution) {
  // 1..1000 uniformly: buckets at most 1/16 of an octave wide, with
  // in-bucket linear interpolation and min/max clamping, land within 1% of
  // the true quantile.
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.observe(v);
  EXPECT_NEAR(h.quantile(0.50), 500.0, 5.0);
  EXPECT_NEAR(h.quantile(0.90), 900.0, 9.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 9.9);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Histogram, SubMicrosecondSpreadSeparatesP50FromP99) {
  // A per-packet handler cost in microseconds: 98 packets between 0.3 and
  // 0.5 us, two slow ones at 1.5 us. All of it lies below 2 us, where the
  // buckets are 1/16 us wide, so p50 and p99 land in different buckets.
  Histogram h;
  for (int i = 0; i < 98; ++i) h.observe(0.3 + 0.2 * i / 97.0);
  h.observe(1.5);
  h.observe(1.5);
  EXPECT_NEAR(h.quantile(0.50), 0.4, 0.0625);
  EXPECT_GT(h.quantile(0.99), 1.0);
  EXPECT_NE(h.quantile(0.50), h.quantile(0.99));
}

TEST(Histogram, QuantileErrorBoundedAcrossOctaves) {
  // Geometric spread over six decades: each estimated quantile is within
  // one bucket (6.25% of the value above 2) of the exact order statistic.
  Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 600; ++i) values.push_back(std::pow(10.0, i / 100.0));
  for (double v : values) h.observe(v);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    double exact = values[static_cast<std::size_t>(q * values.size()) - 1];
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.0625) << "q=" << q;
  }
}

TEST(Histogram, QuantilesOnConstantDistribution) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(42.0);
  // Every observation sits in bucket [42, 44); clamping the interpolation to
  // the observed range makes the estimate exact.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 42.0);
}

TEST(Histogram, QuantilesOnBimodalDistribution) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(3.0);    // bucket [3, 3.125)
  for (int i = 0; i < 10; ++i) h.observe(900.0);  // bucket [896, 928)
  double p50 = h.quantile(0.50);
  EXPECT_GE(p50, 3.0);
  EXPECT_LT(p50, 3.125);
  // p99 interpolates inside the upper mode's bucket: bounded below by the
  // bucket floor and above by the observed max.
  double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 896.0);
  EXPECT_LE(p99, 900.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 900.0);  // clamped to max
}

TEST(Histogram, EdgeValues) {
  Histogram h;
  h.observe(0);
  h.observe(-5);  // clamped to 0
  h.observe(1);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_EQ(h.buckets()[0], 2u);   // bucket 0 covers [0, 1/16)
  EXPECT_EQ(h.buckets()[16], 1u);  // [1, 17/16)
  h.observe(1e300);                // past the range: the last bucket
  EXPECT_EQ(h.buckets()[Histogram::kBuckets - 1], 1u);
}

TEST(Histogram, BucketBoundaries) {
  // Linear below 2 (width 1/16), then 16 buckets per octave.
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_bound(0), 0.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper_bound(0), 0.0625);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_bound(32), 2.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper_bound(32), 2.125);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_bound(48), 4.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper_bound(47), 4.0);
  EXPECT_EQ(Histogram::bucket_of(2.0), 32);      // lower bounds are inclusive
  EXPECT_EQ(Histogram::bucket_of(2.124), 32);
  EXPECT_EQ(Histogram::bucket_of(2.125), 33);    // upper bounds exclusive
  EXPECT_EQ(Histogram::bucket_of(1024.0), 32 + 9 * 16);  // octave 2^14 ticks
  // Every bucket is contiguous with the next and no wider than 1/16 of its
  // lower bound once past the linear range.
  for (int i = 0; i + 1 < Histogram::kBuckets; ++i) {
    ASSERT_DOUBLE_EQ(Histogram::bucket_upper_bound(i), Histogram::bucket_lower_bound(i + 1));
    double lo = Histogram::bucket_lower_bound(i), hi = Histogram::bucket_upper_bound(i);
    ASSERT_EQ(Histogram::bucket_of(lo), i);
    if (i >= Histogram::kLinear) {
      ASSERT_LE(hi - lo, lo / 16.0) << i;
    }
  }
}

TEST(Registry, SameNameSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x/y");
  reg.counter("x/z").inc();  // interleaved registration must not move a
  Counter& b = reg.counter("x/y");
  a.inc();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 1u);
  // Different kinds may share a name without clashing.
  reg.gauge("x/y").set(7);
  EXPECT_EQ(reg.counter("x/y").value(), 1u);
}

TEST(Registry, ResetZeroesWithoutInvalidating) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Histogram& h = reg.histogram("h");
  c.inc(5);
  h.observe(3);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.inc();
  EXPECT_EQ(reg.counter("c").value(), 1u);
}

TEST(Json, ExportIsValidAndComplete) {
  MetricsRegistry reg;
  reg.counter("node/r/asp/packets_handled").inc(12);
  reg.gauge("node/r/net/load").set(0.75);
  Histogram& h = reg.histogram("planp/jit/codegen_us");
  for (int v = 1; v <= 100; ++v) h.observe(v);

  std::string json = to_json(reg);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"node/r/asp/packets_handled\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"planp/jit/codegen_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(Json, EmptyRegistryIsValid) {
  MetricsRegistry reg;
  std::string json = to_json(reg);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

TEST(Json, EscapesAwkwardNames) {
  MetricsRegistry reg;
  reg.counter("weird\"name\\with\nstuff").inc();
  std::string json = to_json(reg);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

TEST(Json, WriteFileRoundTrip) {
  MetricsRegistry reg;
  reg.counter("a").inc(3);
  std::string path = testing::TempDir() + "obs_metrics_test.json";
  ASSERT_TRUE(write_json(reg, path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  std::remove(path.c_str());
  std::string contents(buf, n);
  EXPECT_TRUE(JsonChecker(contents).valid()) << contents;
  EXPECT_NE(contents.find("\"a\": 3"), std::string::npos);
}

TEST(Registry, DefaultRegistryIsProcessWide) {
  Counter& c = registry().counter("obs_test/self");
  std::uint64_t before = c.value();
  registry().counter("obs_test/self").inc();
  EXPECT_EQ(c.value(), before + 1);
}

TEST(Registry, StabilizedGaugeRecordsMedianAfterWarmup) {
  int calls = 0;
  // Samples after the 2 warmup calls: 10, 50, 30, 1000, 20 -> median 30.
  double vals[] = {0, 0, 10, 50, 30, 1000, 20};
  double med = record_stabilized_gauge(
      "obs_test/stabilized", [&]() { return vals[calls++]; }, /*warmup=*/2,
      /*reps=*/5);
  EXPECT_EQ(calls, 7);
  EXPECT_DOUBLE_EQ(med, 30.0);
  EXPECT_DOUBLE_EQ(registry().gauge("obs_test/stabilized").value(), 30.0);
}

}  // namespace
}  // namespace asp::obs
