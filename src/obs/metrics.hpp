// Observability: a lightweight metrics subsystem (paper-evaluation plumbing).
//
// The paper's whole evaluation is quantitative — codegen latency (Figure 3),
// per-router bandwidth adaptation (Figures 5-7), HTTP cluster throughput
// (Figure 8) — so every layer of this reproduction reports into a
// MetricsRegistry, and every bench snapshots the registry to a
// machine-readable BENCH_<name>.json next to its stdout report.
//
// Instruments:
//   Counter    monotone uint64 (packets, bytes, errors).
//   Gauge      last-written double (levels, rates).
//   Histogram  fixed log2-bucket distribution with p50/p90/p99 estimates
//              (latencies in microseconds, sizes in bytes).
//
// Names are hierarchical, slash-separated, lowercase:
//   node/<node-name>/<layer>/<metric>     e.g. node/router/asp/packets_handled
//   planp/<stage>/<metric>                e.g. planp/jit/codegen_us
// Units ride in the final component (_us, _bytes, _bps) so exported JSON is
// self-describing.
//
// A process-wide default registry (obs::registry()) collects everything; the
// simulator's nodes and the PLAN-P pipeline register into it keyed by node
// name, so metrics accumulate across Network instances within one process
// (benches construct many). Components that need exact per-instance figures
// capture a baseline at construction and report deltas (see
// runtime::AspRuntime::stats()).
//
// Thread-safety (see DESIGN.md §6f): any shard thread may bump a Counter
// through a cached pointer. Each bound shard thread owns one single-writer
// cell of every Counter (indexed by its mem shard id, see bind_counter_cell),
// so an increment is a plain load and store with no lock prefix; value()
// sums the cells, exact at barriers. A Gauge is a relaxed atomic, last write
// wins. Instrument *creation* (counter()/gauge()/
// histogram()) takes the registry mutex, so a runtime install on one shard
// can mint instruments while other shards keep incrementing theirs.
// Histograms are NOT atomic: each histogram must be observed from a single
// shard (all of ours are per-node, and a node lives on exactly one shard).
// Whole-registry snapshots (to_json, counters(), reset) are barrier-only:
// call them when no shard is mid-window (before run, after run, or from the
// coordinator at a window barrier).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "obs/relaxed.hpp"

namespace asp::obs {

namespace detail {
// The calling thread's Counter cell; -1 while unbound.
inline constinit thread_local int t_counter_cell = -1;
}  // namespace detail

/// Binds the calling thread to Counter cell `id` (-1 unbinds). The id must
/// be held by no other live thread: mem::bind_shard passes the thread's
/// shard id, which its registry hands out exclusively, and unbinds before
/// releasing it.
inline void bind_counter_cell(int id) { detail::t_counter_cell = id; }

/// Monotonically increasing event count. Concurrent inc() from any thread,
/// exact total at barriers. Threads bound to cells 0..kCells-1 write their
/// own single-writer cell; every other thread (unbound, or a shard id past
/// the last cell) adds into one atomic overflow cell.
class Counter {
 public:
  static constexpr int kCells = 8;

  void inc(std::uint64_t n = 1) {
    const auto k = static_cast<unsigned>(detail::t_counter_cell);
    if (k < kCells) {
      cells_[k] += n;
    } else {
      overflow_ += n;
    }
  }
  std::uint64_t value() const {
    std::uint64_t v = overflow_.load();
    for (const SingleWriterU64& c : cells_) v += c.load();
    return v;
  }
  /// Barrier-only, like every whole-instrument write.
  void reset() {
    for (SingleWriterU64& c : cells_) c = 0;
    overflow_ = 0;
  }

 private:
  SingleWriterU64 cells_[kCells];
  RelaxedU64 overflow_;
};

/// Last-written instantaneous value. Thread-safe (relaxed atomic): set() is a
/// plain store, add() a CAS loop; last writer wins across shards.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0); }

 private:
  std::atomic<double> value_{0};
};

/// Log-linear (HDR-style) histogram over non-negative values.
///
/// A value v is quantized to an integer tick u = floor(v * 16). Ticks 0..31
/// (v < 2) get one bucket each; above that every octave of ticks
/// [2^m, 2^(m+1)) is split into 16 equal buckets, so no bucket is wider than
/// 1/16 of its lower bound. Boundaries are integers in tick space, so
/// bucketing is exact and deterministic (shard merges and byte-identical
/// snapshots are unaffected). For microsecond latencies that is 62.5 ns
/// resolution below 2 us and 6.25% above, fine enough for p50 and p99 of a
/// per-packet cost to differ. The last bucket also takes every value past
/// its nominal range (v >= 2^36).
///
/// Exact count/sum/min/max are kept alongside, and quantile() interpolates
/// linearly inside the selected bucket with the bucket bounds clamped to the
/// observed [min, max] (tests/obs_metrics_test.cpp pins the accuracy down).
///
/// JSON (to_json): {"count", "sum", "min", "max", "mean", "p50", "p90",
/// "p99", "buckets": {"<upper>": n, ...}} where "buckets" lists only the
/// non-empty buckets, each keyed by its exclusive upper bound in value units:
/// the bucket holds n observations v with lower <= v < upper, lower being
/// the previous bucket's upper bound (bucket_lower_bound).
class Histogram {
 public:
  static constexpr int kSubBits = 4;  // 16 linear sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kLinear = 2 * kSub;  // ticks 0..31: one bucket each
  static constexpr int kOctaves = 35;       // tick octaves 2^5 .. 2^39
  static constexpr int kBuckets = kLinear + kOctaves * kSub;

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0; }

  /// Estimated value at quantile q in [0, 1]. 0 when empty.
  double quantile(double q) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }
  /// Bucket i covers [bucket_lower_bound(i), bucket_upper_bound(i)).
  static double bucket_lower_bound(int i);
  static double bucket_upper_bound(int i);
  /// The bucket a value lands in.
  static int bucket_of(double v);

  void reset() { *this = Histogram{}; }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Owns every instrument, keyed by hierarchical name. Instruments are created
/// on first access and live as long as the registry; returned references stay
/// valid across later registrations (std::map node stability).
///
/// Thread-safety: creation lookups lock `mu_` (cold path — callers cache the
/// returned pointer/reference and then increment lock-free). The map
/// accessors counters()/gauges()/histograms(), to_json and reset() read the
/// maps unlocked and are barrier-only under the parallel executor.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_[name];
  }
  Gauge& gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return gauges_[name];
  }
  Histogram& histogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return histograms_[name];
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Zeroes every instrument without invalidating cached references.
  void reset();

 private:
  std::mutex mu_;  // guards map mutation only; instruments are lock-free
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// The process-wide default registry every layer reports into.
MetricsRegistry& registry();

/// Per-instance instrument mode. When ON (the default) every Node/Medium
/// registers its own node/<name>/... and medium/<name>/... instruments. The
/// scenario generators (src/scenario) turn it OFF around construction of
/// internet-scale topologies: 10^4 nodes x ~14 instruments would put ~10^5
/// entries in the registry and megabytes in every BENCH_*.json, so instead
/// all instances constructed while the mode is off share one aggregate set
/// (node/_agg/net/*, medium/_agg/*). Aggregate counters stay exact and
/// deterministic under the sharded executor (per-shard cells, summed on
/// read); per-instance statistics remain available on the objects
/// themselves. Setup-time only: flip it before constructing a topology,
/// never while a simulation runs.
bool instance_metrics_enabled();
void set_instance_metrics_enabled(bool on);

/// RAII guard: turns per-instance instruments off for a construction scope.
class ScopedCoarseMetrics {
 public:
  ScopedCoarseMetrics() : prev_(instance_metrics_enabled()) {
    set_instance_metrics_enabled(false);
  }
  ~ScopedCoarseMetrics() { set_instance_metrics_enabled(prev_); }
  ScopedCoarseMetrics(const ScopedCoarseMetrics&) = delete;
  ScopedCoarseMetrics& operator=(const ScopedCoarseMetrics&) = delete;

 private:
  bool prev_;
};

/// Serializes a registry as deterministic (name-sorted) JSON:
///   {"counters": {...}, "gauges": {...},
///    "histograms": {"<name>": {"count": .., "sum": .., "min": .., "max": ..,
///                              "mean": .., "p50": .., "p90": .., "p99": ..,
///                              "buckets": {"<upper-bound>": <count>, ...}}}}
std::string to_json(const MetricsRegistry& reg);

/// Writes to_json(reg) to `path`. Returns false on I/O failure.
bool write_json(const MetricsRegistry& reg, const std::string& path);

/// Bench exit hook: snapshots the default registry to BENCH_<bench_name>.json
/// in the working directory and prints the path. Returns the path ("" on
/// failure).
std::string write_bench_json(const std::string& bench_name);

/// Bench-harness hygiene: runs `sample` `warmup` times discarded (cache and
/// branch-predictor warm-up), then `reps` more times, records the median in
/// gauge `name` of the default registry, and returns it. Medians over a
/// handful of repetitions are what the bench exporters should publish —
/// one-shot readings on a shared machine are noise.
double record_stabilized_gauge(const std::string& name,
                               const std::function<double()>& sample,
                               int warmup = 1, int reps = 5);

}  // namespace asp::obs
