// Counter cells for statistics shared across shard threads.
//
// The parallel executor (net/exec.hpp) runs one thread per shard. Two cell
// kinds cover its statistics, chosen by who writes:
//
//   SingleWriterU64  exactly one thread writes at a time (a shard's own
//                    pool counters, a link end's delivery count, one shard's
//                    cell of an obs::Counter). An increment is a relaxed load
//                    plus a relaxed store: no lock prefix.
//   RelaxedU64       foreign threads write too (remote frees, a cut link's
//                    drop counts). An increment is one `lock add`, which costs
//                    tens of cycles even uncontended, so these stay off the
//                    serial per-packet path.
//
// Relaxed is enough for both: every field is a pure sum that no reader acts
// on mid-window, and window barriers (acq/rel on the executor's
// synchronization) order everything that matters. Totals are exact and
// deterministic at barriers regardless of thread interleaving. A
// single-writer cell changing writers (a thread exits and another binds the
// same shard id) is ordered by the mutex that hands the id over.
#pragma once

#include <atomic>
#include <cstdint>

namespace asp::obs {

/// Multi-writer uint64 cell with relaxed atomic ops and value semantics on
/// copy (copies snapshot the current value).
class RelaxedU64 {
 public:
  RelaxedU64() = default;
  explicit RelaxedU64(std::uint64_t v) : v_(v) {}
  RelaxedU64(const RelaxedU64& o) : v_(o.load()) {}
  RelaxedU64& operator=(const RelaxedU64& o) {
    store(o.load());
    return *this;
  }
  RelaxedU64& operator=(std::uint64_t v) {
    store(v);
    return *this;
  }

  std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  void store(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  operator std::uint64_t() const { return load(); }  // NOLINT: drop-in reads

  RelaxedU64& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedU64& operator--() {
    v_.fetch_sub(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedU64& operator+=(std::uint64_t n) {
    v_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }
  RelaxedU64& operator-=(std::uint64_t n) {
    v_.fetch_sub(n, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// uint64 cell written by one thread at a time and readable from any thread.
/// Updates are read-then-store, so two concurrent writers would lose counts;
/// readers on other threads see a torn-free, possibly stale value.
class SingleWriterU64 {
 public:
  SingleWriterU64& operator=(std::uint64_t v) {
    store(v);
    return *this;
  }

  std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  void store(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  operator std::uint64_t() const { return load(); }  // NOLINT: drop-in reads

  SingleWriterU64& operator++() { return *this += 1; }
  SingleWriterU64& operator+=(std::uint64_t n) {
    store(load() + n);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

}  // namespace asp::obs
