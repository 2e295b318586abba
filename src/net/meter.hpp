// Sliding-window bandwidth measurement.
//
// The audio-adaptation ASP (paper §3.1) decides quality from bandwidth
// measured *locally on the router*, so meters hang off the media a router
// reads: an Ethernet segment's aggregate meter and a point-to-point link's
// per-direction pair. Interfaces carry none.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "net/time.hpp"

namespace asp::net {

/// Records (time, bytes) samples and reports the average bit rate over a
/// trailing window. O(1) amortized per record.
///
/// Samples live in a power-of-two ring. The first kInline of them sit inside
/// the meter itself, so building a meter, or lightly using one, never touches
/// the heap; a busier meter doubles onto the heap and keeps that buffer.
/// A meter stays where it was built: nothing copies or moves one.
class BandwidthMeter {
 public:
  explicit BandwidthMeter(SimTime window = kNsPerSec) : window_(window) {}

  BandwidthMeter(const BandwidthMeter&) = delete;
  BandwidthMeter& operator=(const BandwidthMeter&) = delete;

  void record(SimTime t, std::uint64_t bytes) {
    if (!seen_sample_) {
      seen_sample_ = true;
      first_sample_time_ = t;
    }
    if (size_ == cap_) grow();
    data()[(head_ + size_) & (cap_ - 1)] = {t, bytes};
    ++size_;
    total_bytes_ += bytes;
    evict(t);
  }

  /// Average bits/sec over the trailing window ending at `now`.
  ///
  /// Before a full window of history exists, the divisor is the elapsed time
  /// since the first sample rather than the whole window — dividing by the
  /// full window would underreport the rate during start-up (the §3.1
  /// adaptation ASP reads this meter from the first packet onwards). A floor
  /// of 1 ms (clamped to the window) keeps the first instants finite.
  double rate_bps(SimTime now) {
    evict(now);
    if (!seen_sample_) return 0;
    SimTime elapsed = now > first_sample_time_ ? now - first_sample_time_ : 0;
    SimTime floor = window_ < kNsPerMs ? window_ : kNsPerMs;
    SimTime effective = elapsed < floor ? floor : (elapsed > window_ ? window_ : elapsed);
    return static_cast<double>(total_bytes_) * 8.0 / to_seconds(effective);
  }

  std::uint64_t window_bytes(SimTime now) {
    evict(now);
    return total_bytes_;
  }

  SimTime window() const { return window_; }

 private:
  struct Sample {
    SimTime time;
    std::uint64_t bytes;
  };
  static constexpr std::uint32_t kInline = 8;  // a power of two

  Sample* data() { return heap_ ? heap_.get() : inline_; }
  const Sample* data() const { return heap_ ? heap_.get() : inline_; }

  void evict(SimTime now) {
    SimTime cutoff = now > window_ ? now - window_ : 0;
    const Sample* s = data();
    while (size_ != 0 && s[head_].time < cutoff) {
      total_bytes_ -= s[head_].bytes;
      head_ = (head_ + 1) & (cap_ - 1);
      --size_;
    }
  }

  /// Unrolls the ring, oldest first, into a buffer twice the size.
  void grow() {
    auto bigger = std::make_unique<Sample[]>(std::size_t{cap_} * 2);
    unroll_into(bigger.get());
    heap_ = std::move(bigger);
    cap_ *= 2;
    head_ = 0;
  }

  void unroll_into(Sample* out) const {
    const Sample* s = data();
    for (std::uint32_t i = 0; i < size_; ++i) out[i] = s[(head_ + i) & (cap_ - 1)];
  }

  SimTime window_ = kNsPerSec;
  std::uint64_t total_bytes_ = 0;
  bool seen_sample_ = false;
  SimTime first_sample_time_ = 0;
  std::uint32_t cap_ = kInline;  // ring capacity, a power of two
  std::uint32_t head_ = 0;       // index of the oldest sample
  std::uint32_t size_ = 0;
  std::unique_ptr<Sample[]> heap_;  // null while the ring is inline_
  Sample inline_[kInline] = {};
};

}  // namespace asp::net
