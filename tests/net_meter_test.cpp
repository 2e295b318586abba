// Regression tests for BandwidthMeter's start-up window (the §3.1 adaptation
// ASP reads the meter from the first packet onwards; dividing by the full
// window before one window of history exists underreported bandwidth and
// skewed the early adaptation decision), a differential test of the ring
// meter against a deque reference model, Medium::utilization(), and the
// reader-armed media meters (a medium measures only once armed).
#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <utility>
#include <vector>

#include "net/meter.hpp"
#include "net/network.hpp"
#include "net/node.hpp"

namespace asp::net {
namespace {

TEST(MeterStartup, EarlyWindowRateIsNotUnderreported) {
  BandwidthMeter m(kNsPerSec);  // 1 s window
  // A steady 100 kb/s stream: 125 bytes every 10 ms.
  for (int i = 0; i < 10; ++i) m.record(millis(10) * i, 125);
  // After only 100 ms of history the meter must already read ~100 kb/s; the
  // old full-window divisor reported 10 kb/s here.
  double rate = m.rate_bps(millis(100));
  EXPECT_NEAR(rate, 100e3, 20e3);
  EXPECT_GT(rate, 50e3) << "start-up rate underreported";
}

TEST(MeterStartup, FirstInstantIsFiniteViaFloor) {
  BandwidthMeter m(kNsPerSec);
  m.record(0, 1250);
  // Queried at the very instant of the first sample: the 1 ms floor keeps
  // the rate finite (1250 bytes / 1 ms = 10 Mb/s), not a division by zero.
  double rate = m.rate_bps(0);
  EXPECT_DOUBLE_EQ(rate, 10e6);
}

TEST(MeterStartup, ConvergesToWindowAverageAfterFullWindow) {
  BandwidthMeter m(kNsPerSec);
  // 100 kb/s for two full windows.
  for (int i = 0; i < 200; ++i) m.record(millis(10) * i, 125);
  EXPECT_NEAR(m.rate_bps(seconds(2)), 100e3, 5e3);
}

TEST(MeterStartup, EmptyMeterStaysZero) {
  BandwidthMeter m(kNsPerSec);
  EXPECT_DOUBLE_EQ(m.rate_bps(0), 0.0);
  EXPECT_DOUBLE_EQ(m.rate_bps(seconds(10)), 0.0);
}

TEST(MeterStartup, TinyWindowFloorsAtTheWindowItself) {
  BandwidthMeter m(micros(100));  // window shorter than the 1 ms floor
  m.record(0, 100);
  // The floor is clamped to the window, so the rate never reads below the
  // window-average the old code would have produced.
  EXPECT_DOUBLE_EQ(m.rate_bps(0), 100 * 8.0 / to_seconds(micros(100)));
}

TEST(MeterStartup, IdleGapAfterStartupStillEvicts) {
  BandwidthMeter m(kNsPerSec);
  m.record(0, 1000);
  // Long after the sample left the window, the rate is zero again.
  EXPECT_DOUBLE_EQ(m.rate_bps(seconds(5)), 0.0);
}

// --- differential test against the deque-based meter ------------------------
//
// BandwidthMeter keeps its samples in a ring that starts inline and doubles
// onto the heap. DequeMeter is the std::deque implementation it replaced, kept
// here verbatim as the reference model: for any sequence of operations both
// must report bit-identical rates and byte counts.

class DequeMeter {
 public:
  explicit DequeMeter(SimTime window) : window_(window) {}

  void record(SimTime t, std::uint64_t bytes) {
    if (!seen_sample_) {
      seen_sample_ = true;
      first_sample_time_ = t;
    }
    samples_.push_back({t, bytes});
    total_bytes_ += bytes;
    evict(t);
  }

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

 private:
  void evict(SimTime now) {
    SimTime cutoff = now > window_ ? now - window_ : 0;
    while (!samples_.empty() && samples_.front().time < cutoff) {
      total_bytes_ -= samples_.front().bytes;
      samples_.pop_front();
    }
  }

  struct Sample {
    SimTime time;
    std::uint64_t bytes;
  };
  SimTime window_;
  std::deque<Sample> samples_;
  std::uint64_t total_bytes_ = 0;
  bool seen_sample_ = false;
  SimTime first_sample_time_ = 0;
};

// Drives a BandwidthMeter and a DequeMeter through the same seeded random
// operations and requires exact agreement after every query. The mix covers
// bursts at one instant (inline -> heap growth), steady streams (ring wrap),
// idle gaps longer than the window (everything evicted) and queries slightly
// in the past.
void run_differential(std::uint32_t seed, SimTime window, int steps) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint64_t n) { return rng() % n; };
  BandwidthMeter m(window);
  DequeMeter ref(window);
  SimTime now = pick(window);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " window " << window
                                      << " step " << step << " now " << now);
    switch (pick(8)) {
      case 0: {  // burst at one instant: grows the ring past its inline chunk
        std::uint64_t n = 1 + pick(300);
        for (std::uint64_t i = 0; i < n; ++i) {
          std::uint64_t bytes = pick(2000);
          m.record(now, bytes);
          ref.record(now, bytes);
        }
        break;
      }
      case 1:  // idle gap: every sample leaves the window
        now += window + 1 + pick(3 * window);
        break;
      case 2: {  // query a little in the past (never evicts more than now)
        SimTime back = pick(window / 4 + 1);
        SimTime t = now > back ? now - back : 0;
        ASSERT_EQ(m.rate_bps(t), ref.rate_bps(t));
        break;
      }
      default: {  // steady stream with small, sometimes zero, gaps
        std::uint64_t bytes = pick(1500);
        now += pick(window / 16 + 2);
        m.record(now, bytes);
        ref.record(now, bytes);
        break;
      }
    }
    ASSERT_EQ(m.window_bytes(now), ref.window_bytes(now));
    ASSERT_EQ(m.rate_bps(now), ref.rate_bps(now));
  }
}

TEST(MeterDifferential, MatchesDequeMeterOnRandomSequences) {
  // Windows below, at and above the 1 ms floor, up to the 0.5 s the media use.
  const SimTime windows[] = {micros(100), micros(999), kNsPerMs, millis(7),
                             kNsPerSec / 2, kNsPerSec};
  std::uint32_t seed = 1;
  for (SimTime w : windows) {
    for (int rep = 0; rep < 4; ++rep) run_differential(seed++, w, 2000);
  }
}

TEST(MeterDifferential, RingWrapsAcrossGrowth) {
  // 12 samples live at once (one every 1 ms, 11.5 ms window) forces one
  // doubling to 16; a long stream then wraps head past the end many times.
  BandwidthMeter m(micros(11'500));
  DequeMeter ref(micros(11'500));
  for (int i = 0; i < 1000; ++i) {
    SimTime t = millis(1) * static_cast<SimTime>(i);
    auto bytes = static_cast<std::uint64_t>(100 + i % 37);
    m.record(t, bytes);
    ref.record(t, bytes);
    ASSERT_EQ(m.window_bytes(t), ref.window_bytes(t)) << i;
    ASSERT_EQ(m.rate_bps(t), ref.rate_bps(t)) << i;
  }
  // The wrapped ring holds its samples oldest first: evicting them one by
  // one gives the same running totals.
  for (SimTime t = millis(999); t < millis(1012); t += micros(500)) {
    ASSERT_EQ(m.window_bytes(t), ref.window_bytes(t)) << t;
  }
}

// PointToPointLink::utilization() sums its two direction meters: traffic
// both ways must read as the sum of what each sender put on the wire.
TEST(MeterDifferential, PointToPointUtilizationSumsBothDirections) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  PointToPointLink& link = net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  link.arm_meter();  // media measure only once a reader arms them
  UdpSocket sink_a(a, 7, nullptr);
  UdpSocket sink_b(b, 7, nullptr);

  // a -> b: 1250 B every 4 ms (2.5 Mb/s); b -> a: 625 B every 5 ms (1 Mb/s).
  DequeMeter ab(kNsPerSec / 2), ba(kNsPerSec / 2);
  auto send = [&](Node& from, Ipv4Addr to, std::size_t payload, DequeMeter& ref) {
    Packet p = Packet::make_udp(from.addr(), to, 9999, 7,
                                std::vector<std::uint8_t>(payload));
    ref.record(from.events().now(), p.wire_size());
    from.send_ip(std::move(p));
  };
  for (int i = 0; i < 200; ++i) {
    net.events().schedule_at(millis(4) * static_cast<SimTime>(i),
                             [&] { send(a, b.addr(), 1222, ab); });
  }
  for (int i = 0; i < 160; ++i) {
    net.events().schedule_at(millis(5) * static_cast<SimTime>(i),
                             [&] { send(b, a.addr(), 597, ba); });
  }

  // Mid start-up (elapsed < window), then with a full window evicting.
  for (SimTime t : {millis(300), millis(750)}) {
    net.run_until(t);
    SimTime now = net.now();
    double want = (ab.rate_bps(now) + ba.rate_bps(now)) / 10e6;
    EXPECT_DOUBLE_EQ(link.utilization(), want) << t;
    EXPECT_GT(link.utilization(), ab.rate_bps(now) / 10e6) << "b -> a traffic not counted";
    EXPECT_NEAR(link.utilization(), 0.35, 0.02) << t;
  }
}

// --- reader-armed media meters ------------------------------------------------

// A link nobody armed records nothing and holds no meter storage: the
// direction pair lives out of line and is allocated only by arm_meter().
TEST(MeterArming, UnarmedLinkRecordsNothing) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  PointToPointLink& link = net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  UdpSocket sink_b(b, 7, nullptr);
  auto send = [&] {
    a.send_ip(Packet::make_udp(a.addr(), b.addr(), 9999, 7,
                               std::vector<std::uint8_t>(1222)));
  };
  for (int i = 0; i < 100; ++i) {
    net.events().schedule_at(millis(2) * static_cast<SimTime>(i), send);
  }
  net.run_until(millis(200));
  EXPECT_EQ(link.delivered_packets(), 100u);
  EXPECT_FALSE(link.meter_armed());

  // The first read arms the link and measures from that moment on: the
  // traffic before it was never recorded.
  EXPECT_EQ(link.utilization(), 0.0);
  EXPECT_TRUE(link.meter_armed());
  for (int i = 0; i < 100; ++i) {
    net.events().schedule_at(millis(200) + millis(2) * static_cast<SimTime>(i), send);
  }
  net.run_until(millis(400));
  EXPECT_NEAR(link.utilization(), 0.5, 0.02);
}

// A medium armed before traffic reads, bit for bit, what the always-on meter
// read. The reference is DequeMeter above fed every frame the medium put on
// the wire at its sender's clock: one meter per sending end on a link, one
// aggregate on a segment. Seeded bursts from either end, short and
// longer-than-window gaps, and a query after every step; queues are deep
// enough that no frame is dropped before the meter.
void replay_armed_medium(std::uint32_t seed, bool segment) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint64_t n) { return rng() % n; };
  constexpr double kBps = 10e6;
  constexpr std::uint64_t kDeepQueue = std::uint64_t{1} << 30;
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Medium* m = nullptr;
  if (segment) {
    EthernetSegment& seg = net.segment("lan", kBps, micros(50), kDeepQueue);
    net.attach(a, seg, ip("192.168.1.1"));
    net.attach(b, seg, ip("192.168.1.2"));
    m = &seg;
  } else {
    m = &net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), kBps, millis(1), kDeepQueue);
  }
  m->arm_meter();
  UdpSocket sink_a(a, 7, nullptr);
  UdpSocket sink_b(b, 7, nullptr);
  DequeMeter ref[2] = {DequeMeter(Medium::kMeterWindow),
                       DequeMeter(Medium::kMeterWindow)};

  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " segment " << segment
                                      << " step " << step);
    switch (pick(4)) {
      case 0: {  // burst from one end at one instant
        const int end = static_cast<int>(pick(2));
        Node& from = end == 0 ? a : b;
        Node& to = end == 0 ? b : a;
        for (std::uint64_t i = 0, n = 1 + pick(40); i < n; ++i) {
          Packet p = Packet::make_udp(from.addr(), to.addr(), 9999, 7,
                                      std::vector<std::uint8_t>(pick(1400)));
          ref[segment ? 0 : end].record(net.now(), p.wire_size());
          from.send_ip(std::move(p));
        }
        break;
      }
      case 1:  // idle gap: every sample leaves the window
        net.run_until(net.now() + Medium::kMeterWindow + 1 + pick(Medium::kMeterWindow));
        break;
      default:  // short gap
        net.run_until(net.now() + pick(Medium::kMeterWindow / 8 + 2));
        break;
    }
    const SimTime now = net.now();
    const double want = segment ? ref[0].rate_bps(now) / kBps
                                : (ref[0].rate_bps(now) + ref[1].rate_bps(now)) / kBps;
    ASSERT_EQ(m->utilization(), want);
  }
  net.run();
  EXPECT_EQ(m->dropped_packets(), 0u);
}

TEST(MeterDifferential, ArmedMediaMatchAlwaysOnMeter) {
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    replay_armed_medium(seed, /*segment=*/false);
    replay_armed_medium(seed, /*segment=*/true);
  }
}

}  // namespace
}  // namespace asp::net
