#include "net/trace.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "net/tcp.hpp"

namespace asp::net {
namespace {

TEST(Describe, UdpSummary) {
  Packet p = Packet::make_udp(ip("10.0.0.1"), ip("10.0.0.2"), 4321, 7, {1, 2, 3});
  EXPECT_EQ(describe(p), "10.0.0.1:4321 > 10.0.0.2:7 udp len=3 ttl=64");
}

TEST(Describe, TcpSynSummary) {
  TcpHeader h{1000, 80, 1, 0, tcpflag::kSyn, 0};
  Packet p = Packet::make_tcp(ip("1.1.1.1"), ip("2.2.2.2"), h, {});
  EXPECT_EQ(describe(p), "1.1.1.1:1000 > 2.2.2.2:80 tcp S seq=1 ack=0 len=0 ttl=64");
}

TEST(Describe, RawAndChannelTag) {
  Packet p = Packet::make_raw(ip("1.1.1.1"), ip("2.2.2.2"), {9});
  p.channel = "audio";
  EXPECT_EQ(describe(p), "1.1.1.1 > 2.2.2.2 raw len=1 ttl=64 chan=audio");
}

TEST(PacketTracer, RecordsArrivalsWithTimestamps) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  PacketTracer tracer;
  tracer.set_clock([&] { return net.now(); });
  tracer.attach(b);

  UdpSocket sink(b, 7, nullptr);
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, bytes_of("one"));
  src.send_to(b.addr(), 7, bytes_of("two"));
  net.run();

  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_GT(tracer.events()[0].time, 0u);
  EXPECT_LE(tracer.events()[0].time, tracer.events()[1].time);
  EXPECT_EQ(tracer.events()[0].node, "b");
  EXPECT_NE(tracer.events()[0].summary.find("udp"), std::string::npos);
}

TEST(PacketTracer, GrepFiltersBySummary) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  PacketTracer tracer;
  tracer.attach(b);
  UdpSocket s7(b, 7, nullptr);
  UdpSocket s8(b, 8, nullptr);
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, {});
  src.send_to(b.addr(), 8, {});
  src.send_to(b.addr(), 8, {});
  net.run();
  EXPECT_EQ(tracer.grep(":7 udp").size(), 1u);
  EXPECT_EQ(tracer.grep(":8 udp").size(), 2u);
  EXPECT_EQ(tracer.grep("tcp").size(), 0u);
}

TEST(PacketTracer, TracesTcpHandshake) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  PacketTracer at_b;
  at_b.set_clock([&] { return net.now(); });
  at_b.attach(b);

  b.tcp().listen(80, [](std::shared_ptr<TcpConnection> c) {
    c->on_data([c](const std::vector<std::uint8_t>&) { c->close(); });
  });
  auto c = a.tcp().connect(b.addr(), 80);
  c->on_established([&] {
    c->send("hi");
    c->close();
  });
  net.run_until(seconds(5));

  // b saw: SYN, ACK, data, FIN(+combinations of acks).
  EXPECT_GE(at_b.grep("tcp S seq").size(), 1u);  // the SYN
  EXPECT_GE(at_b.grep("F").size(), 1u);          // a FIN
  std::string dump = at_b.dump();
  EXPECT_NE(dump.find("tcp"), std::string::npos);
  EXPECT_NE(dump.find("] b"), std::string::npos);
}

TEST(RxTaps, TracerAndProbeCoexist) {
  // Regression: attach() used to take over the node's single rx tap, so a
  // tracer silently disabled any metrics probe (and vice versa). Taps are now
  // a multicast list.
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  int probed = 0;
  b.add_rx_tap([&](const Packet&, const Interface&) { ++probed; });
  PacketTracer tracer;
  tracer.attach(b);  // must not displace the probe

  UdpSocket sink(b, 7, nullptr);
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, bytes_of("one"));
  src.send_to(b.addr(), 7, bytes_of("two"));
  net.run();

  EXPECT_EQ(probed, 2);
  EXPECT_EQ(tracer.events().size(), 2u);
}

TEST(RxTaps, TwoTracersBothRecord) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  PacketTracer first, second;
  first.attach(b);
  second.attach(b);

  UdpSocket sink(b, 7, nullptr);
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, bytes_of("x"));
  net.run();

  EXPECT_EQ(first.events().size(), 1u);
  EXPECT_EQ(second.events().size(), 1u);
}

TEST(RxTaps, DeprecatedSetterClearsThenAdds) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  int old_tap = 0, new_tap = 0;
  b.add_rx_tap([&](const Packet&, const Interface&) { ++old_tap; });
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  b.set_rx_tap([&](const Packet&, const Interface&) { ++new_tap; });
#pragma GCC diagnostic pop

  UdpSocket sink(b, 7, nullptr);
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, bytes_of("x"));
  net.run();

  EXPECT_EQ(old_tap, 0);  // the shim keeps its replace-everything contract
  EXPECT_EQ(new_tap, 1);
}

TEST(PacketTracer, CapacityBoundIsEnforced) {
  PacketTracer tracer(100);
  Packet p = Packet::make_raw(ip("1.1.1.1"), ip("2.2.2.2"), {});
  for (int i = 0; i < 500; ++i) tracer.record(i + 1, "x", p);
  EXPECT_LE(tracer.events().size(), 100u);
  EXPECT_TRUE(tracer.truncated());
  // The newest events survive.
  EXPECT_EQ(tracer.events().back().time, 500u);
}

// A full tracer discards exactly one oldest event per new one, and events()
// lists what is left in arrival order — also when read, recorded into again,
// and read once more.
TEST(PacketTracer, OverflowDropsOneOldestPerEventInArrivalOrder) {
  PacketTracer tracer(5);
  Packet p = Packet::make_raw(ip("1.1.1.1"), ip("2.2.2.2"), {});
  auto times = [&] {
    std::vector<SimTime> out;
    for (const TraceEvent& e : tracer.events()) out.push_back(e.time);
    return out;
  };
  for (SimTime t = 1; t <= 5; ++t) tracer.record(t, "x", p);
  EXPECT_FALSE(tracer.truncated());
  EXPECT_EQ(times(), (std::vector<SimTime>{1, 2, 3, 4, 5}));

  tracer.record(6, "x", p);
  EXPECT_TRUE(tracer.truncated());
  EXPECT_EQ(times(), (std::vector<SimTime>{2, 3, 4, 5, 6}));

  for (SimTime t = 7; t <= 13; ++t) tracer.record(t, "x", p);
  EXPECT_EQ(times(), (std::vector<SimTime>{9, 10, 11, 12, 13}));
  EXPECT_EQ(tracer.grep("raw").front().time, 9u);
  EXPECT_EQ(tracer.dump().substr(0, 12), "[  0.000000]");

  tracer.clear();
  tracer.record(20, "x", p);
  EXPECT_EQ(times(), (std::vector<SimTime>{20}));
  EXPECT_TRUE(tracer.truncated());  // clear() forgets events, not the overflow
}


// Regression: attach() used to capture the clock eagerly (recording time=0
// for every arrival unless set_clock() was wired up separately). It now reads
// the node's own queue at arrival time, so timestamps are nonzero and
// monotone with no extra plumbing — and follow the node across shard rebinds.
TEST(PacketTracer, AttachAloneYieldsMonotoneNonzeroTimestamps) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  PacketTracer tracer;  // note: no set_clock()
  tracer.attach(b);

  UdpSocket sink(b, 7, nullptr);
  UdpSocket src(a, 9999, nullptr);
  for (int i = 0; i < 3; ++i) src.send_to(b.addr(), 7, bytes_of("ping"));
  net.run();

  ASSERT_EQ(tracer.events().size(), 3u);
  SimTime prev = 0;
  for (const TraceEvent& e : tracer.events()) {
    EXPECT_GT(e.time, 0u) << "arrival must carry the sim clock, not 0";
    EXPECT_GE(e.time, prev) << "timestamps must be monotone";
    prev = e.time;
  }
  EXPECT_GE(prev, millis(1)) << "at least the link delay has elapsed";
}

}  // namespace
}  // namespace asp::net
