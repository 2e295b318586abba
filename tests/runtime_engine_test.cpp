#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "net/tcp.hpp"

namespace asp::runtime {
namespace {

using asp::net::ip;
using asp::net::millis;
using asp::net::Network;
using asp::net::Node;
using asp::net::Packet;
using asp::net::PointToPointLink;
using asp::net::seconds;
using asp::net::UdpSocket;

TEST(AspRuntime, PassThroughWhenNothingMatches) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  rt.install("channel network(ps : unit, ss : unit, p : ip*tcp*blob) is "
             "(deliver(p); (ps, ss))");
  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet&) { ++got; });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();
  // The TCP-only protocol ignores UDP: default IP behaviour delivers it.
  EXPECT_EQ(got, 1);
  EXPECT_EQ(rt.stats().packets_passed, 1u);
  EXPECT_EQ(rt.stats().packets_handled, 0u);
}

TEST(AspRuntime, ChannelConsumesAndRedirects) {
  // A router ASP that redirects TCP traffic for 10.0.2.1 to 10.0.3.1.
  Network net;
  Node& a = net.add_node("a");
  Node& r = net.add_router("r");
  Node& b1 = net.add_node("b1");
  Node& b2 = net.add_node("b2");
  net.link(a, ip("10.0.1.1"), r, ip("10.0.1.254"), 10e6, millis(1));
  net.link(r, ip("10.0.2.254"), b1, ip("10.0.2.1"), 10e6, millis(1));
  net.link(r, ip("10.0.3.254"), b2, ip("10.0.3.1"), 10e6, millis(1));
  a.routes().add_default(0);
  b1.routes().add_default(0);
  b2.routes().add_default(0);

  AspRuntime rt(r);
  rt.install(R"(
channel network(ps : unit, ss : unit, p : ip*tcp*blob) is
  if ipDst(#1 p) = 10.0.2.1 then
    (OnRemote(network, (ipDestSet(#1 p, 10.0.3.1), #2 p, #3 p)); (ps, ss))
  else
    (OnRemote(network, p); (ps, ss))
)");

  std::string got1, got2;
  b1.tcp().listen(80, [&](std::shared_ptr<asp::net::TcpConnection> c) {
    c->on_data([&](asp::net::TcpConnection&, const std::vector<std::uint8_t>& d) {
      got1 += asp::net::string_of(d);
    });
  });
  b2.tcp().listen(80, [&](std::shared_ptr<asp::net::TcpConnection> c) {
    c->on_data([&](asp::net::TcpConnection&, const std::vector<std::uint8_t>& d) {
      got2 += asp::net::string_of(d);
    });
  });
  // Client must talk to b2 even though it addresses b1... but replies come
  // from b2's address, so connect to b2 via the rewritten path is one-way.
  // For this unit test just verify raw TCP SYN redirection happened.
  auto c = a.tcp().connect(ip("10.0.2.1"), 80);
  net.run_until(seconds(1));
  EXPECT_GT(rt.stats().packets_handled, 0u);
  // b2 received the SYN (a connection attempt was registered there).
  EXPECT_GE(b2.tcp().open_connections(), 1u);
  EXPECT_EQ(b1.tcp().open_connections(), 0u);
}

TEST(AspRuntime, StatePersistsAcrossPackets) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  rt.install(R"(
channel network(ps : int, ss : int, p : ip*udp*blob) initstate 0 is
  (println(ss); deliver(p); (ps, ss + 1))
)");
  UdpSocket sock(b, 7, [](const Packet&) {});
  UdpSocket src(a, 9999, nullptr);
  for (int i = 0; i < 3; ++i) src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();
  EXPECT_EQ(rt.log(), "0\n1\n2\n");
  EXPECT_EQ(rt.stats().packets_handled, 3u);
}

TEST(AspRuntime, SharedProtocolStateAcrossOverloads) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  rt.install(R"(
channel network(ps : int, ss : unit, p : ip*udp*char*int) is
  (println(ps); deliver(p); (ps + 1, ss))
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (println(ps); deliver(p); (ps + 1, ss))
)");
  UdpSocket sock(b, 7, [](const Packet&) {});
  UdpSocket src(a, 9999, nullptr);
  // A 5-byte payload decodes as char*int AND as blob: both overloads run and
  // share the protocol state.
  src.send_to(b.addr(), 7, {'A', 0, 0, 0, 1});
  net.run();
  EXPECT_EQ(rt.log(), "0\n1\n");
}

TEST(AspRuntime, MismatchedProtocolStateTypesRejected) {
  Network net;
  Node& n = net.add_node("n");
  n.add_interface(ip("10.0.0.1"));
  AspRuntime rt(n);
  EXPECT_THROW(rt.install(R"(
channel network(ps : int, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))
channel network(ps : bool, ss : unit, p : ip*tcp*blob) is (deliver(p); (ps, ss))
)"),
               planp::PlanPError);
  EXPECT_FALSE(rt.installed());
}

TEST(AspRuntime, UserChannelDispatchByTag) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  a.routes().add_default(0);

  // Node a rewraps UDP packets onto the user channel "mychan"; node b's
  // protocol handles "mychan" packets only.
  AspRuntime rt_a(a);
  rt_a.install(R"(
channel mychan(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  (OnRemote(mychan, p); (ps, ss))
)");
  AspRuntime rt_b(b);
  rt_b.install(R"(
channel mychan(ps : unit, ss : unit, p : ip*udp*blob) is
  (println("tagged"); deliver(p); (ps, ss))
)");

  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet&) { ++got; });
  // Inject an outgoing packet through a's ASP (send-path processing).
  Packet p = Packet::make_udp(a.addr(), b.addr(), 9999, 7, {1, 2, 3});
  EXPECT_TRUE(rt_a.inject(p));
  net.run();
  EXPECT_EQ(rt_b.log(), "tagged\n");
  EXPECT_EQ(got, 1);
}

TEST(AspRuntime, UnhandledChannelExceptionConsumesPacketAndLogs) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  planp::Protocol::Options opts;  // delivery analysis would flag this; gate
  opts.require_verified = true;   // still accepts (delivery is advisory)
  rt.install(
      "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n"
      "  (raise \"Boom\"; (ps, ss))",
      opts);
  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet&) { ++got; });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(rt.stats().runtime_errors, 1u);
  EXPECT_NE(rt.log().find("Boom"), std::string::npos);
}

TEST(AspRuntime, LinkLoadReflectsMonitoredMedium) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& seg = net.segment("lan", 10e6, 0);
  net.attach(a, seg, ip("192.168.1.1"));
  net.attach(b, seg, ip("192.168.1.2"));

  AspRuntime rt(a);
  rt.set_monitored_medium(&seg);
  rt.install("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
             "(println(linkLoad()); deliver(p); (ps, ss))");

  // ~50% load for half a second, then probe.
  UdpSocket sink(b, 9, nullptr);
  UdpSocket srcb(b, 8888, nullptr);
  for (int i = 0; i < 250; ++i) {
    net.events().schedule_at(millis(2) * i, [&] {
      srcb.send_to(ip("192.168.1.9"), 9, std::vector<std::uint8_t>(1222));
    });
  }
  net.events().schedule_at(millis(400), [&] {
    srcb.send_to(a.addr(), 7, asp::net::bytes_of("probe"));
  });
  UdpSocket sock_a(a, 7, [](const Packet&) {});
  net.run_until(millis(600));
  // linkLoad printed something close to 50.
  int load = std::stoi(rt.log());
  EXPECT_NEAR(load, 50, 15);
}

// Point-to-point twin of the test above, reading the default medium: the
// last interface's link, which the runtime arms at construction. The node
// loads its own link a -> b at ~50% (its sends bypass its receive-path ASP)
// and a probe from b reports the load.
TEST(AspRuntime, LinkLoadReadsLastInterfaceLinkByDefault) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  PointToPointLink& link = net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, 0);
  EXPECT_FALSE(link.meter_armed());

  AspRuntime rt(a);
  EXPECT_TRUE(link.meter_armed());
  rt.install("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
             "(println(linkLoad()); deliver(p); (ps, ss))");

  UdpSocket sink(b, 9, nullptr);
  UdpSocket srca(a, 8888, nullptr);
  for (int i = 0; i < 250; ++i) {
    net.events().schedule_at(millis(2) * i, [&] {
      srca.send_to(b.addr(), 9, std::vector<std::uint8_t>(1222));
    });
  }
  UdpSocket srcb(b, 8888, nullptr);
  net.events().schedule_at(millis(400), [&] {
    srcb.send_to(a.addr(), 7, asp::net::bytes_of("probe"));
  });
  UdpSocket sock_a(a, 7, [](const Packet&) {});
  net.run_until(millis(600));
  int load = std::stoi(rt.log());
  EXPECT_NEAR(load, 50, 15);
}

TEST(AspRuntime, TtlGuardStopsRunawayForwarding) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
  a.routes().add_default(0);
  b.routes().add_default(0);

  // Pathological ping-pong, loaded unverified: the runtime TTL guard bounds it.
  planp::Protocol::Options opts;
  opts.require_verified = false;
  auto asp_src = R"(
channel network(ps : unit, ss : unit, p : ip*udp*blob) is
  if ipDst(#1 p) = 10.0.0.1 then
    (OnRemote(network, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))
  else
    (OnRemote(network, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps, ss))
)";
  AspRuntime rt_a(a);
  rt_a.install(asp_src, opts);
  AspRuntime rt_b(b);
  rt_b.install(asp_src, opts);

  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run_until(seconds(10));
  EXPECT_TRUE(net.events().empty());  // the storm died out
  EXPECT_LE(rt_a.stats().packets_sent + rt_b.stats().packets_sent, 70u);  // bounded by TTL
}

TEST(AspRuntime, UninstallRestoresDefaultBehaviour) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  rt.install("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
             "(drop(); (ps, ss))");
  int got = 0;
  UdpSocket sock(b, 7, [&](const Packet&) { ++got; });
  UdpSocket src(a, 9999, nullptr);
  src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();
  EXPECT_EQ(got, 0);  // ASP dropped it

  rt.uninstall();
  src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();
  EXPECT_EQ(got, 1);  // standard IP behaviour restored
}

TEST(AspRuntime, EngineChoiceDoesNotChangeBehaviour) {
  for (planp::EngineKind kind :
       {planp::EngineKind::kInterp, planp::EngineKind::kJit}) {
    Network net;
    Node& a = net.add_node("a");
    Node& b = net.add_node("b");
    net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));
    AspRuntime rt(b);
    planp::Protocol::Options opts;
    opts.engine = kind;
    rt.install(R"(
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (println(ps * 2); deliver(p); (ps + 1, ss))
)",
               opts);
    UdpSocket sock(b, 7, [](const Packet&) {});
    UdpSocket src(a, 9999, nullptr);
    for (int i = 0; i < 3; ++i) src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
    net.run();
    EXPECT_EQ(rt.log(), "0\n2\n4\n") << "engine " << static_cast<int>(kind);
  }
}

TEST(AspRuntime, MetricsReachGlobalRegistry) {
  // stats() reports per-instance deltas, but the same numbers accumulate in
  // the process-wide registry under node/<name>/asp/* (plus per-channel
  // dispatch counts and a handling-latency histogram).
  obs::MetricsRegistry& reg = obs::registry();
  std::uint64_t handled0 = reg.counter("node/mreg/asp/packets_handled").value();
  std::uint64_t chan0 =
      reg.counter("node/mreg/asp/channel/network/handled").value();
  std::uint64_t lat0 = reg.histogram("node/mreg/asp/handle_us").count();

  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("mreg");
  net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(1));

  AspRuntime rt(b);
  rt.install("channel network(ps : unit, ss : unit, p : ip*udp*blob) is "
             "(deliver(p); (ps, ss))");
  UdpSocket sock(b, 7, [](const Packet&) {});
  UdpSocket src(a, 9999, nullptr);
  for (int i = 0; i < 3; ++i) src.send_to(b.addr(), 7, asp::net::bytes_of("x"));
  net.run();

  EXPECT_EQ(rt.stats().packets_handled, 3u);
  EXPECT_EQ(reg.counter("node/mreg/asp/packets_handled").value(), handled0 + 3);
  EXPECT_EQ(reg.counter("node/mreg/asp/channel/network/handled").value(),
            chan0 + 3);
  // Handler latency is sampled 1-in-16 dispatches (first always): 3 packets
  // through a fresh runtime record exactly one observation.
  EXPECT_EQ(reg.histogram("node/mreg/asp/handle_us").count(), lat0 + 1);
}

}  // namespace
}  // namespace asp::runtime
