#include "net/tcp.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "net/network.hpp"

namespace asp::net {
namespace {

// Two hosts joined by a 10 Mb/s, 1 ms link.
struct Pair {
  Pair(double bps = 10e6, SimTime delay = millis(1), std::uint64_t queue = 64 * 1024) {
    a = &net.add_node("a");
    b = &net.add_node("b");
    net.link(*a, ip("10.0.0.1"), *b, ip("10.0.0.2"), bps, delay, queue);
    a->routes().add_default(0);
    b->routes().add_default(0);
  }
  Network net;
  Node* a;
  Node* b;
};

TEST(Tcp, HandshakeEstablishesBothEnds) {
  Pair p;
  bool server_est = false, client_est = false;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_established([&](TcpConnection&) { server_est = true; });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([&](TcpConnection&) { client_est = true; });
  p.net.run();
  EXPECT_TRUE(server_est);
  EXPECT_TRUE(client_est);
  EXPECT_EQ(c->state(), TcpConnection::State::kEstablished);
}

TEST(Tcp, ConnectToClosedPortNeverEstablishes) {
  Pair p;
  bool est = false;
  auto c = p.a->tcp().connect(p.b->addr(), 81);
  c->on_established([&](TcpConnection&) { est = true; });
  p.net.run_until(seconds(2));
  EXPECT_FALSE(est);
}

TEST(Tcp, TransfersSmallMessageBothWays) {
  Pair p;
  std::string at_server, at_client;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data([&](TcpConnection& conn, const std::vector<std::uint8_t>& d) {
      at_server += string_of(d);
      conn.send("pong");
    });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([](TcpConnection& conn) { conn.send("ping"); });
  c->on_data([&](TcpConnection&, const std::vector<std::uint8_t>& d) {
    at_client += string_of(d);
  });
  p.net.run();
  EXPECT_EQ(at_server, "ping");
  EXPECT_EQ(at_client, "pong");
}

TEST(Tcp, TransfersBulkDataIntact) {
  Pair p;
  std::vector<std::uint8_t> sent(200'000);
  std::iota(sent.begin(), sent.end(), 0);
  std::vector<std::uint8_t> got;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data([&](TcpConnection&, const std::vector<std::uint8_t>& d) {
      got.insert(got.end(), d.begin(), d.end());
    });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([&](TcpConnection& conn) { conn.send(sent); });
  p.net.run_until(seconds(10));
  EXPECT_EQ(got, sent);
}

TEST(Tcp, BulkThroughputApproachesLinkRate) {
  Pair p(10e6, millis(1));
  std::vector<std::uint8_t> sent(1'000'000);
  std::size_t got = 0;
  SimTime done_at = 0;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data([&](TcpConnection&, const std::vector<std::uint8_t>& d) {
      got += d.size();
      if (got == sent.size()) done_at = p.net.now();
    });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([&](TcpConnection& conn) { conn.send(sent); });
  p.net.run_until(seconds(30));
  ASSERT_EQ(got, sent.size());
  double goodput = 8.0 * static_cast<double>(got) / to_seconds(done_at);
  EXPECT_GT(goodput, 5e6);  // at least half the 10 Mb/s link
}

TEST(Tcp, RecoversFromLossViaRetransmission) {
  // Small queue forces drops under slow start bursts.
  Pair p(1e6, millis(1), 4000);
  std::vector<std::uint8_t> sent(100'000, 0xAB);
  std::vector<std::uint8_t> got;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data([&](TcpConnection&, const std::vector<std::uint8_t>& d) {
      got.insert(got.end(), d.begin(), d.end());
    });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([&](TcpConnection& conn) { conn.send(sent); });
  p.net.run_until(seconds(60));
  EXPECT_EQ(got.size(), sent.size());
  EXPECT_GT(c->retransmissions(), 0u);
}

TEST(Tcp, CloseCompletesAfterDataDelivered) {
  Pair p;
  std::string got;
  bool server_closed = false, client_closed = false;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data([&](TcpConnection& conn, const std::vector<std::uint8_t>& d) {
      got += string_of(d);
      conn.close();  // respond to client close with our own
    });
    c->on_closed([&](TcpConnection&) { server_closed = true; });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([](TcpConnection& conn) {
    conn.send("bye");
    conn.close();
  });
  c->on_closed([&](TcpConnection&) { client_closed = true; });
  p.net.run_until(seconds(5));
  EXPECT_EQ(got, "bye");
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(p.a->tcp().open_connections(), 0u);
  EXPECT_EQ(p.b->tcp().open_connections(), 0u);
}

TEST(Tcp, ManyConcurrentConnectionsAreDemuxedIndependently) {
  Pair p;
  int completed = 0;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data([](TcpConnection& conn, const std::vector<std::uint8_t>& d) {
      conn.send(d);  // echo
      conn.close();
    });
  });
  constexpr int kConns = 20;
  std::vector<std::shared_ptr<TcpConnection>> conns;
  for (int i = 0; i < kConns; ++i) {
    auto c = p.a->tcp().connect(p.b->addr(), 80);
    std::string msg = "msg-" + std::to_string(i);
    c->on_established([msg](TcpConnection& conn) { conn.send(msg); });
    c->on_data([&, msg](TcpConnection&, const std::vector<std::uint8_t>& d) {
      EXPECT_EQ(string_of(d), msg);
      ++completed;
    });
    conns.push_back(std::move(c));
  }
  p.net.run_until(seconds(10));
  EXPECT_EQ(completed, kConns);
}

TEST(Tcp, WorksThroughAnAddressRewritingGateway) {
  // End-to-end sanity for the §3.2 gateway scheme: a router rewrites the
  // virtual server address to a physical one on the way in, and the physical
  // source back to the virtual one on the way out.
  Network net;
  Node& client = net.add_node("client");
  Node& gw = net.add_router("gw");
  Node& server = net.add_node("server");
  net.link(client, ip("10.0.1.1"), gw, ip("10.0.1.254"), 10e6, millis(1));
  net.link(gw, ip("10.0.2.254"), server, ip("10.0.2.1"), 10e6, millis(1));
  client.routes().add_default(0);
  server.routes().add_default(0);
  gw.routes().add(ip("10.0.1.0"), 24, 0);
  gw.routes().add(ip("10.0.2.0"), 24, 1);
  gw.routes().add(ip("10.0.9.0"), 24, 1);  // virtual subnet "towards" servers

  Ipv4Addr virtual_ip = ip("10.0.9.9");
  Ipv4Addr physical_ip = ip("10.0.2.1");
  gw.set_ip_hook([&](Packet& p, Interface&) {
    if (p.ip.dst == virtual_ip) {
      p.ip.dst = physical_ip;
      --p.ip.ttl;
      gw.forward(std::move(p));
      return true;
    }
    if (p.ip.src == physical_ip) {
      p.ip.src = virtual_ip;
      --p.ip.ttl;
      gw.forward(std::move(p));
      return true;
    }
    return false;
  });

  std::string got;
  server.tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data([](TcpConnection& conn, const std::vector<std::uint8_t>&) {
      conn.send("response");
    });
  });
  auto c = client.tcp().connect(virtual_ip, 80);
  c->on_established([](TcpConnection& conn) { conn.send("request"); });
  c->on_data([&](TcpConnection&, const std::vector<std::uint8_t>& d) { got += string_of(d); });
  net.run_until(seconds(5));
  EXPECT_EQ(got, "response");
}

}  // namespace
}  // namespace asp::net
