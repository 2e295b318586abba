// TCP edge cases: aborts, dead peers, listener lifecycle, back-to-back
// connections, zero-length writes.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "net/tcp.hpp"

namespace asp::net {
namespace {

struct Pair {
  Pair() {
    a = &net.add_node("a");
    b = &net.add_node("b");
    net.link(*a, ip("10.0.0.1"), *b, ip("10.0.0.2"), 10e6, millis(1));
  }
  Network net;
  Node* a;
  Node* b;
};

TEST(TcpEdge, SenderGivesUpOnDeadPeer) {
  Pair p;
  p.b->tcp().listen(80, [](std::shared_ptr<TcpConnection> c) {
    c->on_data([](TcpConnection&, const std::vector<std::uint8_t>&) {});
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  bool closed = false;
  c->on_closed([&](TcpConnection&) { closed = true; });
  c->on_established([&](TcpConnection& conn) {
    // Peer crashes the instant the handshake completes: no RST, no FIN —
    // everything sent from here on falls into a black hole.
    p.b->set_ip_hook([](Packet&, Interface&) { return true; });
    conn.send(std::vector<std::uint8_t>(10'000, 1));
  });
  p.net.run_until(seconds(60));
  EXPECT_TRUE(closed);  // retry cap fired
  EXPECT_EQ(c->state(), TcpConnection::State::kClosed);
  EXPECT_TRUE(p.net.events().empty()) << "no immortal retransmit timers";
}

TEST(TcpEdge, ConnectToNowhereEventuallyCloses) {
  Pair p;
  auto c = p.a->tcp().connect(ip("10.0.0.99"), 80);  // no such host
  bool closed = false;
  c->on_closed([&](TcpConnection&) { closed = true; });
  p.net.run_until(seconds(60));
  EXPECT_TRUE(closed);
  EXPECT_EQ(p.a->tcp().open_connections(), 0u);
}

TEST(TcpEdge, AbortDropsStateImmediately) {
  Pair p;
  p.b->tcp().listen(80, [](std::shared_ptr<TcpConnection>) {});
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([](TcpConnection& conn) { conn.abort(); });
  p.net.run_until(seconds(1));
  EXPECT_EQ(p.a->tcp().open_connections(), 0u);
  EXPECT_EQ(c->state(), TcpConnection::State::kClosed);
}

TEST(TcpEdge, StopListeningRefusesNewConnections) {
  Pair p;
  int accepted = 0;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection>) { ++accepted; });
  auto c1 = p.a->tcp().connect(p.b->addr(), 80);
  p.net.run_until(seconds(1));
  EXPECT_EQ(accepted, 1);

  p.b->tcp().stop_listening(80);
  auto c2 = p.a->tcp().connect(p.b->addr(), 80);
  bool est2 = false;
  c2->on_established([&](TcpConnection&) { est2 = true; });
  p.net.run_until(seconds(30));
  EXPECT_EQ(accepted, 1);
  EXPECT_FALSE(est2);
}

TEST(TcpEdge, SequentialConnectionsFromSameClient) {
  Pair p;
  int served = 0;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data([&served](TcpConnection& conn, const std::vector<std::uint8_t>&) {
      ++served;
      conn.send("done");
      conn.close();
    });
  });
  std::function<void(int)> issue = [&](int remaining) {
    if (remaining == 0) return;
    auto c = p.a->tcp().connect(p.b->addr(), 80);
    c->on_established([](TcpConnection& conn) { conn.send("req"); });
    c->on_data([&issue, remaining](TcpConnection& conn, const std::vector<std::uint8_t>&) {
      conn.close();
      issue(remaining - 1);
    });
  };
  issue(10);
  p.net.run_until(seconds(30));
  EXPECT_EQ(served, 10);
  EXPECT_EQ(p.a->tcp().open_connections(), 0u);
  EXPECT_EQ(p.b->tcp().open_connections(), 0u);
}

TEST(TcpEdge, EmptySendIsANoop) {
  Pair p;
  std::size_t got = 0;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data([&](TcpConnection&, const std::vector<std::uint8_t>& d) { got += d.size(); });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([](TcpConnection& conn) {
    conn.send(std::vector<std::uint8_t>{});
    conn.send("x");
  });
  p.net.run_until(seconds(2));
  EXPECT_EQ(got, 1u);
}

TEST(TcpEdge, SendAfterCloseIsIgnored) {
  Pair p;
  std::size_t got = 0;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data([&](TcpConnection&, const std::vector<std::uint8_t>& d) { got += d.size(); });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([](TcpConnection& conn) {
    conn.send("ok");
    conn.close();
    conn.send("after-close-must-not-arrive");
  });
  p.net.run_until(seconds(5));
  EXPECT_EQ(got, 2u);
}

TEST(TcpEdge, BidirectionalSimultaneousTransfer) {
  Pair p;
  std::vector<std::uint8_t> blob_a(40'000, 0xA1), blob_b(30'000, 0xB2);
  std::size_t got_at_b = 0, got_at_a = 0;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->send(blob_b);
    c->on_data([&](TcpConnection&, const std::vector<std::uint8_t>& d) {
      got_at_b += d.size();
    });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([&](TcpConnection& conn) { conn.send(blob_a); });
  c->on_data([&](TcpConnection&, const std::vector<std::uint8_t>& d) {
    got_at_a += d.size();
  });
  p.net.run_until(seconds(30));
  EXPECT_EQ(got_at_b, blob_a.size());
  EXPECT_EQ(got_at_a, blob_b.size());
}

}  // namespace
}  // namespace asp::net
