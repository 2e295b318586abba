// TCP connection lifetime: the stack owns open connections, callbacks get
// their connection as an argument, and a connection is freed once it is out
// of the stack and its last outside holder lets go. Checked through weak_ptr
// expiry, so an ownership cycle fails these tests in any build, not only
// under LeakSanitizer.
#include <gtest/gtest.h>

#include <memory>

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

TEST(TcpLifetime, ClientAbortMidTransferFreesBothEnds) {
  std::weak_ptr<TcpConnection> client_w, server_w;
  {
    auto p = std::make_unique<Pair>();
    std::size_t got = 0;
    p->b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
      server_w = c;
      c->on_data([](TcpConnection& conn, const std::vector<std::uint8_t>&) {
        conn.send(std::vector<std::uint8_t>(100'000, 7));
        conn.close();
      });
    });
    auto c = p->a->tcp().connect(p->b->addr(), 80);
    client_w = c;
    c->on_established([](TcpConnection& conn) { conn.send("GET /big\n"); });
    c->on_data([&got](TcpConnection& conn, const std::vector<std::uint8_t>& d) {
      got += d.size();
      if (got >= 20'000) conn.abort();  // no RST: the server is left half-open
    });
    c.reset();
    p->net.run_until(millis(500));

    EXPECT_GE(got, 20'000u);
    EXPECT_LT(got, 100'000u);
    EXPECT_TRUE(client_w.expired()) << "aborted, and nothing outside holds it";
    ASSERT_FALSE(server_w.expired()) << "still retransmitting to the client";
    EXPECT_EQ(p->b->tcp().open_connections(), 1u);
    EXPECT_EQ(p->a->tcp().open_connections(), 0u);
    p.reset();  // the network goes with its pending retransmit timer
  }
  EXPECT_TRUE(server_w.expired());
}

TEST(TcpLifetime, AbortInsideOwnOnDataFreesTheConnection) {
  Pair p;
  std::weak_ptr<TcpConnection> server_w;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> token_w = token;
  int calls = 0;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    server_w = c;
    // The callback owns `token`: it must live through its own abort() and
    // die with the connection afterwards.
    c->on_data([&calls, token = std::move(token)](TcpConnection& conn,
                                                    const std::vector<std::uint8_t>&) {
      conn.abort();
      ++*token;
      ++calls;
    });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([](TcpConnection& conn) {
    conn.send("first");
    conn.send(std::vector<std::uint8_t>(3000, 1));
  });
  p.net.run_until(seconds(1));

  EXPECT_EQ(calls, 1) << "an aborted connection gets no more data";
  EXPECT_EQ(p.b->tcp().open_connections(), 0u);
  EXPECT_TRUE(server_w.expired());
  EXPECT_TRUE(token_w.expired()) << "the callbacks die with their connection";
}

TEST(TcpLifetime, AbortInsideOnEstablishedGetsNoPiggybackedData) {
  // The client's bare handshake ACK is lost, so its first data segment
  // completes the handshake. The server's on_established aborts; the data in
  // that same segment must not reach the closed connection's on_data, which
  // stays registered until the connection is freed.
  Pair p;
  bool dropped = false;
  p.b->set_ip_hook([&](Packet& pkt, Interface&) {
    if (dropped || !pkt.tcp || !pkt.payload.empty() || pkt.tcp->has(tcpflag::kSyn)) {
      return false;
    }
    dropped = true;
    return true;
  });
  int established = 0, data = 0;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_established([&](TcpConnection& conn) {
      ++established;
      conn.abort();
    });
    c->on_data([&](TcpConnection&, const std::vector<std::uint8_t>&) { ++data; });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  c->on_established([](TcpConnection& conn) { conn.send("hello"); });
  p.net.run_until(seconds(1));

  EXPECT_TRUE(dropped);
  EXPECT_EQ(established, 1);
  EXPECT_EQ(data, 0);
  EXPECT_EQ(p.b->tcp().open_connections(), 0u);
}

TEST(TcpLifetime, CloseInsideOwnOnDataFreesBothEnds) {
  Pair p;
  std::weak_ptr<TcpConnection> client_w, server_w;
  std::string at_client;
  bool server_closed = false, client_closed = false;
  p.b->tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    server_w = c;
    c->on_data([](TcpConnection& conn, const std::vector<std::uint8_t>&) {
      conn.send("pong");
      conn.close();
    });
    c->on_closed([&](TcpConnection&) { server_closed = true; });
  });
  auto c = p.a->tcp().connect(p.b->addr(), 80);
  client_w = c;
  c->on_established([](TcpConnection& conn) { conn.send("ping"); });
  c->on_data([&](TcpConnection& conn, const std::vector<std::uint8_t>& d) {
    at_client += string_of(d);
    conn.close();
  });
  c->on_closed([&](TcpConnection&) { client_closed = true; });
  c.reset();
  p.net.run_until(seconds(5));

  EXPECT_EQ(at_client, "pong");
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_w.expired());
  EXPECT_TRUE(client_w.expired());
  EXPECT_TRUE(p.net.events().empty()) << "no timer outlives a closed connection";
}

}  // namespace
}  // namespace asp::net
