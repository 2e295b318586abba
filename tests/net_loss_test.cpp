// Failure injection: uniform random loss on media, and TCP's behaviour
// under it (a property sweep: whatever the loss rate, delivered data is
// exactly the sent data — reliability may cost time, never correctness).
#include <gtest/gtest.h>

#include <numeric>

#include "net/network.hpp"
#include "net/tcp.hpp"

namespace asp::net {
namespace {

TEST(LossInjection, DropsApproximatelyTheConfiguredFraction) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& l = net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 100e6, millis(1));
  l.set_impairments({.loss_rate = 0.25});

  int got = 0;
  UdpSocket sink(b, 7, [&](const Packet&) { ++got; });
  UdpSocket src(a, 9999, nullptr);
  for (int i = 0; i < 2000; ++i) src.send_to(b.addr(), 7, {1});
  net.run();
  EXPECT_NEAR(static_cast<double>(got) / 2000.0, 0.75, 0.05);
  EXPECT_NEAR(static_cast<double>(l.dropped_packets()) / 2000.0, 0.25, 0.05);
}

TEST(LossInjection, ZeroRateDropsNothing) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& l = net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 100e6, millis(1));
  int got = 0;
  UdpSocket sink(b, 7, [&](const Packet&) { ++got; });
  UdpSocket src(a, 9999, nullptr);
  for (int i = 0; i < 500; ++i) src.send_to(b.addr(), 7, {1});
  net.run();
  EXPECT_EQ(got, 500);
  EXPECT_EQ(l.dropped_packets(), 0u);
}

class TcpLossSweep : public ::testing::TestWithParam<int> {};

TEST_P(TcpLossSweep, BulkTransferSurvivesLoss) {
  double loss = GetParam() / 100.0;
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& l = net.link(a, ip("10.0.0.1"), b, ip("10.0.0.2"), 10e6, millis(2));
  l.set_impairments({.loss_rate = loss});

  std::vector<std::uint8_t> sent(60'000);
  std::iota(sent.begin(), sent.end(), 0);
  std::vector<std::uint8_t> got;
  bool closed = false;
  b.tcp().listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data([&](TcpConnection&, const std::vector<std::uint8_t>& d) {
      got.insert(got.end(), d.begin(), d.end());
    });
    c->on_closed([&](TcpConnection&) { closed = true; });
  });
  auto c = a.tcp().connect(b.addr(), 80);
  c->on_established([&](TcpConnection& conn) {
    conn.send(sent);
    conn.close();
  });
  net.run_until(seconds(120));

  EXPECT_EQ(got, sent) << "at loss rate " << loss;
  if (loss > 0) EXPECT_GT(c->retransmissions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweep, ::testing::Values(0, 1, 3, 5, 10),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "loss" + std::to_string(info.param) + "pct";
                         });

TEST(LossInjection, AudioOverLossyUplinkDegradesGracefully) {
  // UDP media: loss hurts but nothing wedges; the receiver just sees fewer
  // frames (the property the paper's reliability assumption footnote makes).
  Network net;
  Node& src = net.add_node("src");
  Node& dst = net.add_node("dst");
  auto& l = net.link(src, ip("10.0.0.1"), dst, ip("10.0.0.2"), 10e6, millis(1));
  l.set_impairments({.loss_rate = 0.10});
  int got = 0;
  UdpSocket sink(dst, 5004, [&](const Packet&) { ++got; });
  UdpSocket out(src, 5004, nullptr);
  // Paced like a real media stream (back-to-back would tail-drop the queue).
  for (int i = 0; i < 1000; ++i) {
    net.events().schedule_at(millis(1) * i, [&] {
      out.send_to(dst.addr(), 5004, std::vector<std::uint8_t>(440));
    });
  }
  net.run();
  EXPECT_GT(got, 800);
  EXPECT_LT(got, 1000);
}

}  // namespace
}  // namespace asp::net
