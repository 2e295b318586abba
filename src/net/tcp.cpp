#include "net/tcp.hpp"

#include <algorithm>
#include <cassert>

namespace asp::net {

namespace {
// Sequence comparison tolerant of wraparound (not that our streams wrap).
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_le(std::uint32_t a, std::uint32_t b) { return a == b || seq_lt(a, b); }
}  // namespace

TcpConnection::TcpConnection(TcpStack& stack, Ipv4Addr local, std::uint16_t lport,
                             Ipv4Addr remote, std::uint16_t rport)
    : stack_(stack), local_(local), remote_(remote), lport_(lport), rport_(rport) {
  obs::MetricsRegistry& reg = obs::registry();
  const std::string prefix = "node/" + stack_.node().name() + "/tcp/";
  m_tx_bytes_ = &reg.counter(prefix + "tx_bytes");
  m_rx_bytes_ = &reg.counter(prefix + "rx_bytes");
  m_retransmits_ = &reg.counter(prefix + "retransmits");
  reg.counter(prefix + "connections").inc();
}

void TcpConnection::start_connect() {
  state_ = State::kSynSent;
  iss_ = 1;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN consumes a sequence number
  emit(tcpflag::kSyn, iss_, {});
  arm_timer();
}

void TcpConnection::start_accept(const Packet& syn) {
  state_ = State::kSynRcvd;
  rcv_nxt_ = syn.tcp->seq + 1;
  iss_ = 1;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  emit(tcpflag::kSyn | tcpflag::kAck, iss_, {});
  arm_timer();
}

void TcpConnection::emit(std::uint8_t flags, std::uint32_t seq,
                         std::vector<std::uint8_t> data) {
  TcpHeader h;
  h.sport = lport_;
  h.dport = rport_;
  h.seq = seq;
  h.ack = rcv_nxt_;
  h.flags = flags | ((state_ != State::kSynSent) ? tcpflag::kAck : 0);
  if (state_ == State::kSynSent) h.flags = flags;  // first SYN has no ACK
  h.wnd = static_cast<std::uint16_t>(std::min<std::uint32_t>(kMaxWnd, 0xFFFF));
  Packet p = Packet::make_tcp(local_, remote_, h, std::move(data));
  p.id = stack_.node().next_packet_id();
  stack_.node().send_ip(std::move(p));
}

void TcpConnection::send(std::vector<std::uint8_t> data) {
  if (state_ == State::kClosed || fin_pending_ || fin_sent_) return;
  send_buf_.insert(send_buf_.end(), data.begin(), data.end());
  if (state_ == State::kEstablished || state_ == State::kCloseWait) pump();
}

void TcpConnection::close() {
  if (state_ == State::kClosed) return;
  fin_pending_ = true;
  pump();
}

void TcpConnection::abort() { finish(false); }

void TcpConnection::pump() {
  // Send any window-permitted data in [snd_nxt_, snd_una_ + cwnd).
  std::uint32_t inflight = snd_nxt_ - snd_una_;
  std::uint32_t wnd = std::min(cwnd_, kMaxWnd);
  // Data seq space starts at iss_+1; offset of snd_nxt_ into send_buf_:
  while (!send_buf_.empty() && inflight < wnd) {
    std::uint32_t buf_off = snd_nxt_ - snd_una_;
    if (buf_off >= send_buf_.size()) break;  // everything queued is in flight
    std::uint32_t chunk = std::min<std::uint32_t>(
        {kMss, static_cast<std::uint32_t>(send_buf_.size()) - buf_off, wnd - inflight});
    std::vector<std::uint8_t> data(send_buf_.begin() + buf_off,
                                   send_buf_.begin() + buf_off + chunk);
    emit(tcpflag::kPsh, snd_nxt_, std::move(data));
    snd_nxt_ += chunk;
    bytes_sent_ += chunk;
    m_tx_bytes_->inc(chunk);
    inflight = snd_nxt_ - snd_una_;
  }
  // FIN once all data is sent.
  std::uint32_t unsent = snd_una_ + static_cast<std::uint32_t>(send_buf_.size()) - snd_nxt_;
  if (fin_pending_ && !fin_sent_ && unsent == 0) {
    emit(tcpflag::kFin, snd_nxt_, {});
    snd_nxt_ += 1;
    fin_sent_ = true;
    if (state_ == State::kEstablished) state_ = State::kFinWait;
    if (state_ == State::kCloseWait) state_ = State::kLastAck;
  }
  if (snd_nxt_ != snd_una_) arm_timer();
}

void TcpConnection::arm_timer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  auto self = shared_from_this();
  rto_timer_ = stack_.node().events().schedule_in(rto_, [self]() {
    self->timer_armed_ = false;
    self->on_timeout();
  });
}

void TcpConnection::on_timeout() {
  if (state_ == State::kClosed) return;
  if (snd_una_ == snd_nxt_ && !fin_pending_) {
    consecutive_timeouts_ = 0;
    return;  // nothing outstanding
  }
  if (++consecutive_timeouts_ > kMaxRetries) {
    finish(true);  // peer is gone; give up
    return;
  }

  ++retransmissions_;
  m_retransmits_->inc();
  // Multiplicative decrease, then go-back-N from snd_una_.
  ssthresh_ = std::max(cwnd_ / 2, 2 * kMss);
  cwnd_ = 2 * kMss;

  if (state_ == State::kSynSent) {
    emit(tcpflag::kSyn, iss_, {});
  } else if (state_ == State::kSynRcvd) {
    emit(tcpflag::kSyn | tcpflag::kAck, iss_, {});
  } else {
    snd_nxt_ = snd_una_;
    fin_sent_ = false;  // will be re-emitted by pump if due
    pump();
  }
  arm_timer();
}

void TcpConnection::handle(const Packet& p) {
  const TcpHeader& h = *p.tcp;

  if (h.has(tcpflag::kRst)) {
    finish(true);
    return;
  }

  switch (state_) {
    case State::kSynSent:
      if (h.has(tcpflag::kSyn) && h.has(tcpflag::kAck) && h.ack == iss_ + 1) {
        rcv_nxt_ = h.seq + 1;
        snd_una_ = h.ack;
        state_ = State::kEstablished;
        emit(tcpflag::kAck, snd_nxt_, {});
        if (established_cb_) established_cb_(*this);
        pump();
      }
      return;
    case State::kSynRcvd:
      if (h.has(tcpflag::kAck) && h.ack == iss_ + 1) {
        snd_una_ = h.ack;
        state_ = State::kEstablished;
        if (established_cb_) established_cb_(*this);
        pump();
        // Fall through to process any piggybacked data below.
      } else if (h.has(tcpflag::kSyn)) {
        emit(tcpflag::kSyn | tcpflag::kAck, iss_, {});  // retransmitted SYN
        return;
      } else {
        return;
      }
      break;
    case State::kClosed:
      return;
    default:
      break;
  }

  // --- Established-family processing ---------------------------------------

  // ACK processing.
  if (h.has(tcpflag::kAck) && seq_lt(snd_una_, h.ack) && seq_le(h.ack, snd_nxt_)) {
    consecutive_timeouts_ = 0;  // forward progress
    std::uint32_t acked = h.ack - snd_una_;
    std::uint32_t fin_in_flight = fin_sent_ ? 1 : 0;
    std::uint32_t data_acked =
        std::min<std::uint32_t>(acked, static_cast<std::uint32_t>(send_buf_.size()));
    send_buf_.erase(send_buf_.begin(), send_buf_.begin() + data_acked);
    snd_una_ = h.ack;
    // Additive increase in congestion avoidance, exponential in slow start.
    if (cwnd_ < ssthresh_) {
      cwnd_ = std::min(cwnd_ + acked, kMaxWnd);
    } else {
      cwnd_ = std::min<std::uint32_t>(cwnd_ + kMss * kMss / cwnd_, kMaxWnd);
    }
    if (fin_in_flight != 0 && snd_una_ == snd_nxt_) {
      // Our FIN was acknowledged.
      if (state_ == State::kLastAck) {
        finish(true);
        return;
      }
      if (state_ == State::kFinWait && peer_fin_seen_) {
        finish(true);
        return;
      }
    }
    pump();
  }

  // In-order data.
  if (!p.payload.empty()) {
    if (h.seq == rcv_nxt_) {
      rcv_nxt_ += static_cast<std::uint32_t>(p.payload.size());
      bytes_received_ += p.payload.size();
      m_rx_bytes_->inc(p.payload.size());
      emit(tcpflag::kAck, snd_nxt_, {});
      // An on_established that aborted the connection gets no data after it.
      if (data_cb_ && state_ != State::kClosed) data_cb_(*this, p.payload.bytes());
    } else {
      // Out of order / duplicate: re-ACK what we expect.
      emit(tcpflag::kAck, snd_nxt_, {});
    }
  }

  // FIN processing.
  if (h.has(tcpflag::kFin)) {
    std::uint32_t fin_seq = h.seq + static_cast<std::uint32_t>(p.payload.size());
    if (fin_seq == rcv_nxt_) {
      rcv_nxt_ += 1;
      peer_fin_seen_ = true;
      emit(tcpflag::kAck, snd_nxt_, {});
      if (state_ == State::kEstablished) {
        state_ = State::kCloseWait;
      } else if (state_ == State::kFinWait && snd_una_ == snd_nxt_) {
        finish(true);
        return;
      }
      if (state_ == State::kCloseWait && fin_pending_) pump();
    } else if (seq_lt(fin_seq, rcv_nxt_)) {
      emit(tcpflag::kAck, snd_nxt_, {});  // duplicate FIN
    }
  }
}

void TcpConnection::finish(bool notify) {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  if (timer_armed_) {
    stack_.node().events().cancel(rto_timer_);
    timer_armed_ = false;
  }
  auto self = shared_from_this();  // dropping it from the stack may free it
  stack_.drop(*this);
  // The callbacks stay: a closed connection is unreachable from packets and
  // timers, so they simply die with it.
  if (notify && closed_cb_) closed_cb_(*this);
}

void TcpStack::listen(std::uint16_t port, AcceptHandler on_accept) {
  listeners_[port] = std::move(on_accept);
}

std::shared_ptr<TcpConnection> TcpStack::connect(Ipv4Addr dst, std::uint16_t dport) {
  std::uint16_t sport = next_ephemeral_++;
  if (next_ephemeral_ == 0) next_ephemeral_ = 32768;
  auto conn = std::shared_ptr<TcpConnection>(
      new TcpConnection(*this, node_.addr(), sport, dst, dport));
  conns_[key(node_.addr(), sport, dst, dport)] = conn;
  conn->start_connect();
  return conn;
}

bool TcpStack::on_packet(const Packet& p) {
  const TcpHeader& h = *p.tcp;
  auto it = conns_.find(key(p.ip.dst, h.dport, p.ip.src, h.sport));
  if (it != conns_.end()) {
    auto conn = it->second;  // keep alive: handle() may drop it from the map
    conn->handle(p);
    return true;
  }
  if (h.has(tcpflag::kSyn) && !h.has(tcpflag::kAck)) {
    auto lit = listeners_.find(h.dport);
    if (lit == listeners_.end()) {
      // Closed port: refuse actively so the peer fails fast instead of
      // retrying into the void.
      TcpHeader rst;
      rst.sport = h.dport;
      rst.dport = h.sport;
      rst.seq = 0;
      rst.ack = h.seq + 1;
      rst.flags = tcpflag::kRst | tcpflag::kAck;
      Packet r = Packet::make_tcp(p.ip.dst, p.ip.src, rst, {});
      r.id = node_.next_packet_id();
      node_.send_ip(std::move(r));
      return false;
    }
    auto conn = std::shared_ptr<TcpConnection>(
        new TcpConnection(*this, p.ip.dst, h.dport, p.ip.src, h.sport));
    conns_[key(p.ip.dst, h.dport, p.ip.src, h.sport)] = conn;
    conn->start_accept(p);
    lit->second(conn);
    return true;
  }
  return false;
}

void TcpStack::drop(TcpConnection& c) {
  conns_.erase(key(c.local_addr(), c.local_port(), c.remote_addr(), c.remote_port()));
}

}  // namespace asp::net
