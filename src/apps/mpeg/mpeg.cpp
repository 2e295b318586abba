#include "apps/mpeg/mpeg.hpp"

#include <sstream>

namespace asp::apps {

using asp::net::kNsPerSec;
using asp::net::millis;
using asp::net::Packet;
using asp::net::TcpConnection;

MpegServer::MpegServer(asp::net::Node& node)
    : node_(node), video_out_(node, 9001, nullptr) {
  node_.tcp().listen(MpegFormat::kCtrlPort, [this](std::shared_ptr<TcpConnection> c) {
    ++accepted_;
    c->on_data([this, buffer = std::string()](
                   TcpConnection& conn, const std::vector<std::uint8_t>& d) mutable {
      buffer.append(d.begin(), d.end());
      auto eol = buffer.find('\n');
      while (eol != std::string::npos) {
        on_control(conn, buffer.substr(0, eol));
        buffer.erase(0, eol + 1);
        eol = buffer.find('\n');
      }
    });
  });
}

void MpegServer::on_control(TcpConnection& conn, const std::string& line) {
  std::istringstream in(line);
  std::string cmd, file;
  int vport = 0;
  in >> cmd >> file >> vport;
  if (cmd == "PLAY" && !file.empty() && vport > 0) {
    std::uint64_t id = next_id_++;
    streams_[id] = Stream{conn.remote_addr(), static_cast<std::uint16_t>(vport), 0,
                          false};
    conn.send("SETUP " + file + " 352 240 " + std::to_string(MpegFormat::kFps) + "\n");
    auto self_id = id;
    conn.on_closed([this, self_id](TcpConnection&) {
      auto it = streams_.find(self_id);
      if (it != streams_.end()) it->second.stopped = true;
    });
    stream_tick(id);
  } else if (cmd == "STOP") {
    // Stop every stream to this client (simplified teardown).
    for (auto& [id, s] : streams_) {
      if (s.client == conn.remote_addr()) s.stopped = true;
    }
  }
}

void MpegServer::stream_tick(std::uint64_t id) {
  auto it = streams_.find(id);
  if (it == streams_.end()) return;
  Stream& s = it->second;
  if (s.stopped) {
    streams_.erase(it);
    return;
  }
  std::size_t size = MpegFormat::frame_size(s.frame);
  // Fragment into MTU-sized UDP packets; first 8 payload bytes carry the
  // frame number and fragment index so the client can count frames.
  std::size_t off = 0;
  int frag = 0;
  while (off < size) {
    std::size_t chunk = std::min<std::size_t>(1400, size - off);
    std::vector<std::uint8_t> payload(chunk + 8);
    std::uint32_t fn = static_cast<std::uint32_t>(s.frame);
    payload[0] = static_cast<std::uint8_t>(fn >> 24);
    payload[1] = static_cast<std::uint8_t>(fn >> 16);
    payload[2] = static_cast<std::uint8_t>(fn >> 8);
    payload[3] = static_cast<std::uint8_t>(fn);
    payload[4] = static_cast<std::uint8_t>(frag++);
    video_out_.send_to(s.client, s.vport, std::move(payload));
    video_bytes_ += chunk + 8;
    meter_.record(node_.events().now(), chunk + 8 + 28);
    off += chunk;
  }
  ++s.frame;
  node_.events().schedule_in(kNsPerSec / MpegFormat::kFps, [this, id] {
    stream_tick(id);
  });
}

MpegClient::MpegClient(asp::net::Node& node, asp::net::Ipv4Addr server,
                       asp::net::Ipv4Addr monitor, std::uint16_t vport,
                       InstallCapture install_capture)
    : node_(node),
      server_(server),
      monitor_(monitor),
      vport_(vport),
      install_capture_(std::move(install_capture)),
      video_in_(node, vport, [this](const Packet& p) { on_video(p); }) {}

void MpegClient::play(const std::string& file) {
  file_ = file;
  if (install_capture_ != nullptr && !monitor_.is_unspecified()) {
    query_monitor();
  } else {
    connect_to_server();
  }
}

void MpegClient::query_monitor() {
  query_sock_ = std::make_unique<asp::net::UdpSocket>(
      node_, static_cast<std::uint16_t>(vport_ + 1), [this](const Packet& p) {
        on_monitor_reply(asp::net::string_of(p.payload));
      });
  query_sock_->send_to(monitor_, MpegFormat::kQueryPort, asp::net::bytes_of("QUERY " + file_));
  // Miss or lost reply: fall back to a direct connection after 200 ms.
  node_.events().schedule_in(millis(200), [this] {
    if (!reply_seen_ && !playing_) connect_to_server();
  });
}

void MpegClient::on_monitor_reply(const std::string& reply) {
  if (reply_seen_) return;
  reply_seen_ = true;
  std::istringstream in(reply);
  std::string status;
  in >> status;
  if (status == "FOUND") {
    std::string addr_s;
    int shared_vport = 0;
    in >> addr_s >> shared_vport;
    auto addr = asp::net::Ipv4Addr::parse(addr_s);
    std::string rest;
    std::getline(in, rest);
    setup_ = rest;
    if (addr && shared_vport > 0 && install_capture_) {
      sharing_ = true;
      playing_ = true;
      install_capture_(*addr, static_cast<std::uint16_t>(shared_vport));
      return;
    }
  }
  connect_to_server();
}

void MpegClient::connect_to_server() {
  if (playing_) return;
  playing_ = true;
  ctrl_ = node_.tcp().connect(server_, MpegFormat::kCtrlPort);
  ctrl_->on_established([this](TcpConnection& c) {
    c.send("PLAY " + file_ + " " + std::to_string(vport_) + "\n");
  });
  ctrl_->on_data([this](TcpConnection&, const std::vector<std::uint8_t>& d) {
    setup_ += asp::net::string_of(d);
  });
}

void MpegClient::on_video(const Packet& p) {
  video_bytes_ += p.payload.size();
  meter_.record(node_.events().now(), p.wire_size());
  // Count a frame when its first fragment arrives.
  if (p.payload.size() >= 5 && p.payload[4] == 0) ++frames_;
}

}  // namespace asp::apps
