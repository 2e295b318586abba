// Point-to-point MPEG video server and client (paper §3.3).
//
// Mirrors the OGI distributed MPEG player's structure: a TCP control
// connection to the server ("PLAY <file> <vport>" / "SETUP <file> <w> <h>
// <fps>"), then a UDP video stream of synthetic MPEG-1 GOP frames. The ASPs
// (monitor + capture) turn this point-to-point service into segment-local
// multipoint without changing the server.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/tcp.hpp"

namespace asp::apps {

/// Synthetic MPEG-1 stream: a repeating 9-frame GOP (IBBPBBPBB) at 30 fps.
struct MpegFormat {
  static constexpr int kFps = 30;
  static constexpr std::uint16_t kCtrlPort = 9000;
  static constexpr std::uint16_t kQueryPort = 9100;

  /// Frame size (bytes) for frame number `n` of the stream.
  static std::size_t frame_size(std::uint64_t n) {
    static constexpr std::size_t kGop[9] = {12000, 1500, 1500, 4000, 1500,
                                            1500,  4000, 1500, 1500};
    return kGop[n % 9];
  }
};

/// The unmodified point-to-point video server.
class MpegServer {
 public:
  explicit MpegServer(asp::net::Node& node);

  int active_streams() const { return static_cast<int>(streams_.size()); }
  std::uint64_t video_bytes_sent() const { return video_bytes_; }
  std::uint64_t connections_accepted() const { return accepted_; }

  /// Egress video bandwidth over the last half second (bits/sec).
  double egress_bps() { return meter_.rate_bps(node_.events().now()); }

 private:
  struct Stream {
    asp::net::Ipv4Addr client;
    std::uint16_t vport;
    std::uint64_t frame = 0;
    bool stopped = false;
  };

  void on_control(asp::net::TcpConnection& conn, const std::string& line);
  void stream_tick(std::uint64_t id);

  asp::net::Node& node_;
  asp::net::UdpSocket video_out_;
  std::map<std::uint64_t, Stream> streams_;
  std::uint64_t next_id_ = 1;
  std::uint64_t video_bytes_ = 0;
  std::uint64_t accepted_ = 0;
  asp::net::BandwidthMeter meter_{asp::net::kNsPerSec / 2};
};

/// The video client. With sharing enabled it first asks the segment monitor
/// whether the file is already being streamed; only on a miss does it open
/// its own connection to the server (the paper's modified client behaviour).
class MpegClient {
 public:
  /// `install_capture` is invoked when the monitor reports an existing
  /// stream: (shared_client_addr, shared_vport) -> the app installs the
  /// capture ASP. Null disables sharing (baseline point-to-point client).
  using InstallCapture =
      std::function<void(asp::net::Ipv4Addr shared_client, std::uint16_t shared_vport)>;

  MpegClient(asp::net::Node& node, asp::net::Ipv4Addr server,
             asp::net::Ipv4Addr monitor, std::uint16_t vport,
             InstallCapture install_capture);

  /// Starts playback of `file`.
  void play(const std::string& file);

  bool sharing() const { return sharing_; }
  bool playing() const { return playing_; }
  std::uint64_t video_bytes() const { return video_bytes_; }
  std::uint64_t frames() const { return frames_; }
  double receive_bps() { return meter_.rate_bps(node_.events().now()); }
  const std::string& setup_info() const { return setup_; }

 private:
  void query_monitor();
  void on_monitor_reply(const std::string& reply);
  void connect_to_server();
  void on_video(const asp::net::Packet& p);

  asp::net::Node& node_;
  asp::net::Ipv4Addr server_;
  asp::net::Ipv4Addr monitor_;
  std::uint16_t vport_;
  InstallCapture install_capture_;
  asp::net::UdpSocket video_in_;
  std::unique_ptr<asp::net::UdpSocket> query_sock_;
  std::shared_ptr<asp::net::TcpConnection> ctrl_;
  std::string file_;
  std::string setup_;
  bool playing_ = false;
  bool sharing_ = false;
  bool reply_seen_ = false;
  std::uint64_t video_bytes_ = 0;
  std::uint64_t frames_ = 0;
  asp::net::BandwidthMeter meter_{asp::net::kNsPerSec / 2};
};

}  // namespace asp::apps
