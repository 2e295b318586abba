#include "scenario/workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace asp::scenario {

namespace {

using net::Ipv4Addr;
using net::Node;
using net::Packet;
using net::SimTime;
using net::UdpSocket;

void put_u64(std::vector<std::uint8_t>& v, std::size_t at, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) v[at + static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(x >> (i * 8));
}
void put_u32(std::vector<std::uint8_t>& v, std::size_t at, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) v[at + static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(x >> (i * 8));
}
std::uint64_t get_u64(const std::vector<std::uint8_t>& v, std::size_t at) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i)
    x |= std::uint64_t{v[at + static_cast<std::size_t>(i)]} << (i * 8);
  return x;
}
std::uint32_t get_u32(const std::vector<std::uint8_t>& v, std::size_t at) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i)
    x |= std::uint32_t{v[at + static_cast<std::size_t>(i)]} << (i * 8);
  return x;
}

// Request wire format: [seq:8][frames:4][frame_bytes:4] padded to
// request_bytes; when the workload carries object ids (cache profile) the
// padding's first 8 bytes become [obj:8] at offset 16. Response frame:
// [seq:8][index:4][last:1] padded to frame_bytes; a single-frame response
// to an object request echoes [obj:8] at offset 13 so in-network caches can
// index it. Profiles without objects write obj = 0, which is byte-identical
// to the zero padding — the extension costs the original profiles nothing.
constexpr std::size_t kReqHeader = 16;
constexpr std::size_t kRespHeader = 13;
constexpr std::size_t kReqObjOffset = 16;   // request object id
constexpr std::size_t kRespObjOffset = 13;  // response object-id echo

}  // namespace

bool WorkloadParams::apply_profile() {
  objects = 0;  // only the cache profile carries object ids
  if (profile == "http") {  // one page object per request
    request_bytes = 200;
    frames_per_response = 4;
    frame_bytes = 1400;
  } else if (profile == "audio") {  // a short talkspurt of small frames
    request_bytes = 40;
    frames_per_response = 8;
    frame_bytes = 160;
  } else if (profile == "mpeg") {  // one GOP of near-MTU frames
    request_bytes = 100;
    frames_per_response = 16;
    frame_bytes = 1316;
  } else if (profile == "cache") {  // Zipf-popular single-object fetches
    request_bytes = 64;
    frames_per_response = 1;  // single frame: cacheable as one blob
    frame_bytes = 1400;
    objects = 512;
    zipf_skew = 1.0;
  } else {
    return false;
  }
  return true;
}

/// One serving host: answers every request with the requested frame train,
/// last frame flagged. Counts what it serves — with an in-network cache in
/// front the difference between client requests and `served` is the offload.
class ServerApp {
 public:
  explicit ServerApp(Node& node)
      : node_(node),
        sock_(node, kServerPort, [this](const Packet& p) { on_request(p); }) {}

  std::uint64_t served = 0;  // requests that actually reached this server

 private:
  void on_request(const Packet& p) {
    if (p.payload.size() < kReqHeader || !p.udp) return;
    const std::vector<std::uint8_t>& bytes = p.payload.bytes();
    const std::uint64_t seq = get_u64(bytes, 0);
    std::uint32_t frames = get_u32(bytes, 8);
    std::uint32_t frame_bytes = get_u32(bytes, 12);
    if (frames == 0 || frames > 1024) return;  // malformed
    if (frame_bytes < kRespHeader) frame_bytes = kRespHeader;
    ++served;
    const std::uint64_t obj =
        bytes.size() >= kReqObjOffset + 8 ? get_u64(bytes, kReqObjOffset) : 0;
    for (std::uint32_t i = 0; i < frames; ++i) {
      std::vector<std::uint8_t> payload(frame_bytes, 0);
      put_u64(payload, 0, seq);
      put_u32(payload, 8, i);
      payload[12] = i + 1 == frames ? 1 : 0;
      // Echo the object id into single-frame responses only: a cache must
      // never index one frame of a multi-frame train as the whole object.
      if (obj != 0 && frames == 1 && frame_bytes >= kRespObjOffset + 8) {
        put_u64(payload, kRespObjOffset, obj);
      }
      sock_.send_to(p.ip.src, kClientPort, std::move(payload));
    }
  }

  Node& node_;
  UdpSocket sock_;
};

/// U users aggregated into one closed-loop generator on one host (see the
/// header comment for the superposition argument).
class ClientBundle {
 public:
  ClientBundle(Node& node, std::uint64_t users, const WorkloadParams& p,
               const std::vector<Ipv4Addr>* servers,
               const std::vector<double>* zipf_cdf, std::uint64_t rng_seed)
      : node_(node),
        params_(p),
        servers_(servers),
        zipf_cdf_(zipf_cdf),
        thinking_(users),
        rng_(rng_seed != 0 ? rng_seed : 1),
        think_mean_ns_(p.think_mean_ms * 1e6),
        sock_(node, kClientPort, [this](const Packet& pk) { on_frame(pk); }) {}

  void start() { schedule_next(); }

  // Per-bundle counters (read at barriers, in bundle order).
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t latency_sum_ns = 0;
  std::uint64_t latency_max_ns = 0;
  std::array<std::uint64_t, 65> latency_hist{};

 private:
  struct Pending {
    std::uint64_t seq;
    SimTime sent;
  };

  std::uint64_t next_rng() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  /// Resamples the bundle timer for the current thinking count, cancelling
  /// the superseded fire (memorylessness makes the fresh draw statistically
  /// equivalent to continuing the old one).
  void schedule_next() {
    node_.events().cancel(timer_);  // a no-op once the timer has fired
    if (thinking_ == 0) return;  // every user is waiting on a response
    double u = static_cast<double>(next_rng() >> 11) * 0x1.0p-53;
    if (u <= 0) u = 0x1.0p-53;
    double dt = think_mean_ns_ * -std::log(u) / static_cast<double>(thinking_);
    auto delay = static_cast<SimTime>(dt);
    if (delay < 1) delay = 1;
    timer_ = node_.events().schedule_in(delay, [this] { fire(); });
  }

  void fire() {
    const SimTime now = node_.events().now();
    const std::uint64_t seq = ++seq_;
    const Ipv4Addr server =
        (*servers_)[static_cast<std::size_t>(next_rng() % servers_->size())];
    // Object id (cache profile): inverse-CDF draw from the shared Zipf
    // table. Ids are 1-based — 0 on the wire means "no object".
    std::uint64_t obj = 0;
    if (zipf_cdf_ != nullptr && !zipf_cdf_->empty()) {
      const double u = static_cast<double>(next_rng() >> 11) * 0x1.0p-53;
      const auto it =
          std::lower_bound(zipf_cdf_->begin(), zipf_cdf_->end(), u);
      obj = static_cast<std::uint64_t>(it - zipf_cdf_->begin()) + 1;
      if (obj > zipf_cdf_->size()) obj = zipf_cdf_->size();
    }
    std::vector<std::uint8_t> payload(
        std::max<std::size_t>(params_.request_bytes,
                              obj != 0 ? kReqObjOffset + 8 : kReqHeader),
        0);
    put_u64(payload, 0, seq);
    put_u32(payload, 8, params_.frames_per_response);
    put_u32(payload, 12, params_.frame_bytes);
    if (obj != 0) put_u64(payload, kReqObjOffset, obj);
    sock_.send_to(server, kServerPort, std::move(payload));
    inflight_.push_back(Pending{seq, now});
    --thinking_;
    ++requests;
    node_.events().schedule_in(params_.timeout, [this, seq] { on_timeout(seq); });
    schedule_next();
  }

  void on_frame(const Packet& p) {
    if (p.payload.size() < kRespHeader) return;
    ++frames_rx;
    if (p.payload[12] == 0) return;  // not the last frame of its response
    const std::uint64_t seq = get_u64(p.payload.bytes(), 0);
    for (std::size_t i = 0; i < inflight_.size(); ++i) {
      if (inflight_[i].seq != seq) continue;
      const SimTime lat = node_.events().now() - inflight_[i].sent;
      latency_sum_ns += lat;
      if (lat > latency_max_ns) latency_max_ns = lat;
      ++latency_hist[std::bit_width(static_cast<std::uint64_t>(lat) | 1)];
      ++completed;
      inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(i));
      ++thinking_;
      schedule_next();
      return;
    }
    // No match: the request already timed out — a late response, dropped.
  }

  void on_timeout(std::uint64_t seq) {
    for (std::size_t i = 0; i < inflight_.size(); ++i) {
      if (inflight_[i].seq != seq) continue;
      inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(i));
      ++timeouts;
      ++thinking_;
      schedule_next();
      return;
    }
  }

  Node& node_;
  const WorkloadParams params_;
  const std::vector<Ipv4Addr>* servers_;
  const std::vector<double>* zipf_cdf_;
  std::uint64_t thinking_;
  std::uint64_t rng_;
  double think_mean_ns_;
  net::EventId timer_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<Pending> inflight_;  // FIFO by sent time; linear scan is fine
                                   // (|inflight| <= users per bundle, tens)
  UdpSocket sock_;
};

Workload::Workload(const std::vector<net::Node*>& hosts, const WorkloadParams& p) {
  if (hosts.size() < 2) {
    throw std::invalid_argument("workload needs at least 2 hosts");
  }
  auto ns = static_cast<std::size_t>(
      static_cast<double>(hosts.size()) * p.server_fraction);
  if (ns < 1) ns = 1;
  if (ns > hosts.size() - 1) ns = hosts.size() - 1;

  server_addrs_ = std::make_unique<std::vector<Ipv4Addr>>();
  server_addrs_->reserve(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    servers_.push_back(std::make_unique<ServerApp>(*hosts[i]));
    server_addrs_->push_back(hosts[i]->addr());
  }

  // One shared Zipf CDF for every bundle: P(obj = i) ~ 1 / i^skew. The table
  // is pure arithmetic in (objects, zipf_skew), so it is identical across
  // runs and shard counts.
  zipf_cdf_ = std::make_unique<std::vector<double>>();
  if (p.objects > 0) {
    zipf_cdf_->reserve(p.objects);
    double total = 0;
    for (std::uint64_t i = 1; i <= p.objects; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i), p.zipf_skew);
    }
    double acc = 0;
    for (std::uint64_t i = 1; i <= p.objects; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i), p.zipf_skew);
      zipf_cdf_->push_back(acc / total);
    }
  }

  const std::size_t clients = hosts.size() - ns;
  const std::uint64_t base = p.users / clients;
  const std::uint64_t rem = p.users % clients;
  for (std::size_t i = 0; i < clients; ++i) {
    const std::uint64_t users = base + (i < rem ? 1 : 0);
    if (users == 0) continue;  // fewer users than hosts: trailing hosts idle
    const std::uint64_t seed = p.seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
    bundles_.push_back(std::make_unique<ClientBundle>(
        *hosts[ns + i], users, p, server_addrs_.get(), zipf_cdf_.get(), seed));
  }
}

Workload::~Workload() = default;

void Workload::start() {
  for (auto& b : bundles_) b->start();
}

WorkloadStats Workload::stats() const {
  WorkloadStats s;
  for (const auto& b : bundles_) {
    s.requests += b->requests;
    s.completed += b->completed;
    s.timeouts += b->timeouts;
    s.frames_rx += b->frames_rx;
    s.latency_sum_ns += b->latency_sum_ns;
    if (b->latency_max_ns > s.latency_max_ns) s.latency_max_ns = b->latency_max_ns;
    for (std::size_t i = 0; i < b->latency_hist.size(); ++i) {
      s.latency_hist[i] += b->latency_hist[i];
    }
  }
  for (const auto& srv : servers_) s.origin_requests += srv->served;
  return s;
}

std::uint64_t WorkloadStats::latency_quantile_ns(double q) const {
  std::uint64_t total = 0;
  for (std::uint64_t c : latency_hist) total += c;
  if (total == 0) return 0;
  auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (target == 0) target = 1;
  if (target > total) target = total;
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < latency_hist.size(); ++b) {
    acc += latency_hist[b];
    if (acc >= target) {
      return b >= 64 ? ~0ull : (std::uint64_t{1} << b) - 1;
    }
  }
  return 0;  // unreachable: acc == total >= target at the last bucket
}

}  // namespace asp::scenario
