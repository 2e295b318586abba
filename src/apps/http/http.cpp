#include "apps/http/http.hpp"

#include <algorithm>
#include <cmath>

namespace asp::apps {

using asp::net::millis;
using asp::net::Packet;
using asp::net::SimTime;
using asp::net::TcpConnection;

std::string trace_path(std::size_t file_index, std::uint32_t size) {
  return "/f" + std::to_string(file_index) + "_s" + std::to_string(size);
}

std::uint32_t size_from_path(const std::string& path) {
  auto pos = path.rfind("_s");
  if (pos == std::string::npos) return 1024;
  return static_cast<std::uint32_t>(std::strtoul(path.c_str() + pos + 2, nullptr, 10));
}

std::vector<TraceEntry> make_trace(std::size_t accesses, std::size_t files,
                                   std::uint32_t seed) {
  std::mt19937 rng(seed);

  // Per-file sizes: log-normal, median ~6 KB, capped at 512 KB.
  std::lognormal_distribution<double> size_dist(std::log(6000.0), 1.0);
  std::vector<std::uint32_t> sizes(files);
  for (auto& s : sizes) {
    s = static_cast<std::uint32_t>(
        std::clamp(size_dist(rng), 200.0, 512.0 * 1024.0));
  }

  // Zipf(1.0) popularity via inverse-CDF sampling.
  std::vector<double> cdf(files);
  double acc = 0;
  for (std::size_t i = 0; i < files; ++i) {
    acc += 1.0 / static_cast<double>(i + 1);
    cdf[i] = acc;
  }
  std::uniform_real_distribution<double> uni(0.0, acc);

  std::vector<TraceEntry> trace;
  trace.reserve(accesses);
  for (std::size_t i = 0; i < accesses; ++i) {
    double u = uni(rng);
    std::size_t idx = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (idx >= files) idx = files - 1;
    trace.push_back(TraceEntry{trace_path(idx, sizes[idx]), sizes[idx]});
  }
  return trace;
}

HttpServer::HttpServer(asp::net::Node& node, Options opts) : node_(node), opts_(opts) {
  node_.tcp().listen(80, [this](std::shared_ptr<TcpConnection> conn) {
    conn->on_data([this, buffer = std::string()](
                      TcpConnection& c, const std::vector<std::uint8_t>& d) mutable {
      buffer.append(d.begin(), d.end());
      auto eol = buffer.find('\n');
      if (eol != std::string::npos) {
        on_request(c.shared_from_this(), buffer.substr(0, eol));
        buffer.clear();
      }
    });
  });
}

void HttpServer::on_request(std::shared_ptr<TcpConnection> conn,
                            const std::string& line) {
  // "GET <path>"
  std::uint32_t size = 1024;
  auto sp = line.find(' ');
  if (sp != std::string::npos) size = size_from_path(line.substr(sp + 1));
  queue_.push_back(Pending{std::move(conn), size});
  maybe_start();
}

void HttpServer::maybe_start() {
  while (busy_ < opts_.children && !queue_.empty()) {
    Pending job = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    double service_ms =
        opts_.fixed_overhead_ms + job.size / (opts_.disk_mbytes_per_sec * 1000.0);
    node_.events().schedule_in(millis(service_ms), [this, job = std::move(job)] {
      finish(job);
    });
  }
}

void HttpServer::finish(const Pending& job) {
  --busy_;
  if (job.conn->state() == TcpConnection::State::kEstablished ||
      job.conn->state() == TcpConnection::State::kCloseWait) {
    std::string header = "HTTP/1.0 200 OK\nContent-Length: " +
                         std::to_string(job.size) + "\n\n";
    std::vector<std::uint8_t> response(header.begin(), header.end());
    response.resize(header.size() + job.size, 'x');
    job.conn->send(std::move(response));
    job.conn->close();
    ++served_;
    bytes_sent_ += job.size;
  }
  maybe_start();
}

HttpClientPool::HttpClientPool(asp::net::Node& node, asp::net::Ipv4Addr server,
                               std::vector<TraceEntry> trace, int processes)
    : node_(node), server_(server), trace_(std::move(trace)), processes_(processes) {}

void HttpClientPool::start() {
  for (int i = 0; i < processes_; ++i) {
    // Slight stagger so connections do not all open in the same microsecond.
    node_.events().schedule_in(asp::net::micros(137) * static_cast<SimTime>(i),
                               [this, i] { issue(i); });
  }
}

void HttpClientPool::issue(int proc) {
  if (trace_.empty()) return;
  const TraceEntry& entry = trace_[next_entry_++ % trace_.size()];
  SimTime started = node_.events().now();

  auto conn = node_.tcp().connect(server_, 80);
  auto done = std::make_shared<bool>(false);
  std::uint32_t expect = entry.size;

  conn->on_established(
      [path = entry.path](TcpConnection& c) { c.send("GET " + path + "\n"); });
  conn->on_data([this, received = std::size_t{0}, expect, done, started, proc](
                    TcpConnection& c, const std::vector<std::uint8_t>& d) mutable {
    received += d.size();
    if (!*done && received >= expect) {  // header + body; close-delimited
      *done = true;
      ++completed_;
      bytes_received_ += received;
      total_latency_ms_ +=
          static_cast<double>(node_.events().now() - started) / 1e6;
      c.close();
      issue(proc);
    }
  });
  conn->on_closed([this, done, proc](TcpConnection&) {
    if (!*done) {
      ++failed_;
      issue(proc);
    }
  });

  // Watchdog: a connection that never completes (SYN lost to a saturated
  // gateway, server overload) is abandoned and the process moves on.
  node_.events().schedule_in(asp::net::seconds(15), [this, done, conn, proc] {
    if (!*done && conn->state() != TcpConnection::State::kClosed) {
      *done = true;
      conn->abort();
      ++failed_;
      issue(proc);
    }
  });
}

}  // namespace asp::apps
