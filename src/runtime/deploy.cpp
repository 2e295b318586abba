#include "runtime/deploy.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "net/node.hpp"

namespace asp::runtime {

using asp::net::TcpConnection;

std::uint64_t deploy_checksum(std::string_view body) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (unsigned char c : body) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

namespace {

std::string checksum_hex(std::uint64_t sum) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(sum));
  return buf;
}

/// Hash identifying one install request end-to-end: same body, engine and
/// auth flag => same installed state, so a retry may be answered from cache.
std::uint64_t install_key(std::string_view body, planp::EngineKind engine,
                          bool authenticated) {
  std::uint64_t h = deploy_checksum(body);
  h ^= (static_cast<std::uint64_t>(engine) + 1) * 0x9E3779B97F4A7C15ull;
  h ^= authenticated ? 0x5851F42D4C957F2Dull : 0;
  return h;
}

}  // namespace

DeployServer::DeployServer(AspRuntime& runtime, std::uint16_t port)
    : runtime_(runtime) {
  obs::MetricsRegistry& reg = obs::registry();
  const std::string prefix = "node/" + runtime_.node().name() + "/deploy/";
  m_deployments_ = &reg.counter(prefix + "deployments");
  m_rejections_ = &reg.counter(prefix + "rejections");
  m_dedups_ = &reg.counter(prefix + "dedups");
  m_rx_bytes_ = &reg.counter(prefix + "rx_bytes");

  runtime_.node().tcp().listen(port, [this](std::shared_ptr<TcpConnection> conn) {
    conn->on_data([this, session = Session()](TcpConnection& c,
                                              const std::vector<std::uint8_t>& d) mutable {
      session.buffer.append(d.begin(), d.end());
      m_rx_bytes_->inc(d.size());
      on_data(c, session);
    });
  });
}

void DeployServer::reject(TcpConnection& conn, const std::string& reason) {
  ++rejections_;
  m_rejections_->inc();
  conn.send("ERR " + reason + "\n");
  conn.close();
}

void DeployServer::on_data(TcpConnection& conn, Session& s) {
  if (s.done) {  // trailing bytes after the reply: drop them
    s.buffer.clear();
    return;
  }
  if (!s.header_seen) {
    auto eol = s.buffer.find('\n');
    if (eol == std::string::npos) {
      if (s.buffer.size() > kDeployMaxHeaderBytes) {
        s.done = true;
        reject(conn, "malformed header");
      }
      return;
    }
    std::istringstream in(s.buffer.substr(0, eol));
    std::string cmd, engine, len_field, sum;
    int auth = 0;
    in >> cmd >> engine >> auth >> len_field >> sum;
    s.buffer.erase(0, eol + 1);
    if (cmd.rfind("DEPLOY", 0) != 0) {
      s.done = true;
      reject(conn, "malformed header");
      return;
    }
    if (cmd != kDeployHeaderTag) {
      // A DEPLOY header speaking another (or no) version: refuse loudly
      // rather than guessing at its framing.
      s.done = true;
      reject(conn, std::string("bad-version expected ") + kDeployHeaderTag);
      return;
    }
    if (in.fail()) {
      s.done = true;
      reject(conn, "malformed header");
      return;
    }
    if (engine == "interp") {
      s.engine = planp::EngineKind::kInterp;
    } else if (engine == "jit") {
      s.engine = planp::EngineKind::kJit;
    } else {
      // An unknown token ("jitt", "") used to fall through silently to kJit;
      // reject it so a typo'd station learns immediately.
      s.done = true;
      reject(conn, "bad-engine " + engine);
      return;
    }
    // from_chars, not operator>>: libstdc++ reads "-1" into a size_t as
    // SIZE_MAX without failing, and the session would buffer forever.
    auto whole = [](const std::string& f, auto& out, int base) {
      auto [ptr, ec] = std::from_chars(f.data(), f.data() + f.size(), out, base);
      return ec == std::errc() && ptr == f.data() + f.size();
    };
    std::size_t len = 0;
    std::uint64_t checksum = 0;
    if (!whole(len_field, len, 10) || !whole(sum, checksum, 16)) {
      s.done = true;
      reject(conn, "malformed header");
      return;
    }
    if (len > kDeployMaxBodyBytes) {
      s.done = true;
      reject(conn, "too-large " + len_field);
      return;
    }
    s.authenticated = auth != 0;
    s.expect = len;
    s.checksum = checksum;
    s.header_seen = true;
  }
  if (s.buffer.size() >= s.expect) {
    s.done = true;  // set before finish: install callbacks must not re-enter
    finish(conn, s);
  }
}

void DeployServer::finish(TcpConnection& conn, const Session& s) {
  const std::string body = s.buffer.substr(0, s.expect);
  if (deploy_checksum(body) != s.checksum) {
    // The body that arrived is not the body the station framed: corrupted in
    // flight. Reject rather than handing the verifier a different program.
    reject(conn, "bad-checksum");
    return;
  }
  const std::uint64_t key = install_key(body, s.engine, s.authenticated);
  if (runtime_.installed() && key == installed_key_ && !cached_reply_.empty()) {
    // Idempotent retry: the previous attempt installed this exact program but
    // its OK reply was lost. Replay the reply; do not install twice.
    ++dedups_;
    m_dedups_->inc();
    conn.send(cached_reply_);
    conn.close();
    return;
  }
  planp::Protocol::Options opts;
  opts.engine = s.engine;
  opts.require_verified = !s.authenticated;
  try {
    planp::Protocol& proto = runtime_.install(body, opts);
    ++deployments_;
    m_deployments_->inc();
    double codegen_us = 0;
    if (const planp::CodegenStats* cs = runtime_.protocol().codegen_stats()) {
      codegen_us = cs->generation_ms * 1000.0;
    }
    std::string reply = "OK " + std::to_string(proto.checked().channels.size()) +
                        " " + std::to_string(codegen_us) + "\n";
    installed_key_ = key;
    cached_reply_ = reply;
    conn.send(reply);
    conn.close();
  } catch (const planp::VerificationError& e) {
    // "reject:" marks a verdict computed over a checksum-verified body — the
    // one class of error a client should NOT retry (see transient_failure).
    reject(conn, std::string("reject: verification: ") + e.what());
  } catch (const planp::PlanPError& e) {
    reject(conn, std::string("reject: ") + e.what());
  }
}

DeployResult DeployResult::from_reply(const std::string& line) {
  DeployResult r;
  if (line.rfind("OK", 0) == 0) {
    std::istringstream in(line);
    std::string tag;
    in >> tag >> r.channels >> r.codegen_us;
    if (in.fail()) {
      r.channels = 0;
      r.codegen_us = 0;
      r.error = "unparseable reply: " + line;
      return r;
    }
    r.ok = true;
    return r;
  }
  if (line.rfind("ERR ", 0) == 0) {
    r.error = line.substr(4);
    return r;
  }
  r.error = line.empty() ? "empty reply" : "unparseable reply: " + line;
  return r;
}

// --- client side --------------------------------------------------------------

namespace {

/// One in-flight deployment push: shared by every attempt's callbacks and
/// timers. `settled` makes the user callback fire exactly once.
struct DeployJob {
  asp::net::Node* node = nullptr;
  asp::net::Ipv4Addr target;
  std::string message;
  DeployOptions opts;
  Deployer::Callback cb;
  bool settled = false;
  int attempts = 0;
  obs::Counter* m_attempts = nullptr;
  obs::Counter* m_retries = nullptr;
  obs::Counter* m_successes = nullptr;
  obs::Counter* m_failures = nullptr;
};

/// Failures worth retrying: transport-level death and corruption-class
/// errors (a retry re-sends the same bytes over different luck). Definitive
/// daemon verdicts — verification, syntax, bad-engine, bad-version — are
/// terminal: the same program will fail the same way every time.
// Only a "reject:"-prefixed verdict is terminal: the daemon computed it over
// a checksum-verified body, so it is provably about the program itself.
// Everything else — timeouts, dead connections, and every protocol-level
// error ("bad-checksum", "bad-version", "bad-engine", "malformed header",
// garbled replies) — can be fabricated by a single corrupted frame in either
// direction, so the client retries rather than trust damaged goods.
bool transient_failure(const DeployResult& r) {
  if (r.ok) return false;
  return r.error.rfind("reject: ", 0) != 0;
}

void settle(const std::shared_ptr<DeployJob>& job, DeployResult r) {
  if (job->settled) return;
  job->settled = true;
  r.attempts = job->attempts;
  (r.ok ? job->m_successes : job->m_failures)->inc();
  if (job->cb) job->cb(r);
}

void start_attempt(const std::shared_ptr<DeployJob>& job);

/// Ends a failed attempt: schedules the next one after exponential backoff,
/// or settles with a terminal error once the budget is spent.
void retry_or_fail(const std::shared_ptr<DeployJob>& job, const std::string& err) {
  if (job->settled) return;
  if (job->attempts >= job->opts.max_attempts) {
    DeployResult r;
    r.error = err + " (gave up after " + std::to_string(job->attempts) +
              (job->attempts == 1 ? " attempt)" : " attempts)");
    settle(job, r);
    return;
  }
  job->m_retries->inc();
  asp::net::SimTime backoff = job->opts.initial_backoff
                              << (job->attempts > 0 ? job->attempts - 1 : 0);
  job->node->events().schedule_in(backoff, [job] {
    if (!job->settled) start_attempt(job);
  });
}

void start_attempt(const std::shared_ptr<DeployJob>& job) {
  ++job->attempts;
  job->m_attempts->inc();
  auto conn = job->node->tcp().connect(job->target, job->opts.port);
  // `live` scopes the callbacks and the timeout to THIS attempt: once the
  // attempt is decided (reply, death, or deadline), stragglers are inert.
  auto live = std::make_shared<bool>(true);

  conn->on_established([job, live](TcpConnection& c) {
    if (job->settled || !*live) return;
    c.send(job->message);
  });
  conn->on_data([job, live, reply = std::string()](
                    TcpConnection& c, const std::vector<std::uint8_t>& d) mutable {
    if (job->settled || !*live) return;
    reply.append(d.begin(), d.end());
    auto eol = reply.find('\n');
    if (eol == std::string::npos) return;
    *live = false;
    DeployResult r = DeployResult::from_reply(reply.substr(0, eol));
    if (transient_failure(r)) {
      // A corrupted exchange (the reply itself may be damaged goods): tear
      // the connection down and try again.
      retry_or_fail(job, r.error);
      c.abort();
      return;
    }
    settle(job, std::move(r));
    c.close();
  });
  conn->on_closed([job, live](TcpConnection&) {
    if (job->settled || !*live) return;
    *live = false;
    retry_or_fail(job, "connection closed");
  });
  // Attempt deadline: a dropped SYN the TCP layer is still grinding on, or a
  // daemon that accepted and went silent, must not hang the callback forever.
  // The deadline holds the attempt's connection until it fires.
  job->node->events().schedule_in(job->opts.attempt_timeout, [job, conn, live] {
    if (job->settled || !*live) return;
    *live = false;
    retry_or_fail(job, "timeout");
    conn->abort();
  });
}

}  // namespace

void Deployer::deploy(asp::net::Ipv4Addr target, const std::string& source,
                      Callback cb, Options opts) {
  const char* engine = opts.engine == planp::EngineKind::kInterp ? "interp" : "jit";
  auto job = std::make_shared<DeployJob>();
  job->node = &node_;
  job->target = target;
  job->opts = opts;
  if (job->opts.max_attempts < 1) job->opts.max_attempts = 1;
  job->cb = std::move(cb);
  job->message = std::string(kDeployHeaderTag) + " " + engine + " " +
                 (opts.authenticated ? "1" : "0") + " " +
                 std::to_string(source.size()) + " " +
                 checksum_hex(deploy_checksum(source)) + "\n" + source;
  obs::MetricsRegistry& reg = obs::registry();
  const std::string prefix = "node/" + node_.name() + "/deployer/";
  job->m_attempts = &reg.counter(prefix + "attempts");
  job->m_retries = &reg.counter(prefix + "retries");
  job->m_successes = &reg.counter(prefix + "successes");
  job->m_failures = &reg.counter(prefix + "failures");
  start_attempt(job);
}

}  // namespace asp::runtime
