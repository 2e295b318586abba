// Differential fuzzing: randomly generated well-typed PLAN-P programs must
// behave identically on the interpreter and the JIT — the value they
// compute, which PLAN-P exception escapes, and every packet they send. This
// is the mechanized form of the paper's claim that the JIT is *derived*
// from the interpreter and therefore preserves its semantics.
//
// The generator is typed: int, bool and host expressions over an
// ip*udp*blob packet (header field reads, blobInt/blobLen/blobByte with
// offsets that fall outside the payload and raise), lets of every scalar
// type, try/with around raising code and conditional sends. That covers the
// JIT's raw scalar registers, its boxed slots and every boundary between
// them.
//
// The same corpus also runs with mem pool poisoning on (ASP_MEM_POISON
// semantics): recycled buffers/tuple slots/frames — boxed and raw — are
// scribbled with sentinels between packets, so an engine holding a stale
// reference into recycled memory diverges loudly instead of silently
// reading stale bytes.
#include <gtest/gtest.h>

#include <random>

#include "mem/pool.hpp"
#include "planp/compile.hpp"
#include "planp/interp.hpp"
#include "planp/jit.hpp"
#include "planp/parser.hpp"

namespace asp::planp {
namespace {

/// Generates random well-typed expressions for the body of
/// `channel c(ps : int, ss : int, p : ip*udp*blob)`.
class ExprGen {
 public:
  explicit ExprGen(std::uint32_t seed) : rng_(seed) {}

  std::string int_expr(int depth) {
    if (depth <= 0) return int_leaf();
    switch (pick(16)) {
      case 0: case 1: return int_leaf();
      case 2: return "(" + int_expr(depth - 1) + " + " + int_expr(depth - 1) + ")";
      case 3: return "(" + int_expr(depth - 1) + " - " + int_expr(depth - 1) + ")";
      case 4: return "(" + int_expr(depth - 1) + " * " + small() + ")";
      case 5:
        // Division can raise DivByZero; keep it under a try half the time so
        // both raising and non-raising paths are exercised.
        if (pick(2) == 0) {
          return "(try " + int_expr(depth - 1) + " / " + int_expr(depth - 1) +
                 " with " + small() + ")";
        }
        return "(" + int_expr(depth - 1) + " % 7 + 1)";
      case 6:
        return "(if " + bool_expr(depth - 1) + " then " + int_expr(depth - 1) +
               " else " + int_expr(depth - 1) + ")";
      case 7: return let_in("int", int_expr(depth - 1), depth);
      case 8: return let_in("host", host_expr(depth - 1), depth);
      case 9: return let_in("bool", bool_expr(depth - 1), depth);
      case 10: return "min(" + int_expr(depth - 1) + ", " + int_expr(depth - 1) + ")";
      case 11: return "abs(" + int_expr(depth - 1) + ")";
      case 12:
        return "(try (if " + bool_expr(depth - 1) + " then raise \"F\" else " +
               int_expr(depth - 1) + ") with " + int_expr(depth - 1) + ")";
      case 13:
        // blobByte raises OutOfBounds past the payload (offsets go to 12,
        // payloads are 0..10 bytes); sometimes caught, sometimes not.
        if (pick(2) == 0) {
          return "(try blobByte(#3 p, " + int_expr(depth - 1) + " % 13) with " +
                 int_expr(depth - 1) + ")";
        }
        return "blobByte(#3 p, " + std::to_string(pick(12)) + ")";
      case 14:
        // A sequence whose value is the int, after a conditional send.
        return "(" + send_stmt(depth - 1) + "; " + int_expr(depth - 1) + ")";
      default:
        return "(hostToInt(" + host_expr(depth - 1) + ") % 1000)";
    }
  }

  std::string bool_expr(int depth) {
    if (depth <= 0) return bool_leaf();
    switch (pick(10)) {
      case 0: return "(" + int_expr(depth - 1) + " < " + int_expr(depth - 1) + ")";
      case 1: return "(" + int_expr(depth - 1) + " = " + int_expr(depth - 1) + ")";
      case 2: return "(" + bool_expr(depth - 1) + " and " + bool_expr(depth - 1) + ")";
      case 3: return "(" + bool_expr(depth - 1) + " or " + bool_expr(depth - 1) + ")";
      case 4: return "not " + bool_expr(depth - 1);
      case 5: return "(" + host_expr(depth - 1) + " = " + host_expr(depth - 1) + ")";
      case 6: return "(" + host_expr(depth - 1) + " <> " + host_expr(depth - 1) + ")";
      case 7: return "(" + bool_expr(depth - 1) + " = " + bool_expr(depth - 1) + ")";
      case 8:
        return "(if " + bool_expr(depth - 1) + " then " + bool_expr(depth - 1) +
               " else " + bool_expr(depth - 1) + ")";
      default: return "(" + int_expr(depth - 1) + " >= " + small() + ")";
    }
  }

  std::string host_expr(int depth) {
    if (depth <= 0) return host_leaf();
    switch (pick(4)) {
      case 0:
        return "(if " + bool_expr(depth - 1) + " then " + host_expr(depth - 1) +
               " else " + host_expr(depth - 1) + ")";
      case 1: {
        std::string v = fresh();
        std::string init = host_expr(depth - 1);
        scope_.push_back({v, "host"});
        std::string body = host_expr(depth - 1);
        scope_.pop_back();
        return "(let val " + v + " : host = " + init + " in " + body + " end)";
      }
      default: return host_leaf();
    }
  }

 private:
  std::string let_in(const char* type, std::string init, int depth) {
    std::string v = fresh();
    scope_.push_back({v, type});
    std::string body = int_expr(depth - 1);
    scope_.pop_back();
    return "(let val " + v + " : " + type + " = " + init + " in " + body + " end)";
  }

  /// A unit-valued statement that may emit a packet.
  std::string send_stmt(int depth) {
    switch (pick(4)) {
      case 0: return "OnRemote(c, p)";
      case 1:
        return "OnRemote(c, (ipDestSet(#1 p, " + host_expr(depth) + "), #2 p, #3 p))";
      case 2:
        return "(if " + bool_expr(depth) + " then deliver(p) else ())";
      default:
        return "OnRemote(c, (#1 p, udpDstSet(#2 p, " + int_expr(depth) +
               " % 65536), #3 p))";
    }
  }

  std::string int_leaf() {
    if (std::string v = var("int"); !v.empty() && pick(2) == 0) return v;
    switch (pick(8)) {
      case 0: return "ps";
      case 1: return "ss";
      case 2: return small();
      case 3: return "udpSrc(#2 p)";
      case 4: return "udpDst(#2 p)";
      case 5: return "blobLen(#3 p)";
      case 6:
        // Total 64-bit read: 0 once the 8 bytes run past the payload.
        return "(blobInt(#3 p, " + std::to_string(pick(6)) + ") % 1000)";
      default: return "(ps % 5)";
    }
  }

  std::string bool_leaf() {
    if (std::string v = var("bool"); !v.empty() && pick(2) == 0) return v;
    switch (pick(4)) {
      case 0: return "true";
      case 1: return "(ps > 0)";
      case 2: return "isMulticast(ipDst(#1 p))";
      default: return "(blobLen(#3 p) > " + std::to_string(pick(10)) + ")";
    }
  }

  std::string host_leaf() {
    if (std::string v = var("host"); !v.empty() && pick(2) == 0) return v;
    switch (pick(4)) {
      case 0: return "ipSrc(#1 p)";
      case 1: return "ipDst(#1 p)";
      case 2: return "10.0.0." + std::to_string(1 + pick(3));
      default: return "224.1.1.1";
    }
  }

  /// A random in-scope variable of `type`, or "" if there is none.
  std::string var(const std::string& type) {
    std::vector<const std::string*> names;
    for (const auto& [name, t] : scope_) {
      if (t == type) names.push_back(&name);
    }
    return names.empty() ? "" : *names[pick(static_cast<std::uint32_t>(names.size()))];
  }

  std::uint32_t pick(std::uint32_t n) { return rng_() % n; }
  std::string small() { return std::to_string(static_cast<int>(pick(9)) - 4); }
  std::string fresh() { return "v" + std::to_string(var_counter_++); }

  std::mt19937 rng_;
  int var_counter_ = 0;
  std::vector<std::pair<std::string, std::string>> scope_;  // (name, type)
};

/// Everything a run can be observed by.
struct Outcome {
  bool raised = false;
  std::string exception;
  std::int64_t ps = 0, ss = 0;
  std::vector<std::pair<std::string, Value>> sends;
  std::vector<Value> delivered;

  bool operator==(const Outcome& o) const {
    if (raised != o.raised || exception != o.exception) return false;
    if (!raised && (ps != o.ps || ss != o.ss)) return false;
    if (sends.size() != o.sends.size() || delivered.size() != o.delivered.size()) {
      return false;
    }
    for (std::size_t i = 0; i < sends.size(); ++i) {
      if (sends[i].first != o.sends[i].first || !sends[i].second.equals(o.sends[i].second)) {
        return false;
      }
    }
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      if (!delivered[i].equals(o.delivered[i])) return false;
    }
    return true;
  }
  std::string str() const {
    std::string s = raised ? "raise " + exception
                           : "(" + std::to_string(ps) + ", " + std::to_string(ss) + ")";
    for (const auto& [chan, pkt] : sends) s += " send " + chan + " " + pkt.str();
    for (const Value& pkt : delivered) s += " deliver " + pkt.str();
    return s;
  }
};

Value make_packet(int i) {
  net::IpHeader ip;
  ip.src = net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(1 + i % 3));
  ip.dst = i % 4 == 0 ? net::Ipv4Addr(224, 1, 1, 1)
                      : net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(1 + i % 2));
  ip.proto = net::IpProto::kUdp;
  std::vector<std::uint8_t> body(static_cast<std::size_t>(i % 11));
  for (std::size_t b = 0; b < body.size(); ++b) {
    body[b] = static_cast<std::uint8_t>(i * 37 + static_cast<int>(b) * 11);
  }
  return Value::of_tuple({Value::of_ip(ip),
                          Value::of_udp(net::UdpHeader{static_cast<std::uint16_t>(1000 + i),
                                                       static_cast<std::uint16_t>(80 + i % 3)}),
                          Value::of_blob(std::move(body))});
}

Outcome run_one(Engine& engine, NullEnv& env, std::int64_t ps, std::int64_t ss,
                const Value& pkt) {
  env.sends.clear();
  env.delivered.clear();
  Outcome out;
  try {
    Value result = engine.run_channel(0, Value::of_int(ps), Value::of_int(ss), pkt);
    out.ps = result.tuple_at(0).as_int();
    out.ss = result.tuple_at(1).as_int();
  } catch (const PlanPException& e) {
    out.raised = true;
    out.exception = e.name;
  }
  out.sends = env.sends;
  out.delivered = env.delivered;
  return out;
}

void check_engines_agree(std::uint32_t seed) {
  ExprGen gen(seed);
  std::string ps_body = gen.int_expr(5);
  std::string ss_body = gen.int_expr(3);
  std::string src =
      "channel c(ps : int, ss : int, p : ip*udp*blob) is\n"
      "  (OnRemote(c, p); ((" + ps_body + "), (" + ss_body + ")))";

  CheckedProgram checked;
  try {
    checked = typecheck(parse(src));
  } catch (const PlanPError& e) {
    FAIL() << "generator produced an ill-formed program: " << e.what() << "\n" << src;
  }

  NullEnv env_i, env_j;
  Interp interp(checked, env_i);
  CompiledProgram compiled = compile(checked);
  JitEngine jit(compiled, env_j);

  int i = 0;
  for (std::int64_t ps : {-17, -3, -1, 0, 1, 2, 5, 42, 1000}) {
    for (std::int64_t ss : {0, 7}) {
      Value pkt = make_packet(i++);
      Outcome a = run_one(interp, env_i, ps, ss, pkt);
      Outcome c = run_one(jit, env_j, ps, ss, pkt);
      EXPECT_EQ(a, c) << "interp=" << a.str() << "\njit=" << c.str() << "\nat ps=" << ps
                      << " ss=" << ss << " packet " << pkt.str() << "\n" << src;
    }
  }
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FuzzSeeds, EnginesAgreeOnRandomPrograms) { check_engines_agree(GetParam()); }

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FuzzSeeds, ::testing::Range(0u, 40u));

// The same corpus under poison-on-free: every recycled buffer, tuple slot and
// execution frame is scribbled with sentinels between channel runs, so a
// use-after-recycle in any engine shows up as a divergence (or a loud
// sentinel value) rather than a silent right answer from stale memory.
class PoisonedFuzzSeeds : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    prev_ = mem::poison_enabled();
    mem::set_poison(true);
  }
  void TearDown() override { mem::set_poison(prev_); }

 private:
  bool prev_ = false;
};

TEST_P(PoisonedFuzzSeeds, EnginesAgreeWithPoolPoisoning) {
  check_engines_agree(GetParam());
}

INSTANTIATE_TEST_SUITE_P(PoisonedPrograms, PoisonedFuzzSeeds,
                         ::testing::Range(0u, 20u));

}  // namespace
}  // namespace asp::planp
