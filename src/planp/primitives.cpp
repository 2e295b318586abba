#include "planp/primitives.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "planp/cache.hpp"

namespace asp::planp {

namespace {

using Args = std::span<const Value>;

[[noreturn]] void raise(const char* name) { throw PlanPException{name}; }

std::int64_t clamp16(std::int64_t v) {
  return std::clamp<std::int64_t>(v, -32768, 32767);
}

std::int16_t sample16(const std::vector<std::uint8_t>& pcm, std::size_t i) {
  // Little-endian 16-bit samples.
  return static_cast<std::int16_t>(pcm[2 * i] | (pcm[2 * i + 1] << 8));
}

void put16(std::vector<std::uint8_t>& out, std::int16_t s) {
  out.push_back(static_cast<std::uint8_t>(s & 0xFF));
  out.push_back(static_cast<std::uint8_t>((s >> 8) & 0xFF));
}

// blobInt: 64-bit little-endian field at `off`; 0 when out of range.
std::int64_t blob_int(const std::vector<std::uint8_t>& b, std::int64_t off) {
  if (off < 0 || off + 8 > static_cast<std::int64_t>(b.size())) return 0;
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + off, 8);  // LE hosts only, like sample16
  return static_cast<std::int64_t>(v);
}

}  // namespace

std::vector<std::uint8_t> audio_stereo_to_mono16(const std::vector<std::uint8_t>& pcm) {
  std::vector<std::uint8_t> out;
  std::size_t frames = pcm.size() / 4;  // L16 + R16
  out.reserve(frames * 2);
  for (std::size_t f = 0; f < frames; ++f) {
    std::int32_t l = sample16(pcm, 2 * f);
    std::int32_t r = sample16(pcm, 2 * f + 1);
    put16(out, static_cast<std::int16_t>(clamp16((l + r) / 2)));
  }
  return out;
}

std::vector<std::uint8_t> audio_mono_to_stereo16(const std::vector<std::uint8_t>& pcm) {
  std::vector<std::uint8_t> out;
  std::size_t samples = pcm.size() / 2;
  out.reserve(samples * 4);
  for (std::size_t i = 0; i < samples; ++i) {
    std::int16_t s = sample16(pcm, i);
    put16(out, s);
    put16(out, s);
  }
  return out;
}

std::vector<std::uint8_t> audio_16_to_8(const std::vector<std::uint8_t>& pcm) {
  std::vector<std::uint8_t> out;
  std::size_t samples = pcm.size() / 2;
  out.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    // Keep the high byte, biased to unsigned (classic 8-bit PCM).
    out.push_back(static_cast<std::uint8_t>((sample16(pcm, i) >> 8) + 128));
  }
  return out;
}

std::vector<std::uint8_t> audio_8_to_16(const std::vector<std::uint8_t>& pcm) {
  std::vector<std::uint8_t> out;
  out.reserve(pcm.size() * 2);
  for (std::uint8_t b : pcm) {
    put16(out, static_cast<std::int16_t>((static_cast<int>(b) - 128) << 8));
  }
  return out;
}

namespace {

// Shorthand type constructors for signatures.
TypePtr I() { return Type::Int(); }
TypePtr B() { return Type::Bool(); }
TypePtr C() { return Type::Char(); }
TypePtr S() { return Type::String(); }
TypePtr U() { return Type::Unit(); }
TypePtr H() { return Type::Host(); }
TypePtr BL() { return Type::Blob(); }
TypePtr IP() { return Type::Ip(); }
TypePtr TCP() { return Type::Tcp(); }
TypePtr UDP() { return Type::Udp(); }
TypePtr VA() { return Type::Var(0); }
TypePtr VB() { return Type::Var(1); }
TypePtr TAB() { return Type::Table(Type::Var(0), Type::Var(1)); }

}  // namespace

Primitives::Primitives() {
  auto add = [this](std::string name, std::vector<TypePtr> params, TypePtr ret,
                    PrimFn fn, bool may_raise = false, int cost = 1) {
    int idx = static_cast<int>(prims_.size());
    by_name_[name].push_back(idx);
    prims_.push_back(Primitive{std::move(name), std::move(params), std::move(ret),
                               may_raise, fn, cost, nullptr});
    return idx;
  };
  // Marks the overload `add` just registered as foldable on constant
  // arguments at specialization time (primitives.hpp).
  auto pure = [this](int idx) {
    Primitive& p = prims_[static_cast<std::size_t>(idx)];
    if (p.may_raise) throw std::logic_error("primitive " + p.name + ": pure but may raise");
    p.pure = true;
    return idx;
  };
  // Raw-scalar entry for the overload `add` just registered (primitives.hpp).
  auto raw = [this](int idx, RawPrimFn fn) {
    prims_[static_cast<std::size_t>(idx)].raw = fn;
  };

  // --- output ---------------------------------------------------------------
  for (TypePtr t : {S(), I(), B(), C(), H()}) {
    add("print", {t}, U(),
        [](EnvApi& env, Args a) {
          env.print(a[0].str());
          return Value::unit();
        },
        /*may_raise=*/false, /*cost=*/8);
    add("println", {t}, U(),
        [](EnvApi& env, Args a) {
          env.print(a[0].str() + "\n");
          return Value::unit();
        },
        /*may_raise=*/false, /*cost=*/8);
  }

  // --- conversions / scalar helpers ------------------------------------------
  pure(add("intToString", {I()}, S(),
      [](EnvApi&, Args a) { return Value::of_string(std::to_string(a[0].as_int())); }));
  pure(add("hostToString", {H()}, S(),
      [](EnvApi&, Args a) { return Value::of_string(a[0].as_host().str()); }));
  pure(add("charPos", {C()}, I(), [](EnvApi&, Args a) {
    return Value::of_int(static_cast<unsigned char>(a[0].as_char()));
  }));
  pure(add("ord", {C()}, I(), [](EnvApi&, Args a) {
    return Value::of_int(static_cast<unsigned char>(a[0].as_char()));
  }));
  add(
      "chr", {I()}, C(),
      [](EnvApi&, Args a) {
        std::int64_t v = a[0].as_int();
        if (v < 0 || v > 255) raise("InvalidChar");
        return Value::of_char(static_cast<char>(v));
      },
      /*may_raise=*/true);
  pure(add("abs", {I()}, I(), [](EnvApi&, Args a) {
    std::int64_t v = a[0].as_int();
    return Value::of_int(v < 0 ? int_sub(0, v) : v);  // wraps like unary minus
  }));
  pure(add("min", {I(), I()}, I(), [](EnvApi&, Args a) {
    return Value::of_int(std::min(a[0].as_int(), a[1].as_int()));
  }));
  pure(add("max", {I(), I()}, I(), [](EnvApi&, Args a) {
    return Value::of_int(std::max(a[0].as_int(), a[1].as_int()));
  }));
  pure(add("stringLen", {S()}, I(), [](EnvApi&, Args a) {
    return Value::of_int(static_cast<std::int64_t>(a[0].as_string().size()));
  }));
  add(
      "substring", {S(), I(), I()}, S(),
      [](EnvApi&, Args a) {
        const std::string& s = a[0].as_string();
        std::int64_t from = a[1].as_int(), len = a[2].as_int();
        if (from < 0 || len < 0 || from + len > static_cast<std::int64_t>(s.size())) {
          raise("OutOfBounds");
        }
        return Value::of_string(s.substr(static_cast<std::size_t>(from),
                                         static_cast<std::size_t>(len)));
      },
      /*may_raise=*/true, /*cost=*/8);
  pure(add("startsWith", {S(), S()}, B(), [](EnvApi&, Args a) {
    const std::string& s = a[0].as_string();
    const std::string& pre = a[1].as_string();
    return Value::of_bool(s.rfind(pre, 0) == 0);
  }));
  pure(add("strIndex", {S(), S()}, I(), [](EnvApi&, Args a) {
    auto pos = a[0].as_string().find(a[1].as_string());
    return Value::of_int(pos == std::string::npos ? -1 : static_cast<std::int64_t>(pos));
  }));
  // ASP extensions (paper §2.3: primitives added when PLAN-P moved from pure
  // routing to ASPs — protocol text parsing for the MPEG monitor).
  add(
      "strWord", {S(), I()}, S(),
      [](EnvApi&, Args a) {
        const std::string& s = a[0].as_string();
        std::int64_t want = a[1].as_int();
        std::size_t pos = 0;
        std::int64_t idx = 0;
        while (pos < s.size()) {
          while (pos < s.size() && s[pos] == ' ') ++pos;
          std::size_t start = pos;
          while (pos < s.size() && s[pos] != ' ') ++pos;
          if (start == pos) break;
          if (idx == want) return Value::of_string(s.substr(start, pos - start));
          ++idx;
        }
        raise("OutOfBounds");
      },
      /*may_raise=*/true, /*cost=*/8);
  add(
      "stringToInt", {S()}, I(),
      [](EnvApi&, Args a) {
        const std::string& s = a[0].as_string();
        if (s.empty()) raise("BadNumber");
        std::size_t i = s[0] == '-' ? 1 : 0;
        if (i == s.size()) raise("BadNumber");
        std::int64_t v = 0;
        for (; i < s.size(); ++i) {
          if (s[i] < '0' || s[i] > '9') raise("BadNumber");
          v = v * 10 + (s[i] - '0');
        }
        return Value::of_int(s[0] == '-' ? -v : v);
      },
      /*may_raise=*/true);
  add(
      "stringToHost", {S()}, H(),
      [](EnvApi&, Args a) {
        auto h = asp::net::Ipv4Addr::parse(a[0].as_string());
        if (!h) raise("BadHost");
        return Value::of_host(*h);
      },
      /*may_raise=*/true);

  // --- hash tables ------------------------------------------------------------
  add("mkTable", {I()}, TAB(),
      [](EnvApi&, Args a) {
        return Value::of_table(std::make_shared<HashTable>(
            static_cast<std::size_t>(std::max<std::int64_t>(1, a[0].as_int()))));
      },
      /*may_raise=*/false, /*cost=*/64);
  add(
      "tableGet", {TAB(), VA()}, VB(),
      [](EnvApi&, Args a) {
        auto v = a[0].as_table()->get(a[1]);
        if (!v) raise("NotFound");
        return *v;
      },
      /*may_raise=*/true, /*cost=*/4);
  add("tableSet", {TAB(), VA(), VB()}, U(),
      [](EnvApi&, Args a) {
        a[0].as_table()->set(a[1], a[2]);
        return Value::unit();
      },
      /*may_raise=*/false, /*cost=*/4);
  add("tableMem", {TAB(), VA()}, B(),
      [](EnvApi&, Args a) {
        return Value::of_bool(a[0].as_table()->contains(a[1]));
      },
      /*may_raise=*/false, /*cost=*/4);
  add("tableRemove", {TAB(), VA()}, U(),
      [](EnvApi&, Args a) {
        a[0].as_table()->remove(a[1]);
        return Value::unit();
      },
      /*may_raise=*/false, /*cost=*/4);
  add("tableSize", {TAB()}, I(), [](EnvApi&, Args a) {
    return Value::of_int(static_cast<std::int64_t>(a[0].as_table()->size()));
  });
  add("tableGetDefault", {TAB(), VA(), VB()}, VB(),
      [](EnvApi&, Args a) {
        auto v = a[0].as_table()->get(a[1]);
        return v ? *v : a[2];
      },
      /*may_raise=*/false, /*cost=*/4);

  // --- IP header --------------------------------------------------------------
  raw(add("ipSrc", {IP()}, H(),
          [](EnvApi&, Args a) { return Value::of_host(a[0].as_ip().src); }),
      [](EnvApi&, const Value* v, const std::int64_t*) -> std::int64_t {
        return v[0].as_ip().src.bits();
      });
  raw(add("ipDst", {IP()}, H(),
          [](EnvApi&, Args a) { return Value::of_host(a[0].as_ip().dst); }),
      [](EnvApi&, const Value* v, const std::int64_t*) -> std::int64_t {
        return v[0].as_ip().dst.bits();
      });
  add("ipSrcSet", {IP(), H()}, IP(), [](EnvApi&, Args a) {
    asp::net::IpHeader h = a[0].as_ip();
    h.src = a[1].as_host();
    return Value::of_ip(h);
  });
  add("ipDestSet", {IP(), H()}, IP(), [](EnvApi&, Args a) {
    asp::net::IpHeader h = a[0].as_ip();
    h.dst = a[1].as_host();
    return Value::of_ip(h);
  });
  add("ipProto", {IP()}, I(), [](EnvApi&, Args a) {
    return Value::of_int(static_cast<std::int64_t>(a[0].as_ip().proto));
  });
  add("ipTtl", {IP()}, I(),
      [](EnvApi&, Args a) { return Value::of_int(a[0].as_ip().ttl); });
  add("ipTos", {IP()}, I(),
      [](EnvApi&, Args a) { return Value::of_int(a[0].as_ip().tos); });
  add("ipTosSet", {IP(), I()}, IP(), [](EnvApi&, Args a) {
    asp::net::IpHeader h = a[0].as_ip();
    h.tos = static_cast<std::uint8_t>(a[1].as_int());
    return Value::of_ip(h);
  });
  pure(add("isMulticast", {H()}, B(), [](EnvApi&, Args a) {
    return Value::of_bool(a[0].as_host().is_multicast());
  }));
  pure(add("hostToInt", {H()}, I(), [](EnvApi&, Args a) {
    return Value::of_int(a[0].as_host().bits());
  }));

  // --- TCP header --------------------------------------------------------------
  add("tcpSrc", {TCP()}, I(),
      [](EnvApi&, Args a) { return Value::of_int(a[0].as_tcp().sport); });
  add("tcpDst", {TCP()}, I(),
      [](EnvApi&, Args a) { return Value::of_int(a[0].as_tcp().dport); });
  add("tcpSeq", {TCP()}, I(),
      [](EnvApi&, Args a) { return Value::of_int(a[0].as_tcp().seq); });
  add("tcpAckNo", {TCP()}, I(),
      [](EnvApi&, Args a) { return Value::of_int(a[0].as_tcp().ack); });
  add("tcpSrcSet", {TCP(), I()}, TCP(), [](EnvApi&, Args a) {
    asp::net::TcpHeader h = a[0].as_tcp();
    h.sport = static_cast<std::uint16_t>(a[1].as_int());
    return Value::of_tcp(h);
  });
  add("tcpDstSet", {TCP(), I()}, TCP(), [](EnvApi&, Args a) {
    asp::net::TcpHeader h = a[0].as_tcp();
    h.dport = static_cast<std::uint16_t>(a[1].as_int());
    return Value::of_tcp(h);
  });
  add("tcpSyn", {TCP()}, B(), [](EnvApi&, Args a) {
    return Value::of_bool(a[0].as_tcp().has(asp::net::tcpflag::kSyn));
  });
  add("tcpAck", {TCP()}, B(), [](EnvApi&, Args a) {
    return Value::of_bool(a[0].as_tcp().has(asp::net::tcpflag::kAck));
  });
  add("tcpFin", {TCP()}, B(), [](EnvApi&, Args a) {
    return Value::of_bool(a[0].as_tcp().has(asp::net::tcpflag::kFin));
  });
  add("tcpRst", {TCP()}, B(), [](EnvApi&, Args a) {
    return Value::of_bool(a[0].as_tcp().has(asp::net::tcpflag::kRst));
  });

  // --- UDP header --------------------------------------------------------------
  raw(add("udpSrc", {UDP()}, I(),
          [](EnvApi&, Args a) { return Value::of_int(a[0].as_udp().sport); }),
      [](EnvApi&, const Value* v, const std::int64_t*) -> std::int64_t {
        return v[0].as_udp().sport;
      });
  raw(add("udpDst", {UDP()}, I(),
          [](EnvApi&, Args a) { return Value::of_int(a[0].as_udp().dport); }),
      [](EnvApi&, const Value* v, const std::int64_t*) -> std::int64_t {
        return v[0].as_udp().dport;
      });
  add("udpSrcSet", {UDP(), I()}, UDP(), [](EnvApi&, Args a) {
    asp::net::UdpHeader h = a[0].as_udp();
    h.sport = static_cast<std::uint16_t>(a[1].as_int());
    return Value::of_udp(h);
  });
  add("udpDstSet", {UDP(), I()}, UDP(), [](EnvApi&, Args a) {
    asp::net::UdpHeader h = a[0].as_udp();
    h.dport = static_cast<std::uint16_t>(a[1].as_int());
    return Value::of_udp(h);
  });

  // --- blobs ---------------------------------------------------------------------
  raw(pure(add("blobLen", {BL()}, I(),
          [](EnvApi&, Args a) {
            return Value::of_int(static_cast<std::int64_t>(a[0].as_blob()->size()));
          })),
      [](EnvApi&, const Value* v, const std::int64_t*) -> std::int64_t {
        return static_cast<std::int64_t>(v[0].as_blob()->size());
      });
  add(
      "blobByte", {BL(), I()}, I(),
      [](EnvApi&, Args a) {
        const auto& b = *a[0].as_blob();
        std::int64_t i = a[1].as_int();
        if (i < 0 || i >= static_cast<std::int64_t>(b.size())) raise("OutOfBounds");
        return Value::of_int(b[static_cast<std::size_t>(i)]);
      },
      /*may_raise=*/true);
  add(
      "blobSub", {BL(), I(), I()}, BL(),
      [](EnvApi&, Args a) {
        const auto& b = *a[0].as_blob();
        std::int64_t from = a[1].as_int(), len = a[2].as_int();
        if (from < 0 || len < 0 || from + len > static_cast<std::int64_t>(b.size())) {
          raise("OutOfBounds");
        }
        return Value::of_blob(std::vector<std::uint8_t>(
            b.begin() + from, b.begin() + from + len));
      },
      /*may_raise=*/true, /*cost=*/32);
  add("blobCat", {BL(), BL()}, BL(),
      [](EnvApi&, Args a) {
        std::vector<std::uint8_t> out = *a[0].as_blob();
        const auto& b = *a[1].as_blob();
        out.insert(out.end(), b.begin(), b.end());
        return Value::of_blob(std::move(out));
      },
      /*may_raise=*/false, /*cost=*/32);
  pure(add("blobFromString", {S()}, BL(),
      [](EnvApi&, Args a) {
        const std::string& s = a[0].as_string();
        return Value::of_blob(std::vector<std::uint8_t>(s.begin(), s.end()));
      },
      /*may_raise=*/false, /*cost=*/16));
  pure(add("blobToString", {BL()}, S(),
      [](EnvApi&, Args a) {
        const auto& b = *a[0].as_blob();
        return Value::of_string(std::string(b.begin(), b.end()));
      },
      /*may_raise=*/false, /*cost=*/16));
  // 64-bit little-endian field access, for binary wire formats (the scenario
  // cache profile's object ids / sequence numbers). Both are TOTAL — an
  // out-of-range offset reads 0 / writes nothing — so verified caching ASPs
  // can parse packets without a try (a raising read would cost them the
  // guaranteed-delivery verdict; see cacheGetDefault below).
  raw(pure(add("blobInt", {BL(), I()}, I(),
          [](EnvApi&, Args a) {
            return Value::of_int(blob_int(*a[0].as_blob(), a[1].as_int()));
          },
          /*may_raise=*/false, /*cost=*/2)),
      [](EnvApi&, const Value* v, const std::int64_t* r) {
        return blob_int(*v[0].as_blob(), r[1]);
      });
  add("blobPutInt", {BL(), I(), I()}, BL(),
      [](EnvApi&, Args a) {
        const auto& b = *a[0].as_blob();
        std::int64_t off = a[1].as_int();
        if (off < 0 || off + 8 > static_cast<std::int64_t>(b.size())) {
          return a[0];  // nothing to patch: the blob passes through unchanged
        }
        // Copy into a pooled buffer (capacity guaranteed, so the assignment
        // does not allocate in steady state), then patch the field.
        net::Buffer out = net::acquire_buffer(b.size());
        auto& bytes = const_cast<std::vector<std::uint8_t>&>(*out);
        bytes = b;
        std::uint64_t v = static_cast<std::uint64_t>(a[2].as_int());
        std::memcpy(bytes.data() + off, &v, 8);
        return Value::of_blob_shared(std::move(out));
      },
      /*may_raise=*/false, /*cost=*/32);

  // --- audio transcoding (paper §3.1: degrade 16-bit stereo to 8-bit mono) ----
  add("audioStereoToMono", {BL()}, BL(),
      [](EnvApi&, Args a) {
        return Value::of_blob(audio_stereo_to_mono16(*a[0].as_blob()));
      },
      /*may_raise=*/false, /*cost=*/64);
  add("audioMonoToStereo", {BL()}, BL(),
      [](EnvApi&, Args a) {
        return Value::of_blob(audio_mono_to_stereo16(*a[0].as_blob()));
      },
      /*may_raise=*/false, /*cost=*/64);
  add("audio16To8", {BL()}, BL(),
      [](EnvApi&, Args a) {
        return Value::of_blob(audio_16_to_8(*a[0].as_blob()));
      },
      /*may_raise=*/false, /*cost=*/64);
  add("audio8To16", {BL()}, BL(),
      [](EnvApi&, Args a) {
        return Value::of_blob(audio_8_to_16(*a[0].as_blob()));
      },
      /*may_raise=*/false, /*cost=*/64);

  // --- image distillation (paper §5: "integration of image distillation
  // support into PLAN-P" for low-bandwidth adaptation) -------------------------
  add(
      "distillImage", {BL(), I()}, BL(),
      [](EnvApi&, Args a) {
        const auto& img = *a[0].as_blob();
        std::int64_t q = a[1].as_int();
        if (q < 1 || q > 16) raise("BadQuality");
        if (q == 1) return a[0];
        std::vector<std::uint8_t> out;
        out.reserve(img.size() / static_cast<std::size_t>(q) + 1);
        for (std::size_t i = 0; i < img.size(); i += static_cast<std::size_t>(q)) {
          out.push_back(img[i]);
        }
        return Value::of_blob(std::move(out));
      },
      /*may_raise=*/true, /*cost=*/64);

  // --- object cache (HTTP edge caching ASPs; planp/cache.hpp, DESIGN.md §6i) --
  // Keys are 64-bit FNV-1a digests carried as PLAN-P ints; bodies are blobs
  // aliased into the node's CacheStore, so a fill pins the packet's pooled
  // payload buffer and an eviction releases it — no copies on either side.
  add("cacheConfigure", {I(), I()}, U(),
      [](EnvApi& env, Args a) {
        env.cache().configure(
            static_cast<std::size_t>(std::max<std::int64_t>(1, a[0].as_int())),
            a[1].as_int());
        return Value::unit();
      },
      /*may_raise=*/false, /*cost=*/64);
  raw(add("cacheKey", {S(), H(), S()}, I(),
          [](EnvApi&, Args a) {
            return Value::of_int(static_cast<std::int64_t>(CacheStore::key_of(
                a[0].as_string(), a[1].as_host().bits(), a[2].as_string())));
          },
          /*may_raise=*/false, /*cost=*/8),
      [](EnvApi&, const Value* v, const std::int64_t* r) {
        return static_cast<std::int64_t>(CacheStore::key_of(
            v[0].as_string(), static_cast<std::uint32_t>(r[1]), v[2].as_string()));
      });
  raw(add("cacheKey", {I(), H()}, I(),
          [](EnvApi&, Args a) {
            return Value::of_int(static_cast<std::int64_t>(CacheStore::key_of(
                static_cast<std::uint64_t>(a[0].as_int()), a[1].as_host().bits())));
          },
          /*may_raise=*/false, /*cost=*/2),
      [](EnvApi&, const Value*, const std::int64_t* r) {
        return static_cast<std::int64_t>(CacheStore::key_of(
            static_cast<std::uint64_t>(r[0]), static_cast<std::uint32_t>(r[1])));
      });
  add(
      "cacheLookup", {I()}, BL(),
      [](EnvApi& env, Args a) {
        const net::Buffer* b = env.cache().lookup(
            static_cast<std::uint64_t>(a[0].as_int()), env.time_ms());
        if (b == nullptr) raise("CacheMiss");
        return Value::of_blob_shared(*b);
      },
      /*may_raise=*/true, /*cost=*/8);
  // Non-raising lookup (mirrors tableGetDefault): the form verified caching
  // ASPs use on the fast path — a raising call would force a try whose
  // handler either re-sends (breaking the duplication analysis, which sums a
  // try's body and handler) or drops (breaking guaranteed delivery).
  add("cacheGetDefault", {I(), BL()}, BL(),
      [](EnvApi& env, Args a) {
        const net::Buffer* b = env.cache().lookup(
            static_cast<std::uint64_t>(a[0].as_int()), env.time_ms());
        return b == nullptr ? a[1] : Value::of_blob_shared(*b);
      },
      /*may_raise=*/false, /*cost=*/8);
  add("cacheStore", {I(), BL()}, U(),
      [](EnvApi& env, Args a) {
        env.cache().store(static_cast<std::uint64_t>(a[0].as_int()),
                          a[1].as_blob(), env.time_ms());
        return Value::unit();
      },
      /*may_raise=*/false, /*cost=*/8);
  add("cacheHas", {I()}, B(),
      [](EnvApi& env, Args a) {
        return Value::of_bool(env.cache().contains(
            static_cast<std::uint64_t>(a[0].as_int()), env.time_ms()));
      },
      /*may_raise=*/false, /*cost=*/4);
  add("cacheSize", {}, I(), [](EnvApi& env, Args) {
    return Value::of_int(static_cast<std::int64_t>(env.cache().size()));
  });

  // --- environment ------------------------------------------------------------
  add("thisHost", {}, H(),
      [](EnvApi& env, Args) { return Value::of_host(env.this_host()); });
  add("getTime", {}, I(),
      [](EnvApi& env, Args) { return Value::of_int(env.time_ms()); });
  add("linkLoad", {}, I(),
      [](EnvApi& env, Args) { return Value::of_int(env.link_load_percent()); });
  add("linkBandwidth", {}, I(), [](EnvApi& env, Args) {
    return Value::of_int(env.link_bandwidth_kbps());
  });
  add("arrivalIface", {}, I(),
      [](EnvApi& env, Args) { return Value::of_int(env.arrival_iface()); });

}

const Primitives& Primitives::instance() {
  static const Primitives p;
  return p;
}

const std::vector<int>& Primitives::overloads(const std::string& name) const {
  static const std::vector<int> empty;
  auto it = by_name_.find(name);
  return it == by_name_.end() ? empty : it->second;
}

}  // namespace asp::planp
