#include "planp/jit.hpp"

#include <algorithm>
#include <climits>

#include "obs/metrics.hpp"

namespace asp::planp {

namespace {

using K = Type::Kind;

// --- scalar boxing -------------------------------------------------------------

std::int64_t raw_of(const Value& v) {
  const Value::Rep& r = v.rep();
  if (const auto* i = std::get_if<std::int64_t>(&r)) return *i;
  if (const auto* h = std::get_if<net::Ipv4Addr>(&r)) return h->bits();
  if (const auto* b = std::get_if<bool>(&r)) return *b ? 1 : 0;
  if (const auto* c = std::get_if<char>(&r)) return *c;
  throw EvalBug{"jit: boxed value in a scalar slot"};
}

std::int64_t raw_of(const Scalar& s) {
  if (const auto* i = std::get_if<std::int64_t>(&s)) return *i;
  if (const auto* h = std::get_if<net::Ipv4Addr>(&s)) return h->bits();
  if (const auto* b = std::get_if<bool>(&s)) return *b ? 1 : 0;
  if (const auto* c = std::get_if<char>(&s)) return *c;
  throw EvalBug{"jit: unit in a scalar slot"};
}

Value box_raw(K kind, std::int64_t x) {
  switch (kind) {
    case K::kBool: return Value::of_bool(x != 0);
    case K::kChar: return Value::of_char(static_cast<char>(x));
    case K::kHost: return Value::of_host(net::Ipv4Addr(static_cast<std::uint32_t>(x)));
    default: return Value::of_int(x);
  }
}

/// Field `i` of a tuple, unboxed, without materializing the element Value.
std::int64_t raw_field(const Value& t, std::size_t i) {
  if (const auto* rep = std::get_if<TupleRep>(&t.rep())) return raw_of((**rep)[i]);
  if (const auto* pair = std::get_if<ScalarPair>(&t.rep())) {
    return raw_of(i == 0 ? pair->first : pair->second);
  }
  throw EvalBug{"jit: projection from a non-tuple"};
}

int compare_values(const Value& a, const Value& b) {
  if (const auto* s = std::get_if<std::string>(&a.rep())) return s->compare(b.as_string());
  if (const auto* c = std::get_if<char>(&a.rep())) return *c - b.as_char();
  std::int64_t x = a.as_int(), y = b.as_int();
  return x < y ? -1 : (x > y ? 1 : 0);
}

bool holds(BinCode code, int cmp) {
  switch (code) {
    case BinCode::kLt: return cmp < 0;
    case BinCode::kLe: return cmp <= 0;
    case BinCode::kGt: return cmp > 0;
    default: return cmp >= 0;
  }
}

// --- specialization ---------------------------------------------------------------

bool is_jump(Op op) {
  return op == Op::kJump || op == Op::kJumpIfFalse || op == Op::kJumpIfTrue ||
         op == Op::kTryPush;
}

/// The RR template of a raw binary operator (the RI form is the next op).
std::int32_t raw_binop(BinCode c) {
  switch (c) {
    case BinCode::kAdd: return jop::kAddRR;
    case BinCode::kSub: return jop::kSubRR;
    case BinCode::kMul: return jop::kMulRR;
    case BinCode::kDiv: return jop::kDivRR;
    case BinCode::kMod: return jop::kModRR;
    case BinCode::kEq: return jop::kEqRR;
    case BinCode::kNe: return jop::kNeRR;
    case BinCode::kLt: return jop::kLtRR;
    case BinCode::kLe: return jop::kLeRR;
    case BinCode::kGt: return jop::kGtRR;
    case BinCode::kGe: return jop::kGeRR;
    case BinCode::kConcat: break;
  }
  throw EvalBug{"jit: no raw template for ^"};
}

/// `b op a` == `a mirror(op) b`; kConcat marks operators that do not commute.
BinCode mirrored(BinCode c) {
  switch (c) {
    case BinCode::kAdd:
    case BinCode::kMul:
    case BinCode::kEq:
    case BinCode::kNe: return c;
    case BinCode::kLt: return BinCode::kGt;
    case BinCode::kLe: return BinCode::kGe;
    case BinCode::kGt: return BinCode::kLt;
    case BinCode::kGe: return BinCode::kLe;
    default: return BinCode::kConcat;
  }
}

bool is_raw_compare(std::int32_t op) { return op >= jop::kEqRR && op <= jop::kGeRI; }

/// The compare-and-branch template for compare template `cmp`, taken when
/// the comparison holds (`when`) or fails (!when).
std::int32_t branch_of(std::int32_t cmp, bool when) {
  std::int32_t rel = cmp - jop::kEqRR;  // pairs: Eq Ne Lt Le Gt Ge, RR then RI
  if (!when) {
    static constexpr std::int32_t kNegated[] = {1, 0, 5, 4, 3, 2};  // Eq<->Ne, Lt<->Ge, ...
    rel = kNegated[rel / 2] * 2 + rel % 2;
  }
  return jop::kBrEqRR + rel;
}

/// Stack code -> typed register code. The operand stack is simulated: each
/// entry is a value sitting in its canonical temp slot (frame_slots + depth)
/// or a lazy reference to a local or a constant, consumed in place by the
/// instruction that pops it. Lazy entries are materialized only where two
/// control paths meet, so every join sees the canonical layout.
class Specializer {
 public:
  Specializer(const CodeBlock& block, const CompiledProgram& prog,
              const std::vector<Value>& globals)
      : block_(block), prog_(prog), globals_(globals), base_(block.frame_slots) {}

  JitBlock run() {
    const std::vector<Instr>& code = block_.code;
    std::vector<bool> target(code.size() + 1, false);
    for (const Instr& in : code) {
      if (is_jump(in.op)) target[static_cast<std::size_t>(in.a)] = true;
    }
    edges_.assign(code.size() + 1, {});
    std::vector<std::int32_t> new_pc(code.size() + 1, 0);
    bool falls_through = true;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (target[i]) {
        if (falls_through) {
          flush();
          edges_[i].push_back(kinds());
        }
        enter_label(edges_[i]);
      }
      new_pc[i] = static_cast<std::int32_t>(out_.size());
      step(code[i]);
      falls_through = code[i].op != Op::kJump && code[i].op != Op::kReturn;
    }
    new_pc[code.size()] = static_cast<std::int32_t>(out_.size());
    for (std::size_t j : jumps_) {
      out_[j].dst = new_pc[static_cast<std::size_t>(out_[j].dst)];
    }
    thread_jumps();
    JitBlock b;
    b.code = std::move(out_);
    b.slots = base_ + block_.max_stack;
    b.params = block_.params;
    b.folded = std::move(folded_);
    return b;
  }

 private:
  struct Opnd {
    enum Where : std::uint8_t { kTemp, kLocal, kConst };
    Where where = kTemp;
    K kind = K::kUnit;
    std::int32_t slot = 0;     // kLocal
    std::int64_t imm = 0;      // kConst of a raw kind
    const Value* k = nullptr;  // kConst
    bool raw() const { return is_raw_kind(kind); }
    bool bottom() const { return kind == K::kBottom; }
  };

  std::int32_t tslot(std::size_t depth) const {
    return base_ + static_cast<std::int32_t>(depth);
  }

  std::vector<K> kinds() const {
    std::vector<K> ks;
    for (const Opnd& o : st_) ks.push_back(o.kind);
    return ks;
  }

  /// Starts a jump target: the stack is the canonical layout, each entry's
  /// kind taken from an incoming edge that really produces it (a `raise`
  /// arm produces nothing and shows up as kBottom).
  void enter_label(const std::vector<std::vector<K>>& edges) {
    if (edges.empty()) throw EvalBug{"jit: jump target without an edge"};
    std::vector<K> ks = edges[0];
    for (const auto& e : edges) {
      if (e.size() != ks.size()) throw EvalBug{"jit: stack depth differs at a join"};
      for (std::size_t j = 0; j < ks.size(); ++j) {
        if (ks[j] == K::kBottom) ks[j] = e[j];
      }
    }
    st_.clear();
    for (K kind : ks) st_.push_back(Opnd{Opnd::kTemp, kind});
    fence_ = out_.size();
    last_def_ = SIZE_MAX;
  }

  void emit(const SInstr& s) {
    out_.push_back(s);
    last_def_ = SIZE_MAX;
  }

  /// Emits a template writing the value at the new stack top.
  void produce(SInstr s, K kind) {
    s.dst = tslot(st_.size());
    emit(s);
    last_def_ = out_.size() - 1;
    st_.push_back(Opnd{Opnd::kTemp, kind});
  }

  /// The emitted template that wrote stack entry `j`, if it is the last one
  /// and no label separates it from here; null otherwise.
  SInstr* fresh_def(std::size_t j) {
    if (st_[j].where != Opnd::kTemp || last_def_ != out_.size() - 1 ||
        last_def_ < fence_ || out_.back().dst != tslot(j)) {
      return nullptr;
    }
    return &out_.back();
  }

  void control(SInstr s, std::int32_t bytecode_target) {
    s.dst = bytecode_target;  // patched to the template index in run()
    jumps_.push_back(out_.size());
    emit(s);
  }

  /// Entry j in its canonical temp, in its own storage class.
  void to_temp(std::size_t j) {
    Opnd& o = st_[j];
    if (o.where == Opnd::kTemp) return;
    SInstr s;
    s.dst = tslot(j);
    if (o.raw()) {
      if (o.where == Opnd::kConst) {
        s.op = jop::kImmR;
        s.imm = o.imm;
      } else {
        s.op = jop::kMovR;
        s.a = o.slot;
      }
    } else {
      s.op = jop::kMovV;
      s.a = o.slot;
      s.k = o.k;
    }
    emit(s);
    o = Opnd{Opnd::kTemp, o.kind};
  }

  void flush() {
    for (std::size_t j = 0; j < st_.size(); ++j) to_temp(j);
  }

  /// Entry j as a boxed Value in V[tslot(j)] (argument and element windows,
  /// consumed right after).
  void to_boxed_temp(std::size_t j) {
    Opnd& o = st_[j];
    if (o.bottom() || (o.where == Opnd::kTemp && !o.raw())) return;
    SInstr s;
    s.dst = tslot(j);
    if (o.where == Opnd::kConst) {
      s.op = jop::kMovV;
      s.k = o.k;
    } else if (o.raw()) {
      s.op = o.kind == K::kBool   ? jop::kBoxBool
             : o.kind == K::kChar ? jop::kBoxChar
             : o.kind == K::kHost ? jop::kBoxHost
                                  : jop::kBoxInt;
      s.a = o.where == Opnd::kLocal ? o.slot : tslot(j);
    } else {
      s.op = jop::kMovV;
      s.a = o.slot;
    }
    emit(s);
    o = Opnd{Opnd::kTemp, K::kTuple};  // now boxed
  }

  /// Raw register holding entry j (constants are loaded into its temp).
  std::int32_t raw_reg(std::size_t j) {
    Opnd& o = st_[j];
    if (o.where == Opnd::kConst) to_temp(j);
    return o.where == Opnd::kLocal ? o.slot : tslot(j);
  }

  /// Boxed operand (slot, pointer) for entry j.
  void boxed_ref(std::size_t j, std::int32_t& slot, const Value*& k) {
    if (st_[j].raw()) to_boxed_temp(j);
    const Opnd& o = st_[j];
    slot = o.where == Opnd::kLocal ? o.slot : tslot(j);
    k = o.where == Opnd::kConst ? o.k : nullptr;
  }

  /// Base (slot, pointer) such that boxed argument i of the call whose first
  /// argument is entry d0 reads base[i], for every i in `args`. Arguments
  /// already lying in order in the frame (a single argument always does)
  /// are passed in place; otherwise all of them are copied into the window.
  void boxed_base(std::size_t d0, const std::vector<std::size_t>& args,
                  std::int32_t& slot, const Value*& k) {
    slot = tslot(d0);
    k = nullptr;
    if (args.empty()) return;
    bool in_place = true;
    std::int32_t base = INT_MIN;
    for (std::size_t i : args) {
      const Opnd& o = st_[d0 + i];
      if (o.bottom()) continue;
      if (o.raw()) {
        in_place = false;
      } else if (o.where == Opnd::kConst) {
        if (args.size() == 1 && i == 0) {
          k = o.k;
          return;
        }
        in_place = false;
      } else {
        std::int32_t at = o.where == Opnd::kLocal ? o.slot : tslot(d0 + i);
        std::int32_t cand = at - static_cast<std::int32_t>(i);
        if (cand < 0 || (base != INT_MIN && base != cand)) in_place = false;
        base = cand;
      }
    }
    if (in_place && base != INT_MIN) {
      slot = base;
      return;
    }
    for (std::size_t i : args) to_boxed_temp(d0 + i);
  }

  /// Same for raw arguments, in R.
  std::int32_t raw_base(std::size_t d0, const std::vector<std::size_t>& args) {
    bool in_place = true;
    std::int32_t base = INT_MIN;
    for (std::size_t i : args) {
      Opnd& o = st_[d0 + i];
      if (o.where == Opnd::kConst) to_temp(d0 + i);
      std::int32_t at = o.where == Opnd::kLocal ? o.slot : tslot(d0 + i);
      std::int32_t cand = at - static_cast<std::int32_t>(i);
      if (cand < 0 || (base != INT_MIN && base != cand)) in_place = false;
      base = cand;
    }
    if (in_place && base != INT_MIN) return base;
    for (std::size_t i : args) to_temp(d0 + i);
    return tslot(d0);
  }

  void step(const Instr& in) {
    switch (in.op) {
      case Op::kConst: {
        const Value& v = prog_.consts[static_cast<std::size_t>(in.a)];
        Opnd o{Opnd::kConst, in.ty};
        o.k = &v;
        if (o.raw()) o.imm = raw_of(v);
        st_.push_back(o);
        return;
      }
      case Op::kLoadLocal: {
        Opnd o{Opnd::kLocal, in.ty};
        o.slot = in.a;
        st_.push_back(o);
        return;
      }
      case Op::kLoadGlobal: {
        // Blocks are specialized in declaration order, so every `val` a
        // block can see has already been evaluated.
        const auto g = static_cast<std::size_t>(in.a);
        if (g >= globals_.size()) throw EvalBug{"jit: global read before its val"};
        Opnd o{Opnd::kConst, in.ty};
        o.k = &globals_[g];
        if (o.raw()) o.imm = raw_of(*o.k);
        st_.push_back(o);
        return;
      }
      case Op::kStoreLocal: store_local(in.a, in.ty); return;
      case Op::kPop: st_.pop_back(); return;
      case Op::kJump: {
        flush();
        edges_[static_cast<std::size_t>(in.a)].push_back(kinds());
        SInstr s;
        s.op = jop::kJump;
        control(s, in.a);
        return;
      }
      case Op::kJumpIfFalse:
      case Op::kJumpIfTrue: branch(in.a, in.op == Op::kJumpIfTrue); return;
      case Op::kTryPush: {
        flush();
        edges_[static_cast<std::size_t>(in.a)].push_back(kinds());
        SInstr s;
        s.op = jop::kTryPush;
        control(s, in.a);
        return;
      }
      case Op::kTryPop: {
        SInstr s;
        s.op = jop::kTryPop;
        emit(s);
        return;
      }
      case Op::kMakeTuple: make_tuple(static_cast<std::size_t>(in.a)); return;
      case Op::kProj: {
        SInstr s;
        s.op = is_raw_kind(in.ty) ? jop::kProjR : jop::kProjV;
        s.b = in.a;
        boxed_ref(st_.size() - 1, s.a, s.k);
        st_.pop_back();
        produce(s, in.ty);
        return;
      }
      case Op::kCallPrim: call_prim(in); return;
      case Op::kCallFun: call_fun(in); return;
      case Op::kBinOp: binop(static_cast<BinCode>(in.a), in.ty); return;
      case Op::kNot:
      case Op::kNeg: {
        SInstr s;
        s.op = in.op == Op::kNot ? jop::kNot : jop::kNeg;
        s.a = raw_reg(st_.size() - 1);
        st_.pop_back();
        produce(s, in.ty);
        return;
      }
      case Op::kRaise: {
        SInstr s;
        s.op = jop::kRaise;
        s.k = &prog_.consts[static_cast<std::size_t>(in.a)];
        emit(s);
        st_.push_back(Opnd{Opnd::kTemp, in.ty});  // never produced
        return;
      }
      case Op::kSend: {
        SInstr s;
        s.op = jop::kSend;
        s.b = in.a;  // SendKind
        // The interned channel id is patched in: the send template
        // dispatches by integer tag, never hashing the name on the packet
        // path. (Deliver/drop carry the empty name, tag 0.)
        s.c = static_cast<std::int32_t>(net::ChannelTags::intern(
            prog_.consts[static_cast<std::size_t>(in.b)].as_string()));
        boxed_ref(st_.size() - 1, s.a, s.k);
        st_.pop_back();
        emit(s);
        return;
      }
      case Op::kReturn: {
        SInstr s;
        const std::size_t j = st_.size() - 1;
        const Opnd& o = st_[j];
        if (o.raw() && o.where != Opnd::kConst) {
          s.op = jop::kReturnR;
          s.a = raw_reg(j);
          s.imm = static_cast<std::int64_t>(o.kind);
        } else {
          s.op = jop::kReturnV;
          if (o.raw()) {
            s.k = o.k;
          } else {
            boxed_ref(j, s.a, s.k);
          }
        }
        st_.pop_back();
        emit(s);
        return;
      }
    }
    throw EvalBug{"jit: unhandled bytecode op"};
  }

  /// Control templates skip over jumps to jumps, a jump to a return becomes
  /// the return, and a pair built only to be returned is returned directly
  /// — the `(ps', ss)` epilogue of every channel arm. (All jumps go
  /// forward, so the chains end.)
  void thread_jumps() {
    for (std::size_t j : jumps_) {
      auto t = static_cast<std::size_t>(out_[j].dst);
      while (t < out_.size() && out_[t].op == jop::kJump) {
        t = static_cast<std::size_t>(out_[t].dst);
      }
      out_[j].dst = static_cast<std::int32_t>(t);
      if (out_[j].op == jop::kJump && t < out_.size() &&
          (out_[t].op == jop::kReturnV || out_[t].op == jop::kReturnR)) {
        out_[j] = out_[t];
      }
    }
    for (std::size_t i = 0; i + 1 < out_.size(); ++i) {
      const SInstr& next = out_[i + 1];
      if (out_[i].op == jop::kPair && next.op == jop::kReturnV && next.k == nullptr &&
          next.a == out_[i].dst) {
        out_[i].op = jop::kReturnPair;
      }
    }
  }

  void store_local(std::int32_t x, K kind) {
    const std::size_t j = st_.size() - 1;
    const bool raw = is_raw_kind(kind);
    auto reads_x = [&](const Opnd& o) {
      return o.where == Opnd::kLocal && o.slot == x && o.raw() == raw;
    };
    const bool aliased = std::any_of(st_.begin(), st_.end() - 1, reads_x);
    const Opnd v = st_[j];
    SInstr* def = fresh_def(j);
    if (def != nullptr && !aliased && !v.bottom()) {
      def->dst = x;  // the producer writes the local directly
      st_.pop_back();
      return;
    }
    for (std::size_t i = 0; i < j; ++i) {
      if (reads_x(st_[i])) to_temp(i);  // read before the local changes
    }
    st_.pop_back();
    if (v.bottom()) return;
    SInstr s;
    s.dst = x;
    if (raw) {
      if (v.where == Opnd::kConst) {
        s.op = jop::kImmR;
        s.imm = v.imm;
      } else {
        s.op = jop::kMovR;
        s.a = v.where == Opnd::kLocal ? v.slot : tslot(j);
      }
    } else {
      s.op = jop::kMovV;
      s.a = v.where == Opnd::kLocal ? v.slot : tslot(j);
      s.k = v.where == Opnd::kConst ? v.k : nullptr;
    }
    if (s.op != jop::kImmR && s.k == nullptr && s.a == x) return;  // already there
    emit(s);
  }

  void branch(std::int32_t target, bool when) {
    const std::size_t j = st_.size() - 1;
    if (SInstr* def = fresh_def(j); def != nullptr && is_raw_compare(def->op)) {
      // compare + branch -> one compare-and-branch template (the compare's
      // operands are locals or temps above the stack that flush() writes).
      SInstr s = *def;
      out_.pop_back();
      st_.pop_back();
      flush();
      edges_[static_cast<std::size_t>(target)].push_back(kinds());
      s.op = branch_of(s.op, when);
      control(s, target);
      return;
    }
    SInstr s;
    s.op = when ? jop::kJumpIfTrue : jop::kJumpIfFalse;
    s.a = raw_reg(j);
    st_.pop_back();
    flush();
    edges_[static_cast<std::size_t>(target)].push_back(kinds());
    control(s, target);
  }

  void make_tuple(std::size_t n) {
    const std::size_t d0 = st_.size() - n;
    SInstr s;
    if (n == 2) {
      // Pair elements are read where they are; raw ones are boxed by kind.
      auto elem = [&](std::size_t j, std::int32_t& slot, const Value*& k) {
        const Opnd& o = st_[j];
        if (o.raw() && o.where != Opnd::kConst) {
          slot = raw_reg(j);
          return static_cast<std::int32_t>(o.kind) + 1;
        }
        if (o.raw()) {
          k = o.k;
        } else {
          boxed_ref(j, slot, k);
        }
        return 0;
      };
      s.op = jop::kPair;
      s.c = elem(d0, s.a, s.k) | (elem(d0 + 1, s.b, s.k2) << 8);
    } else {
      for (std::size_t i = 0; i < n; ++i) to_boxed_temp(d0 + i);
      s.op = jop::kTuple;
      s.a = tslot(d0);
      s.b = static_cast<std::int32_t>(n);
    }
    st_.resize(d0);
    produce(s, K::kTuple);
  }

  void call_prim(const Instr& in) {
    const Primitive& prim = Primitives::instance().at(in.a);
    const auto n = static_cast<std::size_t>(in.b);
    const std::size_t d0 = st_.size() - n;
    if (fold(prim, d0, in.ty)) return;
    SInstr s;
    s.prim = &prim;
    s.b = in.b;
    if (prim.raw != nullptr && is_raw_kind(in.ty)) {
      std::vector<std::size_t> boxed, raw;
      for (std::size_t i = 0; i < n; ++i) {
        (is_raw_kind(prim.params[i]->kind()) ? raw : boxed).push_back(i);
      }
      s.op = jop::kCallRaw;
      boxed_base(d0, boxed, s.a, s.k);
      s.b = raw_base(d0, raw);
    } else {
      std::vector<std::size_t> all(n);
      for (std::size_t i = 0; i < n; ++i) all[i] = i;
      s.op = is_raw_kind(in.ty) ? jop::kCallPrimR : jop::kCallPrim;
      boxed_base(d0, all, s.a, s.k);
    }
    st_.resize(d0);
    produce(s, in.ty);
  }

  /// A pure primitive applied to constants is evaluated now, and its result
  /// becomes a constant operand: `blobFromString("")` costs nothing per
  /// packet.
  bool fold(const Primitive& prim, std::size_t d0, K ty) {
    if (!prim.pure || d0 == st_.size()) return false;
    std::vector<Value> args;
    for (std::size_t j = d0; j < st_.size(); ++j) {
      if (st_[j].where != Opnd::kConst) return false;
      args.push_back(*st_[j].k);
    }
    static NullEnv no_env;  // pure primitives never touch it
    folded_.push_back(std::make_unique<const Value>(prim.fn(no_env, args)));
    st_.resize(d0);
    Opnd o{Opnd::kConst, ty};
    o.k = folded_.back().get();
    if (o.raw()) o.imm = raw_of(*o.k);
    st_.push_back(o);
    return true;
  }

  void call_fun(const Instr& in) {
    const CodeBlock& fb = prog_.functions[static_cast<std::size_t>(in.a)];
    const auto n = static_cast<std::size_t>(in.b);
    if (n > 63) throw EvalBug{"jit: more than 63 function parameters"};
    const std::size_t d0 = st_.size() - n;
    SInstr s;
    for (std::size_t i = 0; i < n; ++i) {
      if (is_raw_kind(fb.params[i])) {
        std::int32_t r = raw_reg(d0 + i);
        if (r != tslot(d0 + i)) {
          SInstr mv;
          mv.op = jop::kMovR;
          mv.dst = tslot(d0 + i);
          mv.a = r;
          emit(mv);
        }
        s.imm |= std::int64_t{1} << i;
      } else {
        to_boxed_temp(d0 + i);
      }
    }
    s.op = is_raw_kind(in.ty) ? jop::kCallFunR : jop::kCallFun;
    s.a = in.a;
    s.b = in.b;
    s.c = tslot(d0);
    st_.resize(d0);
    produce(s, in.ty);
  }

  void binop(BinCode code, K ty) {
    std::size_t l = st_.size() - 2, r = st_.size() - 1;
    auto boxed_kind = [](const Opnd& o) { return !o.raw() && !o.bottom(); };
    const bool arith = code == BinCode::kAdd || code == BinCode::kSub ||
                       code == BinCode::kMul || code == BinCode::kDiv ||
                       code == BinCode::kMod;
    const bool boxed = code == BinCode::kConcat ||
                       (!arith && (boxed_kind(st_[l]) || boxed_kind(st_[r])));
    SInstr s;
    if (boxed) {
      s.op = code == BinCode::kConcat ? jop::kConcat
             : code == BinCode::kEq   ? jop::kEqV
             : code == BinCode::kNe   ? jop::kNeV
                                      : jop::kCmpV;
      s.imm = static_cast<std::int64_t>(code);
      boxed_ref(l, s.a, s.k);
      boxed_ref(r, s.b, s.k2);
    } else {
      // A constant on the left of a commuting operator moves right, so it
      // can be patched in as the immediate.
      if (st_[l].where == Opnd::kConst && st_[r].where != Opnd::kConst &&
          mirrored(code) != BinCode::kConcat) {
        std::swap(l, r);
        code = mirrored(code);
      }
      s.a = raw_reg(l);
      if (st_[r].where == Opnd::kConst) {
        s.op = raw_binop(code) + 1;  // RI form
        s.imm = st_[r].imm;
      } else {
        s.op = raw_binop(code);
        s.b = raw_reg(r);
      }
    }
    st_.resize(st_.size() - 2);
    produce(s, ty);
  }

  const CodeBlock& block_;
  const CompiledProgram& prog_;
  const std::vector<Value>& globals_;
  const std::int32_t base_;  // first temp slot
  std::vector<Opnd> st_;
  std::vector<SInstr> out_;
  std::vector<std::vector<std::vector<K>>> edges_;  // per bytecode pc
  std::vector<std::size_t> jumps_;  // control templates awaiting targets
  std::vector<std::unique_ptr<const Value>> folded_;
  std::size_t fence_ = 0;           // first template after the last label
  std::size_t last_def_ = SIZE_MAX; // template that wrote the stack top
};

/// Does a channel body ever read its packet (local slot 2)? A false answer
/// means the body is packet-oblivious and the dispatcher can skip payload
/// decoding (match-only classification). Function calls are covered
/// transitively: a callee only sees the packet if the caller loaded slot 2
/// to pass it, which this scan catches.
bool reads_packet(const CodeBlock& b) {
  for (const Instr& in : b.code) {
    if ((in.op == Op::kLoadLocal || in.op == Op::kStoreLocal) && in.a == 2) return true;
  }
  return false;
}

}  // namespace

/// Install-time-prepared dispatch handle: the body block is resolved once
/// (no .at() per packet) and packet use is pre-analyzed, so the match-action
/// dispatcher can enter specialized code directly for each packet.
class JitEngine::PreparedChannel : public Engine::Channel {
 public:
  PreparedChannel(JitEngine& e, const JitBlock& body, bool packet_used)
      : engine_(e), body_(body), packet_used_(packet_used) {}
  bool packet_used() const override { return packet_used_; }
  Value run(const Value& ps, const Value& ss, const Value& packet) override {
    return engine_.run_channel_body(body_, ps, ss, packet);
  }

 private:
  JitEngine& engine_;
  const JitBlock& body_;
  bool packet_used_;
};

void JitEngine::Frame::fit(int slots) {
  const auto n = static_cast<std::size_t>(slots);
  if (v.size() >= n) return;
  mem::ScopedAllocTag tag(mem::AllocTag::kFrame);
  v.resize(n);
  r.resize(n);
  tries.reserve(8);
}

JitBlock JitEngine::specialize(const CodeBlock& b) {
  auto t0 = std::chrono::steady_clock::now();
  JitBlock out = Specializer(b, prog_, globals_).run();
  // Direct threading: resolve each template's opcode to its handler address
  // once, here, so run_block dispatches with a single indirect goto instead
  // of a bounds-checked switch. Under the fallback build the table is null
  // and the handlers stay unpatched (the switch ignores them).
  if (handlers_ != nullptr) {
    for (SInstr& s : out.code) s.handler = handlers_[static_cast<std::size_t>(s.op)];
  }
  stats_.generation_ms +=
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  stats_.output_instrs += out.code.size();
  return out;
}

JitEngine::JitEngine(const CompiledProgram& prog, EnvApi& env) : prog_(prog), env_(env) {
  {
    JitBlock empty;
    run_block(empty, frame_at(0), &handlers_);
  }
  // Declaration order: a `val` may call earlier functions and a function may
  // read earlier `val`s, so each block is specialized once everything it can
  // see exists — with the values of the globals patched in.
  globals_.reserve(prog_.global_inits.size());
  functions_.reserve(prog_.functions.size());
  std::size_t next_fun = 0;
  if (prog_.source != nullptr) {
    for (const auto& decl : prog_.source->program.decls) {
      if (std::holds_alternative<FunDef>(decl)) {
        functions_.push_back(specialize(prog_.functions[next_fun++]));
      } else if (std::holds_alternative<ValDef>(decl)) {
        JitBlock b = specialize(prog_.global_inits[globals_.size()]);
        Frame& fr = frame_at(depth_);
        fr.fit(b.slots);
        globals_.push_back(run_block(b, fr));
      }
    }
  }
  for (; next_fun < prog_.functions.size(); ++next_fun) {
    functions_.push_back(specialize(prog_.functions[next_fun]));
  }
  channel_bodies_.reserve(prog_.channel_bodies.size());
  for (const CodeBlock& b : prog_.channel_bodies) channel_bodies_.push_back(specialize(b));
  channel_inits_.reserve(prog_.channel_inits.size());
  for (const CodeBlock& b : prog_.channel_inits) channel_inits_.push_back(specialize(b));

  stats_.input_instrs = prog_.total_instructions();
  stats_.code_bytes = stats_.output_instrs * sizeof(SInstr);
  if (prog_.source != nullptr) stats_.source_lines = prog_.source->program.source_lines;

  // Prepared dispatch handles, one per channel. channel_bodies_ is frozen
  // from here on, so the handles can keep direct block references.
  prepared_.reserve(channel_bodies_.size());
  for (std::size_t i = 0; i < channel_bodies_.size(); ++i) {
    prepared_.push_back(std::make_unique<PreparedChannel>(
        *this, channel_bodies_[i], reads_packet(prog_.channel_bodies[i])));
  }

  // Figure 3 in registry form: specialization cost per JIT construction.
  obs::MetricsRegistry& reg = obs::registry();
  reg.histogram("planp/jit/codegen_us").observe(stats_.generation_ms * 1000.0);
  reg.counter("planp/jit/compiles").inc();
  reg.counter("planp/jit/input_instrs").inc(stats_.input_instrs);
  reg.counter("planp/jit/output_instrs").inc(stats_.output_instrs);
}

JitEngine::~JitEngine() = default;

JitEngine::Frame& JitEngine::frame_at(int depth) {
  const auto d = static_cast<std::size_t>(depth);
  if (d >= frames_.size()) {
    mem::ScopedAllocTag tag(mem::AllocTag::kFrame);
    while (frames_.size() <= d) frames_.push_back(std::make_unique<Frame>());
  }
  return *frames_[d];
}

Value JitEngine::init_state(int chan_idx) {
  const JitBlock& b = channel_inits_.at(static_cast<std::size_t>(chan_idx));
  if (b.code.empty()) {
    return default_value(
        prog_.source->channels.at(static_cast<std::size_t>(chan_idx))->ss_type);
  }
  Frame& fr = frame_at(depth_);
  fr.fit(b.slots);
  return run_block(b, fr);
}

Value JitEngine::run_channel(int chan_idx, const Value& ps, const Value& ss,
                             const Value& packet) {
  return run_channel_body(channel_bodies_.at(static_cast<std::size_t>(chan_idx)),
                          ps, ss, packet);
}

Engine::Channel* JitEngine::channel(int chan_idx) {
  return prepared_.at(static_cast<std::size_t>(chan_idx)).get();
}

Value JitEngine::run_channel_body(const JitBlock& b, const Value& ps,
                                  const Value& ss, const Value& packet) {
  Frame& fr = frame_at(depth_);
  fr.fit(std::max(b.slots, 3));
  const Value* args[3] = {&ps, &ss, &packet};
  for (std::size_t i = 0; i < 3; ++i) {
    if (i < b.params.size() && is_raw_kind(b.params[i])) {
      fr.r[i] = raw_of(*args[i]);
    } else {
      fr.v[i] = *args[i];
    }
  }
  Value out = run_block(b, fr);
  // Let go of the packet: the runtime refills its decode tuple in place only
  // while it holds the last reference to it.
  fr.v[2] = Value();
  if (mem::poison_enabled()) {
    // Any slot still read after this point now yields the sentinel: boxed
    // slots hold the poison int, raw slots its raw value. Frames below
    // depth_ belong to a dispatch this run is nested in and stay intact.
    const Value sentinel = Value::of_int(mem::kPoisonInt);
    for (std::size_t d = static_cast<std::size_t>(depth_); d < frames_.size(); ++d) {
      std::fill(frames_[d]->v.begin(), frames_[d]->v.end(), sentinel);
      std::fill(frames_[d]->r.begin(), frames_[d]->r.end(), mem::kPoisonInt);
    }
  }
  return out;
}

// Direct-threaded dispatch (GCC/Clang labels-as-values): every template
// carries its handler's address, so executing an instruction is one indirect
// goto — no bounds-checked switch, and the branch predictor sees one distinct
// indirect jump per handler instead of a single shared dispatch point. The
// portable switch fallback (ASP_NO_COMPUTED_GOTO, or non-GNU compilers)
// compiles the same handler bodies inside a switch.
#if (defined(__GNUC__) || defined(__clang__)) && !defined(ASP_NO_COMPUTED_GOTO)
#define ASP_JIT_THREADED 1
#define VM_DISPATCH() \
  in = &code[pc];     \
  ++pc;               \
  goto* in->handler
#define VM_CASE(name) lbl_##name
#else
#define ASP_JIT_THREADED 0
#define VM_DISPATCH() goto dispatch
#define VM_CASE(name) case jop::name
#endif

// Operand accessors inside run_block.
#define OPA (in->k != nullptr ? *in->k : V[in->a])
#define OPB (in->k2 != nullptr ? *in->k2 : V[in->b])
#define RDST R[in->dst]
#define RA R[in->a]
#define RB R[in->b]

Value JitEngine::run_block(const JitBlock& block, Frame& fr,
                          const void* const** table_out) {
#if ASP_JIT_THREADED
#define ASP_JIT_LABEL(name) &&lbl_k##name,
  // Generated from ASP_JIT_OPS: entry i handles opcode i.
  static const void* const kLabels[jop::kCount] = {ASP_JIT_OPS(ASP_JIT_LABEL)};
#undef ASP_JIT_LABEL
  if (table_out != nullptr) {
    *table_out = kLabels;
    return Value{};
  }
#else
  if (table_out != nullptr) {
    *table_out = nullptr;
    return Value{};
  }
#endif

  // Re-entering through kCallFun uses the next frame; the guard keeps
  // depth_ correct even when a PLAN-P exception unwinds through this frame.
  struct DepthGuard {
    int& d;
    explicit DepthGuard(int& depth) : d(depth) { ++d; }
    ~DepthGuard() { --d; }
  } guard(depth_);

  Value* const V = fr.v.data();
  std::int64_t* const R = fr.r.data();
  std::vector<std::int32_t>& tries = fr.tries;
  tries.clear();
  const SInstr* code = block.code.data();
  const SInstr* in = nullptr;
  std::size_t pc = 0;

  for (;;) {
    try {
#if !ASP_JIT_THREADED
    dispatch:
      in = &code[pc];
      ++pc;
      switch (in->op) {
#else
      VM_DISPATCH();
#endif
        VM_CASE(kMovR) : RDST = RA;
        VM_DISPATCH();
        VM_CASE(kImmR) : RDST = in->imm;
        VM_DISPATCH();
        VM_CASE(kMovV) : V[in->dst] = OPA;
        VM_DISPATCH();
        VM_CASE(kBoxInt) : V[in->dst] = Value::of_int(RA);
        VM_DISPATCH();
        VM_CASE(kBoxBool) : V[in->dst] = Value::of_bool(RA != 0);
        VM_DISPATCH();
        VM_CASE(kBoxChar) : V[in->dst] = Value::of_char(static_cast<char>(RA));
        VM_DISPATCH();
        VM_CASE(kBoxHost)
            : V[in->dst] = Value::of_host(net::Ipv4Addr(static_cast<std::uint32_t>(RA)));
        VM_DISPATCH();

        VM_CASE(kJump) : pc = static_cast<std::size_t>(in->dst);
        VM_DISPATCH();
        VM_CASE(kJumpIfFalse) : if (RA == 0) pc = static_cast<std::size_t>(in->dst);
        VM_DISPATCH();
        VM_CASE(kJumpIfTrue) : if (RA != 0) pc = static_cast<std::size_t>(in->dst);
        VM_DISPATCH();

#define ASP_JIT_ARITH(name, expr_rr, expr_ri) \
  VM_CASE(k##name##RR) : RDST = expr_rr;      \
  VM_DISPATCH();                              \
  VM_CASE(k##name##RI) : RDST = expr_ri;      \
  VM_DISPATCH();
        ASP_JIT_ARITH(Add, int_add(RA, RB), int_add(RA, in->imm))
        ASP_JIT_ARITH(Sub, int_sub(RA, RB), int_sub(RA, in->imm))
        ASP_JIT_ARITH(Mul, int_mul(RA, RB), int_mul(RA, in->imm))
        ASP_JIT_ARITH(Div, int_div(RA, RB), int_div(RA, in->imm))
        ASP_JIT_ARITH(Mod, int_mod(RA, RB), int_mod(RA, in->imm))
        ASP_JIT_ARITH(Eq, RA == RB, RA == in->imm)
        ASP_JIT_ARITH(Ne, RA != RB, RA != in->imm)
        ASP_JIT_ARITH(Lt, RA < RB, RA < in->imm)
        ASP_JIT_ARITH(Le, RA <= RB, RA <= in->imm)
        ASP_JIT_ARITH(Gt, RA > RB, RA > in->imm)
        ASP_JIT_ARITH(Ge, RA >= RB, RA >= in->imm)
#undef ASP_JIT_ARITH

#define ASP_JIT_BRANCH(name, op)                                         \
  VM_CASE(kBr##name##RR) : if (RA op RB) pc = static_cast<std::size_t>(in->dst); \
  VM_DISPATCH();                                                         \
  VM_CASE(kBr##name##RI) : if (RA op in->imm) pc = static_cast<std::size_t>(in->dst); \
  VM_DISPATCH();
        ASP_JIT_BRANCH(Eq, ==)
        ASP_JIT_BRANCH(Ne, !=)
        ASP_JIT_BRANCH(Lt, <)
        ASP_JIT_BRANCH(Le, <=)
        ASP_JIT_BRANCH(Gt, >)
        ASP_JIT_BRANCH(Ge, >=)
#undef ASP_JIT_BRANCH

        VM_CASE(kNeg) : RDST = int_sub(0, RA);
        VM_DISPATCH();
        VM_CASE(kNot) : RDST = RA == 0 ? 1 : 0;
        VM_DISPATCH();
        VM_CASE(kEqV) : RDST = OPA.equals(OPB) ? 1 : 0;
        VM_DISPATCH();
        VM_CASE(kNeV) : RDST = OPA.equals(OPB) ? 0 : 1;
        VM_DISPATCH();
        VM_CASE(kCmpV)
            : RDST = holds(static_cast<BinCode>(in->imm), compare_values(OPA, OPB)) ? 1 : 0;
        VM_DISPATCH();
        VM_CASE(kConcat) : V[in->dst] = Value::of_string(OPA.as_string() + OPB.as_string());
        VM_DISPATCH();

        VM_CASE(kPair) : {
          // Pairs dominate ASP tuples; scalar pairs store inline in the
          // Value (no shared_ptr<vector>, no allocation).
          const std::int32_t rk0 = in->c & 0xFF, rk1 = in->c >> 8;
          Value first = rk0 != 0 ? box_raw(static_cast<K>(rk0 - 1), RA) : OPA;
          Value second = rk1 != 0 ? box_raw(static_cast<K>(rk1 - 1), RB) : OPB;
          V[in->dst] = Value::of_pair(std::move(first), std::move(second));
        }
        VM_DISPATCH();
        VM_CASE(kTuple) : {
          const auto n = static_cast<std::size_t>(in->b);
          TupleRep t = Value::make_tuple_storage(n);
          for (std::size_t i = 0; i < n; ++i) {
            t->push_back(std::move(V[static_cast<std::size_t>(in->a) + i]));
          }
          V[in->dst] = Value::of_tuple_rep(std::move(t));
        }
        VM_DISPATCH();
        VM_CASE(kProjV) : {
          // Copy straight out of a pooled tuple, unless the tuple lives only
          // in the slot being overwritten.
          const Value& t = OPA;
          const Value* e = t.tuple_elem(static_cast<std::size_t>(in->b));
          if (e != nullptr && (in->k != nullptr || in->dst != in->a)) {
            V[in->dst] = *e;
          } else {
            V[in->dst] = t.tuple_at(static_cast<std::size_t>(in->b));
          }
        }
        VM_DISPATCH();
        VM_CASE(kProjR) : RDST = raw_field(OPA, static_cast<std::size_t>(in->b));
        VM_DISPATCH();

        VM_CASE(kCallPrim)
            : V[in->dst] = in->prim->fn(
                  env_, std::span<const Value>(in->k != nullptr ? in->k : V + in->a,
                                               static_cast<std::size_t>(in->b)));
        VM_DISPATCH();
        VM_CASE(kCallPrimR)
            : RDST = raw_of(in->prim->fn(
                  env_, std::span<const Value>(in->k != nullptr ? in->k : V + in->a,
                                               static_cast<std::size_t>(in->b))));
        VM_DISPATCH();
        VM_CASE(kCallRaw)
            : RDST = in->prim->raw(env_, in->k != nullptr ? in->k : V + in->a, R + in->b);
        VM_DISPATCH();
        VM_CASE(kCallFun) : VM_CASE(kCallFunR) : {
          const JitBlock& fb = functions_[static_cast<std::size_t>(in->a)];
          Frame& callee = frame_at(depth_);
          callee.fit(fb.slots);
          for (std::int32_t i = 0; i < in->b; ++i) {
            const auto from = static_cast<std::size_t>(in->c + i);
            if ((in->imm >> i) & 1) {
              callee.r[static_cast<std::size_t>(i)] = R[from];
            } else {
              callee.v[static_cast<std::size_t>(i)] = std::move(V[from]);
            }
          }
          Value out = run_block(fb, callee);
          if (in->op == jop::kCallFun) {
            V[in->dst] = std::move(out);
          } else {
            RDST = raw_of(out);
          }
        }
        VM_DISPATCH();

        VM_CASE(kRaise) : throw PlanPException{in->k->as_string()};
        VM_CASE(kTryPush) : tries.push_back(in->dst);
        VM_DISPATCH();
        VM_CASE(kTryPop) : tries.pop_back();
        VM_DISPATCH();
        VM_CASE(kSend) : {
          // in->c holds the channel id interned at specialization time.
          switch (static_cast<SendKind>(in->b)) {
            case SendKind::kOnRemote:
              env_.on_remote(static_cast<std::uint32_t>(in->c), OPA);
              break;
            case SendKind::kOnNeighbor:
              env_.on_neighbor(static_cast<std::uint32_t>(in->c), OPA);
              break;
            case SendKind::kDeliver: env_.deliver(OPA); break;
            case SendKind::kDrop: env_.drop(); break;
          }
        }
        VM_DISPATCH();
        VM_CASE(kReturnV) : {
          if (in->k != nullptr) return *in->k;
          return std::move(V[in->a]);  // the frame is done with it
        }
        VM_CASE(kReturnR) : return box_raw(static_cast<K>(in->imm), RA);
        VM_CASE(kReturnPair) : {
          const std::int32_t rk0 = in->c & 0xFF, rk1 = in->c >> 8;
          return Value::of_pair(rk0 != 0 ? box_raw(static_cast<K>(rk0 - 1), RA) : OPA,
                                rk1 != 0 ? box_raw(static_cast<K>(rk1 - 1), RB) : OPB);
        }

#if !ASP_JIT_THREADED
        default:
          throw EvalBug{"jit: bad opcode"};
      }
#endif
    } catch (const PlanPException&) {
      if (tries.empty()) throw;
      pc = static_cast<std::size_t>(tries.back());
      tries.pop_back();
    }
  }
}

#undef OPA
#undef OPB
#undef RDST
#undef RA
#undef RB
#undef VM_DISPATCH
#undef VM_CASE

}  // namespace asp::planp
