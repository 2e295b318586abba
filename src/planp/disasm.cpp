#include "planp/disasm.hpp"
#include <cstdarg>

#include <cstdio>

namespace asp::planp {

const char* op_name(Op op) {
  switch (op) {
    case Op::kConst: return "Const";
    case Op::kLoadLocal: return "LoadLocal";
    case Op::kStoreLocal: return "StoreLocal";
    case Op::kLoadGlobal: return "LoadGlobal";
    case Op::kJump: return "Jump";
    case Op::kJumpIfFalse: return "JumpIfFalse";
    case Op::kJumpIfTrue: return "JumpIfTrue";
    case Op::kPop: return "Pop";
    case Op::kMakeTuple: return "MakeTuple";
    case Op::kProj: return "Proj";
    case Op::kCallPrim: return "CallPrim";
    case Op::kCallFun: return "CallFun";
    case Op::kBinOp: return "BinOp";
    case Op::kNot: return "Not";
    case Op::kNeg: return "Neg";
    case Op::kRaise: return "Raise";
    case Op::kTryPush: return "TryPush";
    case Op::kTryPop: return "TryPop";
    case Op::kSend: return "Send";
    case Op::kReturn: return "Return";
  }
  return "?";
}

const char* jop_name(std::int32_t op) {
#define ASP_JIT_NAME(name) #name,
  static const char* const kNames[jop::kCount] = {ASP_JIT_OPS(ASP_JIT_NAME)};
#undef ASP_JIT_NAME
  return op >= 0 && op < jop::kCount ? kNames[op] : "?";
}

namespace {

const char* bin_name(BinCode c) {
  switch (c) {
    case BinCode::kAdd: return "+";
    case BinCode::kSub: return "-";
    case BinCode::kMul: return "*";
    case BinCode::kDiv: return "/";
    case BinCode::kMod: return "%";
    case BinCode::kEq: return "=";
    case BinCode::kNe: return "<>";
    case BinCode::kLt: return "<";
    case BinCode::kLe: return "<=";
    case BinCode::kGt: return ">";
    case BinCode::kGe: return ">=";
    case BinCode::kConcat: return "^";
  }
  return "?";
}

const char* kind_name(Type::Kind k) {
  switch (k) {
    case Type::Kind::kInt: return "int";
    case Type::Kind::kBool: return "bool";
    case Type::Kind::kChar: return "char";
    case Type::Kind::kString: return "string";
    case Type::Kind::kUnit: return "unit";
    case Type::Kind::kHost: return "host";
    case Type::Kind::kBlob: return "blob";
    case Type::Kind::kIp: return "ip";
    case Type::Kind::kTcp: return "tcp";
    case Type::Kind::kUdp: return "udp";
    case Type::Kind::kTuple: return "tuple";
    case Type::Kind::kTable: return "hash_table";
    case Type::Kind::kChan: return "chan";
    case Type::Kind::kVar: return "'a";
    case Type::Kind::kBottom: return "bottom";
  }
  return "?";
}

std::string fmt(const char* f, ...) {
  char buf[256];
  va_list args;
  va_start(args, f);
  std::vsnprintf(buf, sizeof buf, f, args);
  va_end(args);
  return buf;
}

}  // namespace

std::string disassemble(const CodeBlock& block, const CompiledProgram& prog) {
  std::string out;
  for (std::size_t i = 0; i < block.code.size(); ++i) {
    const Instr& in = block.code[i];
    out += fmt("%4zu: %-12s", i, op_name(in.op));
    switch (in.op) {
      case Op::kConst:
      case Op::kRaise:
        out += fmt(" %d  ; %s", in.a,
                   prog.consts[static_cast<std::size_t>(in.a)].str().c_str());
        break;
      case Op::kLoadLocal:
      case Op::kStoreLocal:
      case Op::kLoadGlobal:
      case Op::kMakeTuple:
      case Op::kProj:
        out += fmt(" %d", in.a);
        break;
      case Op::kJump:
      case Op::kJumpIfFalse:
      case Op::kJumpIfTrue:
      case Op::kTryPush:
        out += fmt(" -> %d", in.a);
        break;
      case Op::kCallPrim:
        out += fmt(" %s/%d", Primitives::instance().at(in.a).name.c_str(), in.b);
        break;
      case Op::kCallFun:
        out += fmt(" fun#%d/%d", in.a, in.b);
        break;
      case Op::kBinOp:
        out += fmt(" %s", bin_name(static_cast<BinCode>(in.a)));
        break;
      case Op::kSend:
        out += fmt(" kind=%d chan=%s", in.a,
                   prog.consts[static_cast<std::size_t>(in.b)].str().c_str());
        break;
      default:
        break;
    }
    if (in.ty != Type::Kind::kUnit) out += fmt("  : %s", kind_name(in.ty));
    out += '\n';
  }
  return out;
}

std::string disassemble(const CompiledProgram& prog) {
  std::string out;
  const CheckedProgram* src = prog.source;
  for (std::size_t i = 0; i < prog.functions.size(); ++i) {
    out += "fun " +
           (src != nullptr ? src->functions[i]->name : "#" + std::to_string(i)) +
           " (slots=" + std::to_string(prog.functions[i].frame_slots) + "):\n";
    out += disassemble(prog.functions[i], prog);
  }
  for (std::size_t i = 0; i < prog.channel_bodies.size(); ++i) {
    std::string name = src != nullptr ? src->channels[i]->name : "#" + std::to_string(i);
    std::string type = src != nullptr ? src->channels[i]->packet_type->str() : "?";
    out += "channel " + name + " (" + type +
           ", slots=" + std::to_string(prog.channel_bodies[i].frame_slots) + "):\n";
    out += disassemble(prog.channel_bodies[i], prog);
  }
  return out;
}

std::string disassemble(const JitBlock& block) {
  // Operands in the templates' own notation (jit.hpp): rN / vN are raw and
  // boxed frame slots, #x an immediate, 'k' a patched constant.
  std::string out;
  for (std::size_t i = 0; i < block.code.size(); ++i) {
    const SInstr& in = block.code[i];
    auto boxed = [](std::int32_t slot, const Value* k) {
      return k != nullptr ? "'" + k->str() + "'" : fmt("v%d", slot);
    };
    out += fmt("%4zu: %-12s", i, jop_name(in.op));
    switch (in.op) {
      case jop::kJump:
      case jop::kTryPush:
        out += fmt(" -> %d", in.dst);
        break;
      case jop::kJumpIfFalse:
      case jop::kJumpIfTrue:
        out += fmt(" r%d -> %d", in.a, in.dst);
        break;
      case jop::kTryPop:
        break;
      case jop::kImmR:
        out += fmt(" r%d = #%lld", in.dst, static_cast<long long>(in.imm));
        break;
      case jop::kMovV:
      case jop::kProjV:
      case jop::kProjR:
        out += fmt(" %c%d = ", in.op == jop::kProjR ? 'r' : 'v', in.dst) + boxed(in.a, in.k);
        if (in.op != jop::kMovV) out += fmt(" #%d", in.b + 1);
        break;
      case jop::kEqV:
      case jop::kNeV:
      case jop::kCmpV:
      case jop::kConcat:
      case jop::kPair:
      case jop::kReturnPair:
        out += fmt(" %c%d = ", in.op == jop::kConcat || in.op == jop::kPair ? 'v' : 'r',
                   in.dst) +
               ((in.c & 0xFF) != 0 ? fmt("r%d", in.a) : boxed(in.a, in.k)) + ", " +
               ((in.c >> 8) != 0 ? fmt("r%d", in.b) : boxed(in.b, in.k2));
        break;
      case jop::kTuple:
        out += fmt(" v%d = v%d..v%d", in.dst, in.a, in.a + in.b - 1);
        break;
      case jop::kCallPrim:
      case jop::kCallPrimR:
      case jop::kCallRaw:
        out += fmt(" %c%d = %s(", in.op == jop::kCallPrim ? 'v' : 'r', in.dst,
                   in.prim != nullptr ? in.prim->name.c_str() : "?") +
               boxed(in.a, in.k) +
               (in.op == jop::kCallRaw ? fmt(", r%d)", in.b) : fmt("/%d)", in.b));
        break;
      case jop::kCallFun:
      case jop::kCallFunR:
        out += fmt(" %c%d = fun#%d(slot %d/%d)", in.op == jop::kCallFun ? 'v' : 'r',
                   in.dst, in.a, in.c, in.b);
        break;
      case jop::kRaise:
        out += " " + boxed(in.a, in.k);
        break;
      case jop::kSend:
        out += fmt(" kind=%d tag=%d ", in.b, in.c) + boxed(in.a, in.k);
        break;
      case jop::kReturnV:
        out += " " + boxed(in.a, in.k);
        break;
      case jop::kReturnR:
        out += fmt(" r%d", in.a);
        break;
      default:
        if (in.op >= jop::kBrEqRR && in.op <= jop::kBrGeRI) {
          out += (in.op - jop::kBrEqRR) % 2 == 0
                     ? fmt(" r%d, r%d -> %d", in.a, in.b, in.dst)
                     : fmt(" r%d, #%lld -> %d", in.a, static_cast<long long>(in.imm), in.dst);
        } else if (in.op >= jop::kAddRR && in.op <= jop::kGeRI) {
          out += (in.op - jop::kAddRR) % 2 == 0
                     ? fmt(" r%d = r%d, r%d", in.dst, in.a, in.b)
                     : fmt(" r%d = r%d, #%lld", in.dst, in.a, static_cast<long long>(in.imm));
        } else if (in.op >= jop::kBoxInt && in.op <= jop::kBoxHost) {
          out += fmt(" v%d = r%d", in.dst, in.a);
        } else {
          out += fmt(" r%d = r%d", in.dst, in.a);  // MovR, Neg, Not
        }
        break;
    }
    out += '\n';
  }
  return out;
}

}  // namespace asp::planp
