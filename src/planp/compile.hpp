// AST -> bytecode compiler.
//
// The bytecode is a stack code annotated with the type checker's static
// types: it is the input of the run-time specializer (jit.hpp), which turns
// it into typed register-form templates, and the listing `planpc disasm`
// prints. It is not executed directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "planp/typecheck.hpp"
#include "planp/value.hpp"

namespace asp::planp {

enum class Op : std::uint8_t {
  kConst,        // push consts[a]
  kLoadLocal,    // push locals[a]
  kStoreLocal,   // locals[a] = pop
  kLoadGlobal,   // push globals[a]
  kJump,         // pc = a
  kJumpIfFalse,  // if !pop then pc = a
  kJumpIfTrue,   // if pop then pc = a
  kPop,          // discard top
  kMakeTuple,    // pop a values, push tuple
  kProj,         // push pop.tuple[a]  (a is 0-based)
  kCallPrim,     // push prim[a](pop b args)
  kCallFun,      // push fun[a](pop b args)
  kBinOp,        // a = BinCode
  kNot,
  kNeg,
  kRaise,        // throw PlanPException{consts[a].string}
  kTryPush,      // push handler at pc=a
  kTryPop,       // leave protected region
  kSend,         // a = SendKind, b = const idx of channel name; pops packet
  kReturn,       // return pop
};

enum class BinCode : std::int32_t {
  kAdd, kSub, kMul, kDiv, kMod, kEq, kNe, kLt, kLe, kGt, kGe, kConcat,
};

struct Instr {
  Op op;
  std::int32_t a = 0;
  std::int32_t b = 0;
  /// Static type of the value the instruction pushes (for kStoreLocal: of
  /// the slot it writes), from the type checker. kUnit when nothing is
  /// pushed; kBottom for a `raise` checked without an expected type.
  Type::Kind ty = Type::Kind::kUnit;
};

struct CodeBlock {
  std::vector<Instr> code;
  int frame_slots = 0;  // locals, including the parameters
  int max_stack = 0;    // conservative bound, set by the compiler
  /// Static types of the incoming slots 0..n-1: (ps, ss, packet) for a
  /// channel body, the declared parameters for a function, none for inits.
  std::vector<Type::Kind> params;
};

/// A fully compiled protocol.
struct CompiledProgram {
  const CheckedProgram* source = nullptr;
  std::vector<Value> consts;
  std::vector<CodeBlock> global_inits;    // one per top-level val
  std::vector<CodeBlock> functions;       // per user function
  std::vector<CodeBlock> channel_bodies;  // per channel
  std::vector<CodeBlock> channel_inits;   // empty code => default_value(ss)

  std::size_t total_instructions() const;
};

/// Compiles a checked program. Pure; no EnvApi needed.
CompiledProgram compile(const CheckedProgram& prog);

}  // namespace asp::planp
