// Run-time specializer: the JIT analog of the paper's Tempo pipeline.
//
// The paper generates a JIT automatically from the interpreter by partial
// evaluation: at download time, pre-compiled machine-code *templates* are
// assembled and patched with the program's constants. We reproduce the same
// architecture one level up. At download time each bytecode block is
// specialized into direct-threaded, register-form code:
//   * the operand stack disappears: every stack position and local is a
//     frame slot known at specialization time, and loads of locals,
//     constants and globals become operands of the instruction that uses
//     them (no copies onto a stack);
//   * the type checker's static types pick the storage of each slot: int,
//     bool, char and host values live unboxed in a raw 64-bit register file
//     (R), everything else — strings, blobs, headers, tuples, tables,
//     channels — stays a boxed Value (V);
//   * templates are typed: `+` on two registers is one add, `x = 80` one
//     compare, a compare feeding a branch one compare-and-branch;
//   * constants and the values of top-level `val`s are patched in (scalars
//     as immediates), primitive entry points are resolved to function
//     pointers, and primitive arguments are passed where they already are.
// Code generation is therefore a cheap linear pass — the property Figure 3
// of the paper measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "planp/compile.hpp"
#include "planp/interp.hpp"

namespace asp::planp {

/// Raw-register encoding of the scalar types: int as itself, bool as 0/1,
/// char as its (signed) value, host as its 32 address bits.
inline bool is_raw_kind(Type::Kind k) {
  return k == Type::Kind::kInt || k == Type::Kind::kBool || k == Type::Kind::kChar ||
         k == Type::Kind::kHost;
}

/// Specialized templates. Operand conventions:
///   R[i] / V[i]  raw / boxed slot i of the current frame;
///   A            the boxed operand `*k`, or V[a] when k is null (B: k2, b);
///   imm          a patched scalar immediate;
///   dst          the result slot, or the target of a control template.
// X-macro so the enum, the handler table and the mnemonics stay in step.
#define ASP_JIT_OPS(X)                                                        \
  X(MovR)        /* R[dst] = R[a]                                    */      \
  X(ImmR)        /* R[dst] = imm                                     */      \
  X(MovV)        /* V[dst] = A                                       */      \
  X(BoxInt)      /* V[dst] = int R[a]   (and the three below)        */      \
  X(BoxBool)                                                                 \
  X(BoxChar)                                                                 \
  X(BoxHost)                                                                 \
  X(Jump)        /* goto dst                                         */      \
  X(JumpIfFalse) /* if !R[a] goto dst                                */      \
  X(JumpIfTrue)  /* if R[a] goto dst                                 */      \
  X(AddRR) X(AddRI) X(SubRR) X(SubRI) X(MulRR) X(MulRI) /* R[dst]=R[a] op R[b]|imm */ \
  X(DivRR) X(DivRI) X(ModRR) X(ModRI)                                        \
  X(EqRR) X(EqRI) X(NeRR) X(NeRI) X(LtRR) X(LtRI)                            \
  X(LeRR) X(LeRI) X(GtRR) X(GtRI) X(GeRR) X(GeRI)                            \
  X(BrEqRR) X(BrEqRI) X(BrNeRR) X(BrNeRI) X(BrLtRR) X(BrLtRI) /* if R[a] op R[b]|imm goto dst */ \
  X(BrLeRR) X(BrLeRI) X(BrGtRR) X(BrGtRI) X(BrGeRR) X(BrGeRI)                \
  X(Neg)         /* R[dst] = -R[a]                                   */      \
  X(Not)         /* R[dst] = !R[a]                                   */      \
  X(EqV)         /* R[dst] = A equals B                              */      \
  X(NeV)                                                                     \
  X(CmpV)        /* R[dst] = A <,<=,>,>= B on strings (imm = BinCode) */     \
  X(Concat)      /* V[dst] = A ^ B                                   */      \
  X(Pair)        /* V[dst] = (A, B); c names raw elements            */      \
  X(Tuple)       /* V[dst] = tuple of V[a..a+b)                      */      \
  X(ProjV)       /* V[dst] = #b A                                    */      \
  X(ProjR)       /* R[dst] = #b A                                    */      \
  X(CallPrim)    /* V[dst] = prim->fn(A.. b args)                    */      \
  X(CallPrimR)   /* R[dst] = prim->fn(A.. b args)                    */      \
  X(CallRaw)     /* R[dst] = prim->raw(&A, &R[b])                    */      \
  X(CallFun)     /* V[dst] = fun a (b args from slot c; imm = raw mask) */   \
  X(CallFunR)    /* R[dst] = fun a (...)                             */      \
  X(Raise)       /* throw *k                                         */      \
  X(TryPush)     /* open a handler at dst                            */      \
  X(TryPop)                                                                  \
  X(Send)        /* send A with SendKind b on channel tag c          */      \
  X(ReturnV)     /* return A                                         */      \
  X(ReturnR)     /* return R[a] boxed as Type::Kind imm              */      \
  X(ReturnPair)  /* return (A, B), operands as for Pair              */

namespace jop {
#define ASP_JIT_ENUM(name) k##name,
enum : std::int32_t { ASP_JIT_OPS(ASP_JIT_ENUM) kCount };
#undef ASP_JIT_ENUM
}  // namespace jop

/// Specialized instruction: a patched template.
struct SInstr {
  std::int32_t op = 0;  // jop
  std::int32_t dst = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int64_t imm = 0;
  const Value* k = nullptr;   // patched boxed operand A (null: frame slot a)
  const Value* k2 = nullptr;  // patched boxed operand B (null: frame slot b)
  const Primitive* prim = nullptr;  // patched primitive entry point
  // Pre-resolved dispatch target: the address of this op's handler label
  // inside run_block (direct threading, GCC/Clang labels-as-values). Patched
  // by the JitEngine at specialization time; null until then, and unused when
  // the portable switch fallback is compiled (ASP_NO_COMPUTED_GOTO).
  const void* handler = nullptr;
};

struct JitBlock {
  std::vector<SInstr> code;
  int slots = 0;  // frame size: locals, then one slot per stack position
  std::vector<Type::Kind> params;  // incoming slots (CodeBlock::params)
  /// Results of pure primitive calls on constants, evaluated at
  /// specialization time; templates point at them like at constants.
  std::vector<std::unique_ptr<const Value>> folded;
};

/// Statistics from one specialization run (Figure 3 reporting).
struct CodegenStats {
  double generation_ms = 0;      // wall time of the specialization passes
  std::size_t input_instrs = 0;  // bytecode instructions consumed
  std::size_t output_instrs = 0; // templates emitted
  std::size_t code_bytes = 0;    // output_instrs * sizeof(SInstr)
  int source_lines = 0;
};

/// The JIT execution engine: specializes the whole program at construction
/// (this is "code generation time") and runs channels on specialized code.
class JitEngine : public Engine {
 public:
  JitEngine(const CompiledProgram& prog, EnvApi& env);
  ~JitEngine() override;  // out of line: PreparedChannel is incomplete here

  Value init_state(int chan_idx) override;
  Value run_channel(int chan_idx, const Value& ps, const Value& ss,
                    const Value& packet) override;
  /// Prepared handle with the body block pre-resolved and the packet-use
  /// flag computed (a body that never reads its packet local lets the
  /// dispatcher skip payload decoding — match-only classification).
  Channel* channel(int chan_idx) override;
  const CheckedProgram& program() const override { return *prog_.source; }
  const char* engine_name() const override { return "jit"; }

  const CodegenStats& codegen_stats() const { return stats_; }
  /// The specialized body of channel `chan_idx` (listings).
  const JitBlock& channel_block(int chan_idx) const {
    return channel_bodies_.at(static_cast<std::size_t>(chan_idx));
  }
  /// The specialized body of function `fun_idx` (listings).
  const JitBlock& function_block(int fun_idx) const {
    return functions_.at(static_cast<std::size_t>(fun_idx));
  }

 private:
  /// One call depth's registers: warm vectors reused packet after packet,
  /// so steady-state calls allocate nothing — part of what run-time
  /// specialization buys the paper. The open `try` handlers live here too.
  struct Frame {
    std::vector<Value> v;             // boxed slots
    std::vector<std::int64_t> r;      // raw scalar slots
    std::vector<std::int32_t> tries;  // handler pcs, innermost last
    void fit(int slots);
  };

  /// Executes one specialized block in `fr`. With `table_out` non-null the
  /// call is a pure query: it writes the handler label table (indexed by
  /// jop, or null when built with the switch fallback) and returns
  /// immediately — this is how the constructor obtains the addresses it
  /// patches into SInstr.
  Value run_block(const JitBlock& block, Frame& fr,
                  const void* const** table_out = nullptr);
  Frame& frame_at(int depth);
  JitBlock specialize(const CodeBlock& b);
  /// run_channel with the body block already resolved (prepared channels).
  Value run_channel_body(const JitBlock& b, const Value& ps, const Value& ss,
                         const Value& packet);

  class PreparedChannel;

  const CompiledProgram& prog_;
  EnvApi& env_;
  std::vector<Value> globals_;  // reserved up front: templates point into it
  std::vector<JitBlock> functions_;
  std::vector<JitBlock> channel_bodies_;
  std::vector<JitBlock> channel_inits_;
  std::vector<std::unique_ptr<PreparedChannel>> prepared_;
  std::vector<std::unique_ptr<Frame>> frames_;  // indexed by call depth
  int depth_ = 0;
  const void* const* handlers_ = nullptr;  // label table, null for the switch
  CodegenStats stats_;
};

}  // namespace asp::planp
