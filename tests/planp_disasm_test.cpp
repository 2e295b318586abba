#include "planp/disasm.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "planp/parser.hpp"

namespace asp::planp {
namespace {

CompiledProgram compile_src(const std::string& src, CheckedProgram& checked) {
  checked = typecheck(parse(src));
  return compile(checked);
}

TEST(Disasm, BytecodeListingNamesOpsAndConstants) {
  CheckedProgram checked;
  CompiledProgram prog = compile_src(
      "channel c(ps : int, ss : unit, p : ip*blob) is (deliver(p); (ps + 42, ss))",
      checked);
  std::string listing = disassemble(prog);
  EXPECT_NE(listing.find("channel c"), std::string::npos);
  EXPECT_NE(listing.find("LoadLocal"), std::string::npos);
  EXPECT_NE(listing.find("; 42"), std::string::npos);
  EXPECT_NE(listing.find("Send"), std::string::npos);
  EXPECT_NE(listing.find("Return"), std::string::npos);
}

TEST(Disasm, FusionShowsUpInSpecializedListing) {
  CheckedProgram checked;
  CompiledProgram prog = compile_src(R"(
channel c(ps : int, ss : unit, p : ip*tcp*blob) is
  let val iph : ip = #1 p in
    (deliver(p); (if tcpDst(#2 p) = 80 then ps + 1 else ps, ss))
  end
)",
                                     checked);
  NullEnv env;
  JitEngine jit(prog, env);
  const JitBlock& jb = jit.channel_block(0);
  std::string listing = disassemble(jb);
  // `val iph = #1 p`: the projection writes local slot 3 directly, reading
  // the packet in slot 2 in place (no load, no store).
  EXPECT_NE(listing.find("ProjV        v3 = v2 #1"), std::string::npos) << listing;
  // `if tcpDst(#2 p) = 80`: typed compare against the patched immediate,
  // fused with the branch (taken when the test fails).
  EXPECT_NE(listing.find("BrNeRI"), std::string::npos) << listing;
  EXPECT_NE(listing.find("#80"), std::string::npos) << listing;
  // `ps + 1` on the raw register holding ps.
  EXPECT_NE(listing.find("AddRI        r"), std::string::npos) << listing;
  EXPECT_NE(listing.find("= r0, #1"), std::string::npos) << listing;
  // Loads of locals and constants fold into their users.
  EXPECT_LT(jb.code.size(), prog.channel_bodies[0].code.size());
  EXPECT_EQ(listing.find("MovV"), std::string::npos) << listing;
}

TEST(Disasm, JumpTargetsStayInRangeAfterFusion) {
  CheckedProgram checked;
  CompiledProgram prog = compile_src(R"(
fun clas(x : int) : int =
  if x > 100 then 3 else if x > 10 then 2 else if x > 1 then 1 else 0
channel c(ps : int, ss : unit, p : ip*blob) is
  (deliver(p); (clas(ps) + clas(blobLen(#2 p)), ss))
)",
                                     checked);
  NullEnv env;
  JitEngine jit(prog, env);
  int jumps = 0;
  for (const JitBlock* jb : {&jit.function_block(0), &jit.channel_block(0)}) {
    for (const SInstr& in : jb->code) {
      if (in.op == jop::kJump || in.op == jop::kJumpIfFalse ||
          in.op == jop::kJumpIfTrue || in.op == jop::kTryPush ||
          (in.op >= jop::kBrEqRR && in.op <= jop::kBrGeRI)) {
        ++jumps;
        EXPECT_GE(in.dst, 0);
        EXPECT_LE(in.dst, static_cast<std::int32_t>(jb->code.size()));
      }
    }
  }
  EXPECT_GT(jumps, 0);
}

TEST(Disasm, PureCallsOnConstantsFold) {
  CheckedProgram checked;
  CompiledProgram prog = compile_src(R"(
val empty : blob = blobFromString("")
channel c(ps : int, ss : unit, p : ip*blob) is
  (deliver(p);
   (ps + blobLen(blobFromString("abc")) + min(2, 7) + blobLen(empty), ss))
)",
                                     checked);
  NullEnv env;
  JitEngine jit(prog, env);
  std::string listing = disassemble(jit.channel_block(0));
  // Every call has constant arguments (the global's value included), so
  // none survives specialization: ps + 3 + 2 + 0.
  EXPECT_EQ(listing.find("Call"), std::string::npos) << listing;
  Value out = jit.run_channel(0, Value::of_int(10), Value::unit(),
                              Value::of_tuple({Value::of_ip({}), Value::of_blob({1})}));
  EXPECT_EQ(out.tuple_at(0).as_int(), 15);
}

TEST(Disasm, EveryOpcodeHasAName) {
  for (int op = 0; op < static_cast<int>(jop::kCount); ++op) {
    EXPECT_STRNE(jop_name(op), "?") << "jop " << op;
  }
}

}  // namespace
}  // namespace asp::planp
