/**
 * @file
 * VIR tests: builder, verifier, printer/parser roundtrip.
 */

#include <gtest/gtest.h>

#include "vir/builder.hh"
#include "vir/text.hh"
#include "vir/verifier.hh"

using namespace vg::vir;

namespace
{

/** Build: func @addmul(a, b) { return (a + b) * 2; } */
Module
buildAddMul()
{
    Module mod;
    mod.name = "addmul";
    IrBuilder b(mod);
    b.beginFunction("addmul", 2);
    int entry = b.makeBlock("entry");
    b.setInsertPoint(entry);
    int sum = b.add(0, 1);
    int two = b.constI(2);
    int prod = b.mul(sum, two);
    b.ret(prod);
    return mod;
}

} // namespace

TEST(Builder, ProducesValidModule)
{
    Module mod = buildAddMul();
    EXPECT_TRUE(verify(mod).ok());
    ASSERT_EQ(mod.functions.size(), 1u);
    const Function *fn = &mod.functions[0];
    EXPECT_EQ(fn->name, "addmul");
    EXPECT_EQ(fn->numParams, 2);
    EXPECT_EQ(fn->blocks.size(), 1u);
    EXPECT_EQ(fn->instCount(), 4u);
}

TEST(Builder, MultiBlockControlFlow)
{
    Module mod;
    IrBuilder b(mod);
    b.beginFunction("max", 2);
    int entry = b.makeBlock("entry");
    int take_a = b.makeBlock("take_a");
    int take_b = b.makeBlock("take_b");
    b.setInsertPoint(entry);
    int c = b.icmp(CmpPred::Ugt, 0, 1);
    b.condBr(c, take_a, take_b);
    b.setInsertPoint(take_a);
    b.ret(0);
    b.setInsertPoint(take_b);
    b.ret(1);
    EXPECT_TRUE(verify(mod).ok()) << verify(mod).message();
}

TEST(Verifier, CatchesMissingTerminator)
{
    Module mod;
    IrBuilder b(mod);
    b.beginFunction("bad", 0);
    int entry = b.makeBlock("entry");
    b.setInsertPoint(entry);
    b.constI(1); // no terminator
    auto r = verify(mod);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.message().find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesOutOfRangeRegister)
{
    Module mod;
    Function fn;
    fn.name = "bad";
    fn.numRegs = 1;
    Inst i;
    i.op = Opcode::Mov;
    i.dst = 0;
    i.a = 5; // out of range
    Inst r;
    r.op = Opcode::Ret;
    fn.blocks.push_back({"entry", {i, r}});
    mod.functions.push_back(fn);
    EXPECT_FALSE(verify(mod).ok());
}

TEST(Verifier, CatchesBadBranchTarget)
{
    Module mod;
    Function fn;
    fn.name = "bad";
    Inst br;
    br.op = Opcode::Br;
    br.target0 = 7;
    fn.blocks.push_back({"entry", {br}});
    mod.functions.push_back(fn);
    EXPECT_FALSE(verify(mod).ok());
}

TEST(Verifier, CatchesDuplicateFunction)
{
    Module mod = buildAddMul();
    mod.functions.push_back(mod.functions[0]);
    auto r = verify(mod);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.message().find("duplicate"), std::string::npos);
}

TEST(Verifier, CatchesEmptyBlockAndHugeAlloca)
{
    Module mod;
    Function fn;
    fn.name = "f";
    fn.blocks.push_back({"empty", {}});
    mod.functions.push_back(fn);
    EXPECT_FALSE(verify(mod).ok());

    Module mod2;
    IrBuilder b(mod2);
    b.beginFunction("g", 0);
    int entry = b.makeBlock("entry");
    b.setInsertPoint(entry);
    b.allocaOp(2 << 20); // over the limit
    b.retVoid();
    EXPECT_FALSE(verify(mod2).ok());
}

// --------------------------------------------------------------------
// Diagnostic content: the exact errors the verifier reports, and their
// ordering. The translator surfaces these verbatim to module authors.
// --------------------------------------------------------------------

TEST(VerifierDiagnostics, BadRegisterNamesRoleAndRange)
{
    Module mod;
    Function fn;
    fn.name = "bad";
    fn.numRegs = 1;
    Inst i;
    i.op = Opcode::Mov;
    i.dst = 0;
    i.a = 5;
    Inst r;
    r.op = Opcode::Ret;
    fn.blocks.push_back({"entry", {i, r}});
    mod.functions.push_back(fn);
    auto v = verify(mod);
    ASSERT_EQ(v.errors.size(), 1u);
    EXPECT_EQ(v.errors[0],
              "bad/entry[0] mov: src register %5 out of range (1 regs)");
}

TEST(VerifierDiagnostics, BadBlockTargetNamesIndex)
{
    Module mod;
    Function fn;
    fn.name = "bad";
    Inst br;
    br.op = Opcode::Br;
    br.target0 = 7;
    fn.blocks.push_back({"entry", {br}});
    mod.functions.push_back(fn);
    auto v = verify(mod);
    ASSERT_EQ(v.errors.size(), 1u);
    EXPECT_EQ(v.errors[0], "bad/entry[0] br: bad branch block index 7");
}

TEST(VerifierDiagnostics, FallthroughOffEndOfBlock)
{
    Module mod;
    IrBuilder b(mod);
    b.beginFunction("f", 0);
    int entry = b.makeBlock("entry");
    b.setInsertPoint(entry);
    b.constI(1); // block just stops
    auto v = verify(mod);
    ASSERT_EQ(v.errors.size(), 1u);
    EXPECT_EQ(v.errors[0],
              "f/entry[0] const: block does not end in a terminator");
}

TEST(VerifierDominance, UseBeforeAnyDefinition)
{
    ParseResult p = parse(R"(
func @f(1) {
entry:
  %2 = add %0, %1
  ret %2
}
)");
    ASSERT_TRUE(p.ok) << p.error;
    auto v = verify(p.module);
    ASSERT_EQ(v.errors.size(), 1u);
    EXPECT_EQ(v.errors[0], "f/entry[0] add: register %1 used before any "
                           "dominating definition");
}

TEST(VerifierDominance, OneSidedDefinitionDoesNotDominateJoin)
{
    // %2 is defined on the then-path only; the join must reject it.
    ParseResult p = parse(R"(
func @f(1) {
entry:
  condbr %0, then, els
then:
  %1 = const 1
  %2 = add %1, %1
  br done
els:
  %1 = const 2
  br done
done:
  ret %2
}
)");
    ASSERT_TRUE(p.ok) << p.error;
    auto v = verify(p.module);
    ASSERT_EQ(v.errors.size(), 1u);
    EXPECT_NE(v.errors[0].find("register %2 used before any dominating"),
              std::string::npos)
        << v.errors[0];

    // ... but a register defined on *both* paths (here %1) is fine.
    ParseResult p2 = parse(R"(
func @f(1) {
entry:
  condbr %0, then, els
then:
  %1 = const 1
  br done
els:
  %1 = const 2
  br done
done:
  ret %1
}
)");
    ASSERT_TRUE(p2.ok) << p2.error;
    EXPECT_TRUE(verify(p2.module).ok()) << verify(p2.module).message();
}

TEST(VerifierDominance, LoopCarriedDefinitionIsAccepted)
{
    // %1 and %2 are defined in entry and updated around the loop; back
    // edges must not flag them (meet over paths, not program order).
    ParseResult p = parse(R"(
func @sum(1) {
entry:
  %1 = const 0
  %2 = const 0
  br head
head:
  %3 = icmp ult %2, %0
  condbr %3, body, done
body:
  %4 = const 1
  %2 = add %2, %4
  %1 = add %1, %2
  br head
done:
  ret %1
}
)");
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_TRUE(verify(p.module).ok()) << verify(p.module).message();
}

TEST(VerifierDominance, OrderingIsStableAndStructuralErrorsFirst)
{
    // Two functions, each with one dominance error, plus a structural
    // error in the first: errors arrive function by function, with
    // structural errors before dominance errors within a function, and
    // the whole report is reproducible run to run.
    ParseResult p = parse(R"(
func @a(0) {
entry:
  %0 = mov %1
  ret %0
}

func @b(0) {
entry:
  %0 = mov %1
  ret %0
}
)");
    ASSERT_TRUE(p.ok) << p.error;
    // Give @a an out-of-range register too: dominance is then skipped
    // for @a (its bitsets could not be sized) but still runs for @b.
    p.module.functions[0].blocks[0].insts[0].a = 9;
    auto v1 = verify(p.module);
    auto v2 = verify(p.module);
    EXPECT_EQ(v1.message(), v2.message());
    ASSERT_EQ(v1.errors.size(), 2u);
    EXPECT_NE(v1.errors[0].find("a/entry[0] mov: src register %9"),
              std::string::npos)
        << v1.errors[0];
    EXPECT_EQ(v1.errors[1], "b/entry[0] mov: register %1 used before "
                            "any dominating definition");
}

TEST(Text, PrintParseRoundtrip)
{
    Module mod = buildAddMul();
    std::string text = print(mod);
    ParseResult parsed = parse(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.module.name, "addmul");
    EXPECT_EQ(print(parsed.module), text);
}

TEST(Text, ParsesAllInstructionForms)
{
    const char *src = R"(
module "everything"

func @f(2) {
entry:
  %2 = const 0xff00
  %3 = mov %0
  %4 = add %2, %3
  %5 = sub %4, %2
  %6 = mul %5, %5
  %7 = udiv %6, %4
  %8 = urem %6, %4
  %9 = and %7, %8
  %10 = or %9, %2
  %11 = xor %10, %3
  %12 = shl %11, %2
  %13 = lshr %12, %2
  %14 = ashr %13, %2
  %15 = icmp ult %13, %14
  %16 = alloca 64
  store.i64 %16, %14
  %17 = load.i32 %16
  memcpy %16, %16, %2
  %18 = funcaddr @g
  %19 = callind %18(%17)
  %20 = call @g(%19, %1)
  condbr %15, then, done
then:
  br done
done:
  ret %20
}

func @g(2) {
entry:
  ret %0
}
)";
    ParseResult parsed = parse(src);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    auto v = verify(parsed.module);
    EXPECT_TRUE(v.ok()) << v.message();
    ASSERT_EQ(parsed.module.functions.size(), 2u);
    const Function *f = &parsed.module.functions[0];
    EXPECT_EQ(f->name, "f");
    EXPECT_EQ(f->blocks.size(), 3u);
    EXPECT_EQ(f->numRegs, 21);

    // Idempotent print->parse->print.
    std::string once = print(parsed.module);
    ParseResult again = parse(once);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(print(again.module), once);
}

TEST(Text, RejectsGarbage)
{
    EXPECT_FALSE(parse("func @f(0) {\nentry:\n  frobnicate %1\n}\n").ok);
    EXPECT_FALSE(parse("ret").ok);
    EXPECT_FALSE(parse("func @f(0) {\nentry:\n  ret\n").ok); // no '}'
    EXPECT_FALSE(parse("func @f(0) {\n  ret\n}\n").ok); // inst w/o block
}

TEST(Text, CommentsAndWhitespaceIgnored)
{
    const char *src = "module \"m\"\n"
                      "; a full-line comment\n"
                      "func @f(0) {\n"
                      "entry:\n"
                      "   %0 = const 7 ; trailing comment\n"
                      "   ret %0\n"
                      "}\n";
    ParseResult parsed = parse(src);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.module.functions[0].instCount(), 2u);
}
