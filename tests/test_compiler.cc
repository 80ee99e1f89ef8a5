/**
 * @file
 * Compiler pipeline tests: codegen + executor correctness, sandbox
 * pass semantics, CFI enforcement, translation cache and signatures,
 * the executor's golden corpus and its fuel budget.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "compiler/exec.hh"
#include "compiler/translator.hh"
#include "hw/layout.hh"
#include "sim/context.hh"
#include "vir/builder.hh"
#include "vir/text.hh"

#include "golden.hh"

using namespace vg;
using namespace vg::cc;

namespace
{

/** Sparse flat memory that never faults (reads of untouched bytes
 *  return 0) — stands in for the kernel's view of memory. */
class FlatPort : public MemPort
{
  public:
    bool
    read(uint64_t va, unsigned bytes, uint64_t &out) override
    {
        out = 0;
        for (unsigned i = 0; i < bytes; i++)
            out |= uint64_t(byteAt(va + i)) << (8 * i);
        return true;
    }

    bool
    write(uint64_t va, unsigned bytes, uint64_t val) override
    {
        for (unsigned i = 0; i < bytes; i++)
            _mem[va + i] = uint8_t(val >> (8 * i));
        return true;
    }

    bool
    copy(uint64_t dst, uint64_t src, uint64_t len) override
    {
        for (uint64_t i = 0; i < len; i++)
            _mem[dst + i] = byteAt(src + i);
        return true;
    }

    uint8_t
    byteAt(uint64_t va) const
    {
        auto it = _mem.find(va);
        return it == _mem.end() ? 0 : it->second;
    }

  private:
    std::map<uint64_t, uint8_t> _mem;
};

constexpr uint64_t kCodeBase = 0xffffff9000000000ull;
constexpr uint64_t kStackBase = 0xffffffa000000000ull;
constexpr uint64_t kStackSize = 1 << 20;

const std::vector<uint8_t> kKey(32, 0x11);

struct Rig
{
    sim::SimContext ctx;
    Translator translator;
    FlatPort port;
    ExternTable externs;

    explicit Rig(sim::VgConfig cfg = sim::VgConfig::full())
        : ctx(cfg), translator(kKey, ctx)
    {}

    ExecResult
    run(const std::string &text, const std::string &fn,
        const std::vector<uint64_t> &args)
    {
        auto tr = translator.translateText(text, kCodeBase);
        EXPECT_TRUE(tr.ok) << tr.error;
        if (!tr.ok)
            return {};
        Executor exec(*tr.image, port, externs, ctx, kStackBase,
                      kStackSize);
        return exec.call(fn, args);
    }
};

} // namespace

TEST(Codegen, ArithmeticEndToEnd)
{
    Rig rig;
    const char *src = R"(
func @addmul(2) {
entry:
  %2 = add %0, %1
  %3 = const 3
  %4 = mul %2, %3
  ret %4
}
)";
    auto r = rig.run(src, "addmul", {10, 4});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 42u);
}

TEST(Codegen, ControlFlowLoop)
{
    // sum 1..n
    Rig rig;
    const char *src = R"(
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
)";
    auto r = rig.run(src, "sum", {10});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 55u);
}

TEST(Codegen, CallsAndRecursion)
{
    Rig rig;
    const char *src = R"(
func @fib(1) {
entry:
  %1 = const 2
  %2 = icmp ult %0, %1
  condbr %2, base, rec
base:
  ret %0
rec:
  %3 = const 1
  %4 = sub %0, %3
  %5 = call @fib(%4)
  %6 = const 2
  %7 = sub %0, %6
  %8 = call @fib(%7)
  %9 = add %5, %8
  ret %9
}
)";
    auto r = rig.run(src, "fib", {10});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 55u);
}

TEST(Codegen, MemoryAndAlloca)
{
    Rig rig(sim::VgConfig::native());
    const char *src = R"(
func @store_load(1) {
entry:
  %1 = alloca 16
  store.i64 %1, %0
  %2 = load.i64 %1
  %3 = const 8
  %4 = add %1, %3
  store.i32 %4, %2
  %5 = load.i32 %4
  ret %5
}
)";
    auto r = rig.run(src, "store_load", {0x1122334455667788ull});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 0x55667788u);
}

TEST(Codegen, MemcpyMovesBytes)
{
    Rig rig(sim::VgConfig::native());
    const char *src = R"(
func @cpy(0) {
entry:
  %0 = alloca 32
  %1 = const 0xdeadbeefcafebabe
  store.i64 %0, %1
  %2 = const 16
  %3 = add %0, %2
  %4 = const 8
  memcpy %3, %0, %4
  %5 = load.i64 %3
  ret %5
}
)";
    auto r = rig.run(src, "cpy", {});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 0xdeadbeefcafebabeull);
}

TEST(Codegen, ExternCalls)
{
    Rig rig;
    uint64_t captured = 0;
    rig.externs.fns["klog"] = [&](const std::vector<uint64_t> &args) {
        captured = args.at(0);
        return uint64_t(7);
    };
    const char *src = R"(
func @f(0) {
entry:
  %0 = const 123
  %1 = call @klog(%0)
  ret %1
}
)";
    auto r = rig.run(src, "f", {});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 7u);
    EXPECT_EQ(captured, 123u);
}

TEST(Codegen, UnknownExternFaults)
{
    Rig rig;
    const char *src = R"(
func @f(0) {
entry:
  %0 = const 1
  %1 = call @nosuch(%0)
  ret %1
}
)";
    auto r = rig.run(src, "f", {});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, ExecFault::UnknownExtern);
}

TEST(Codegen, DivideByZeroTerminates)
{
    Rig rig;
    const char *src = R"(
func @f(1) {
entry:
  %1 = const 0
  %2 = udiv %0, %1
  ret %2
}
)";
    auto r = rig.run(src, "f", {5});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, ExecFault::DivideByZero);
}

TEST(Codegen, InfiniteLoopExhaustsFuel)
{
    Rig rig;
    const char *src = R"(
func @f(0) {
entry:
  br entry
}
)";
    auto tr = rig.translator.translateText(src, kCodeBase);
    ASSERT_TRUE(tr.ok);
    Executor exec(*tr.image, rig.port, rig.externs, rig.ctx, kStackBase,
                  kStackSize);
    exec.setFuel(1000);
    auto r = exec.call("f", {});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, ExecFault::FuelExhausted);
}

// --------------------------------------------------------------------
// Sandbox pass
// --------------------------------------------------------------------

// A store through a ghost pointer must be deflected: the ghost location
// stays untouched and the masked alias is written instead.
TEST(SandboxPass, DeflectsGhostStores)
{
    Rig rig; // full config: sandboxing on
    std::string src = R"(
func @poke(2) {
entry:
  store.i64 %0, %1
  ret %1
}
)";
    uint64_t ghost_va = hw::ghostBase + 0x5000;
    auto r = rig.run(src, "poke", {ghost_va, 0x4242});
    ASSERT_TRUE(r.ok) << r.detail;

    // Nothing at the ghost address; value landed at the masked alias.
    uint64_t at_ghost = 0;
    rig.port.read(ghost_va, 8, at_ghost);
    EXPECT_EQ(at_ghost, 0u);
    uint64_t at_alias = 0;
    rig.port.read(ghost_va | hw::sandboxOrMask, 8, at_alias);
    EXPECT_EQ(at_alias, 0x4242u);
}

TEST(SandboxPass, GhostLoadsReadAliasNotSecret)
{
    Rig rig;
    // Plant a "secret" at the ghost address directly (as the app would
    // see it) — instrumented kernel code must not be able to read it.
    uint64_t ghost_va = hw::ghostBase + 0x9000;
    rig.port.write(ghost_va, 8, 0x5ec2e7);

    std::string src = R"(
func @peek(1) {
entry:
  %1 = load.i64 %0
  ret %1
}
)";
    auto r = rig.run(src, "peek", {ghost_va});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_NE(r.value, 0x5ec2e7u);
    EXPECT_EQ(r.value, 0u); // alias location is untouched
}

TEST(SandboxPass, SvaInternalAccessGoesToZero)
{
    Rig rig;
    rig.port.write(hw::svaBase + 0x100, 8, 0x777);
    std::string src = R"(
func @peek(1) {
entry:
  %1 = load.i64 %0
  ret %1
}
)";
    auto r = rig.run(src, "peek", {hw::svaBase + 0x100});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 0u); // rewritten to address 0
}

TEST(SandboxPass, OrdinaryKernelAccessUnaffected)
{
    Rig rig;
    uint64_t kva = hw::kernelBase + 0x1000;
    std::string src = R"(
func @rw(2) {
entry:
  store.i64 %0, %1
  %2 = load.i64 %0
  ret %2
}
)";
    auto r = rig.run(src, "rw", {kva, 99});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 99u);
}

TEST(SandboxPass, NativeConfigDoesNotInstrument)
{
    Rig rig(sim::VgConfig::native());
    uint64_t ghost_va = hw::ghostBase + 0x5000;
    rig.port.write(ghost_va, 8, 0x5ec2e7);
    std::string src = R"(
func @peek(1) {
entry:
  %1 = load.i64 %0
  ret %1
}
)";
    auto r = rig.run(src, "peek", {ghost_va});
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, 0x5ec2e7u); // the attack works natively
}

TEST(SandboxPass, ReportsInstrumentationStats)
{
    sim::SimContext ctx;
    auto parsed = vir::parse(R"(
func @f(2) {
entry:
  %2 = load.i64 %0
  store.i64 %1, %2
  %3 = const 8
  memcpy %0, %1, %3
  ret %2
}
)");
    ASSERT_TRUE(parsed.ok);
    PassStats stats = sandboxPass(parsed.module);
    // load + store + two memcpy operands.
    EXPECT_EQ(stats.sitesInstrumented, 4u);
    EXPECT_GT(stats.instsAdded, 40u);
}

// --------------------------------------------------------------------
// CFI
// --------------------------------------------------------------------

TEST(Cfi, IndirectCallToFunctionEntryWorks)
{
    Rig rig;
    const char *src = R"(
func @target(1) {
entry:
  %1 = const 5
  %2 = add %0, %1
  ret %2
}

func @f(0) {
entry:
  %0 = funcaddr @target
  %1 = const 37
  %2 = callind %0(%1)
  ret %2
}
)";
    auto r = rig.run(src, "f", {});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 42u);
}

TEST(Cfi, IndirectCallIntoFunctionBodyFaults)
{
    Rig rig;
    const char *src = R"(
func @target(1) {
entry:
  %1 = const 5
  %2 = add %0, %1
  ret %2
}

func @f(0) {
entry:
  %0 = funcaddr @target
  %1 = const 8
  %2 = add %0, %1     ; skip past the entry label
  %3 = callind %2(%1)
  ret %3
}
)";
    auto r = rig.run(src, "f", {});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, ExecFault::CfiViolation);
}

TEST(Cfi, NativeConfigAllowsMidFunctionIndirectCall)
{
    // Without CFI the same target does not trip a label check (it
    // still has to be a function entry to make sense to the decoder —
    // so call the entry directly through a register).
    Rig rig(sim::VgConfig::native());
    const char *src = R"(
func @target(1) {
entry:
  ret %0
}

func @f(0) {
entry:
  %0 = funcaddr @target
  %1 = const 11
  %2 = callind %0(%1)
  ret %2
}
)";
    auto r = rig.run(src, "f", {});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 11u);
}

TEST(Cfi, ChecksAddLatency)
{
    auto time_run = [](sim::VgConfig cfg) {
        Rig rig(cfg);
        const char *src = R"(
func @callee(1) {
entry:
  ret %0
}

func @f(1) {
entry:
  %1 = const 0
  %2 = const 0
  br head
head:
  %3 = icmp ult %2, %0
  condbr %3, body, done
body:
  %4 = call @callee(%2)
  %1 = add %1, %4
  %5 = const 1
  %2 = add %2, %5
  br head
done:
  ret %1
}
)";
        sim::Cycles before = rig.ctx.clock().now();
        auto r = rig.run(src, "f", {200});
        EXPECT_TRUE(r.ok);
        return rig.ctx.clock().now() - before;
    };

    sim::VgConfig cfi_only = sim::VgConfig::native();
    cfi_only.cfi = true;
    EXPECT_GT(time_run(cfi_only), time_run(sim::VgConfig::native()));
}

// --------------------------------------------------------------------
// Translator: cache + signatures
// --------------------------------------------------------------------

TEST(Translator, CachesBySource)
{
    Rig rig;
    const char *src = "func @f(0) {\nentry:\n  %0 = const 1\n  ret %0\n}\n";
    auto t1 = rig.translator.translateText(src, kCodeBase);
    auto t2 = rig.translator.translateText(src, kCodeBase);
    ASSERT_TRUE(t1.ok && t2.ok);
    EXPECT_FALSE(t1.fromCache);
    EXPECT_TRUE(t2.fromCache);
    EXPECT_EQ(t1.image.get(), t2.image.get());
    EXPECT_EQ(rig.translator.cacheHits(), 1u);
}

TEST(Translator, SignatureVerifies)
{
    Rig rig;
    const char *src = "func @f(0) {\nentry:\n  %0 = const 1\n  ret %0\n}\n";
    auto t = rig.translator.translateText(src, kCodeBase);
    ASSERT_TRUE(t.ok);
    EXPECT_TRUE(rig.translator.verifySignature(*t.image));

    // Tampering with the cached translation must be detected.
    MachineImage tampered = *t.image;
    tampered.code[1].imm ^= 1;
    EXPECT_FALSE(rig.translator.verifySignature(tampered));
}

TEST(Translator, DifferentKeyCannotForge)
{
    sim::SimContext ctx;
    Translator a(kKey, ctx);
    Translator b(std::vector<uint8_t>(32, 0x22), ctx);
    const char *src = "func @f(0) {\nentry:\n  %0 = const 1\n  ret %0\n}\n";
    auto t = a.translateText(src, kCodeBase);
    ASSERT_TRUE(t.ok);
    EXPECT_FALSE(b.verifySignature(*t.image));
}

TEST(Translator, RejectsMalformedModules)
{
    Rig rig;
    auto t1 = rig.translator.translateText("func @f(0) {\nentry:\n  %0 = "
                                           "const 1\n}\n",
                                           kCodeBase);
    EXPECT_FALSE(t1.ok); // no terminator
    auto t2 = rig.translator.translateText("not vir at all", kCodeBase);
    EXPECT_FALSE(t2.ok);
}

TEST(Translator, InstrumentationGrowsCode)
{
    const char *src = R"(
func @f(2) {
entry:
  %2 = load.i64 %0
  store.i64 %1, %2
  ret %2
}
)";
    sim::SimContext vg_ctx(sim::VgConfig::full());
    sim::SimContext nat_ctx(sim::VgConfig::native());
    Translator vg_tr(kKey, vg_ctx);
    Translator nat_tr(kKey, nat_ctx);
    auto tv = vg_tr.translateText(src, kCodeBase);
    auto tn = nat_tr.translateText(src, kCodeBase);
    ASSERT_TRUE(tv.ok && tn.ok);
    EXPECT_GT(tv.image->code.size(), tn.image->code.size());
    EXPECT_TRUE(tv.image->instrumented);
    EXPECT_FALSE(tn.image->instrumented);
}

// --------------------------------------------------------------------
// mmap masking pass (application side, anti-Iago)
// --------------------------------------------------------------------

TEST(MmapMask, MasksGhostReturnFromMmap)
{
    sim::SimContext ctx;
    auto parsed = vir::parse(R"(
func @app(0) {
entry:
  %0 = const 0
  %1 = call @mmap(%0)
  ret %1
}
)");
    ASSERT_TRUE(parsed.ok);
    PassStats stats = mmapMaskPass(parsed.module, {"mmap"});
    EXPECT_EQ(stats.sitesInstrumented, 1u);

    Translator tr(kKey, ctx);
    auto t = tr.translateModule(std::move(parsed.module), kCodeBase);
    ASSERT_TRUE(t.ok) << t.error;

    FlatPort port;
    ExternTable externs;
    // Hostile kernel returns a pointer into ghost memory (Iago).
    externs.fns["mmap"] = [](const std::vector<uint64_t> &) {
        return hw::ghostBase + 0x1000;
    };
    Executor exec(*t.image, port, externs, ctx, kStackBase, kStackSize);
    auto r = exec.call("app", {});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_FALSE(hw::isGhostAddr(r.value));
    EXPECT_EQ(r.value, (hw::ghostBase + 0x1000) | hw::sandboxOrMask);
}

// --------------------------------------------------------------------
// Peephole fusion around CFI boundaries: fusing must never move or
// absorb a CfiLabel/CheckRet, and a label spliced into a mask sequence
// must block fusion of that sequence rather than vanish into it.
// --------------------------------------------------------------------

namespace
{

size_t
countOp(const std::vector<MInst> &code, MOp op)
{
    size_t n = 0;
    for (const MInst &m : code)
        n += m.op == op;
    return n;
}

bool
isCall(MOp op)
{
    return op == MOp::CallDirect || op == MOp::CallExt ||
           op == MOp::CallInd || op == MOp::CallIndChecked;
}

} // namespace

TEST(Peephole, FusionNeverMovesOrAbsorbsCfiInstructions)
{
    // Run cfiPass *before* fusing — the hostile order, where a greedy
    // peephole could swallow a label adjacent to (or inside) the
    // pattern it matches. Labels, CheckRets and call/label adjacency
    // must all survive fusion untouched.
    auto parsed = vir::parse(R"(
func @f(2) {
entry:
  %2 = load.i64 %0
  store.i64 %1, %2
  %3 = call @g(%2)
  %4 = const 8
  memcpy %0, %1, %4
  ret %3
}

func @g(1) {
entry:
  ret %0
}
)");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    sandboxPass(parsed.module);
    for (const auto &fn : parsed.module.functions) {
        LoweredFunc lf = lowerFunction(fn);
        cfiPass(lf.code);
        size_t labels = countOp(lf.code, MOp::CfiLabel);
        size_t checkrets = countOp(lf.code, MOp::CheckRet);
        ASSERT_GT(labels, 0u);

        PassStats fs = fuseSandboxPass(lf.code);
        if (fn.name == "f") {
            EXPECT_EQ(fs.sitesInstrumented, 4u); // load+store+2 memcpy
        }

        EXPECT_EQ(countOp(lf.code, MOp::CfiLabel), labels) << fn.name;
        EXPECT_EQ(countOp(lf.code, MOp::CheckRet), checkrets) << fn.name;
        EXPECT_EQ(lf.code.front().op, MOp::CfiLabel) << fn.name;
        for (size_t i = 0; i < lf.code.size(); i++) {
            if (!isCall(lf.code[i].op))
                continue;
            ASSERT_LT(i + 1, lf.code.size());
            EXPECT_EQ(lf.code[i + 1].op, MOp::CfiLabel)
                << fn.name << " call at " << i
                << " lost its return-site label";
        }
    }
}

TEST(Peephole, LabelSplicedIntoMaskSequenceBlocksFusion)
{
    auto parsed = vir::parse(R"(
func @peek(1) {
entry:
  %1 = load.i64 %0
  ret %1
}
)");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    sandboxPass(parsed.module);
    LoweredFunc lf = lowerFunction(parsed.module.functions[0]);

    // Pristine code fuses its one masking sequence...
    std::vector<MInst> pristine = lf.code;
    PassStats all = fuseSandboxPass(pristine);
    EXPECT_EQ(all.sitesInstrumented, 1u);

    // ...but with a CfiLabel spliced into the sequence interior the
    // pattern no longer matches: the label must survive, unfused.
    int dst = -1;
    size_t seq = SIZE_MAX;
    for (size_t i = 0; i < lf.code.size(); i++)
        if (matchSandboxMaskSeq(lf.code, i, dst) >= 0) {
            seq = i;
            break;
        }
    ASSERT_NE(seq, SIZE_MAX);
    MInst label;
    label.op = MOp::CfiLabel;
    label.imm = cfiLabelValue;
    lf.code.insert(lf.code.begin() + (long)(seq + 5), label);

    PassStats blocked = fuseSandboxPass(lf.code);
    EXPECT_EQ(blocked.sitesInstrumented, 0u);
    EXPECT_EQ(countOp(lf.code, MOp::CfiLabel), 1u);
    EXPECT_EQ(countOp(lf.code, MOp::SandboxAddr), 0u);
}

TEST(Peephole, FusedAndUnfusedTranslationsBothPassTheVerifier)
{
    const char *src = R"(
func @worker(2) {
entry:
  %2 = const 8
  memcpy %1, %0, %2
  %3 = load.i64 %1
  store.i64 %0, %3
  %4 = call @worker(%3, %1)
  ret %4
}
)";
    sim::SimContext ctx(sim::VgConfig::full());
    Translator translator(kKey, ctx);
    // The translator's own verifyMcode gate is on: translation
    // succeeding already implies 0 findings.
    auto tr = translator.translateText(src, kCodeBase);
    ASSERT_TRUE(tr.ok) << tr.error;
    EXPECT_EQ(tr.mverify.findings.size(), 0u);
    const MachineImage &fused = *tr.image;

    // Reference: the same pipeline with fuseSandboxPass skipped.
    auto parsed = vir::parse(src);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    sandboxPass(parsed.module);
    std::vector<LoweredFunc> lowered;
    for (const auto &fn : parsed.module.functions) {
        LoweredFunc lf = lowerFunction(fn);
        cfiPass(lf.code);
        lowered.push_back(std::move(lf));
    }
    MachineImage unfused =
        layoutImage(parsed.module.name, std::move(lowered), kCodeBase);

    // The structural and CFI layers accept both; the sandbox layer
    // knows only SandboxAddr (McodeVerify.UnfusedMaskSequenceDoes-
    // NotCountAsMasked covers the unfused image's rejection).
    McodePolicy cfiOnly;
    cfiOnly.requireSandbox = false;
    auto res = McodeVerifier(cfiOnly).verify(unfused);
    EXPECT_TRUE(res.ok()) << res.message();

    // Fusion must not change the CFI skeleton, only compress masks.
    EXPECT_EQ(countOp(fused.code, MOp::CfiLabel),
              countOp(unfused.code, MOp::CfiLabel));
    EXPECT_EQ(countOp(fused.code, MOp::CheckRet),
              countOp(unfused.code, MOp::CheckRet));
    EXPECT_GT(countOp(fused.code, MOp::SandboxAddr), 0u);
    EXPECT_EQ(countOp(unfused.code, MOp::SandboxAddr), 0u);
    EXPECT_EQ(fused.code.size() + tr.fuseStats.instsRemoved,
              unfused.code.size());
}

// ---------------------------------------------------------------------
// Executor golden corpus: loop-heavy modules covering every op class
// (arith, compares, data-dependent branches, masked memory, memcpy,
// calls) plus fault and fuel paths. Each scenario's values, faults,
// retired instructions, cycles and exec.* stats fold into one recorded
// digest per config, so any change to what the interpreter computes or
// charges shows up as a mismatch.
// ---------------------------------------------------------------------

namespace
{

/** Pure arithmetic counted loop. */
const char *kSumLoop = R"(
func @sum(1) {
entry:
  %1 = const 0
  %2 = const 0
  br head
head:
  %3 = icmp ult %2, %0
  condbr %3, body, done
body:
  %4 = mul %2, %2
  %1 = add %1, %4
  %5 = const 1
  %2 = add %2, %5
  br head
done:
  ret %1
}
)";

/** Store/load loop: sandbox masks inside the hot loop. */
const char *kMemLoop = R"(
func @memsum(2) {
entry:
  %2 = const 0
  %3 = const 0
  br head
head:
  %4 = icmp ult %3, %1
  condbr %4, body, done
body:
  %5 = add %0, %3
  store.i8 %5, %3
  %6 = load.i8 %5
  %2 = add %2, %6
  %7 = const 1
  %3 = add %3, %7
  br head
done:
  ret %2
}
)";

/** Nested loops. */
const char *kNestedLoop = R"(
func @nested(1) {
entry:
  %1 = const 0
  %2 = const 0
  br ohead
ohead:
  %3 = icmp ult %2, %0
  condbr %3, oinit, done
oinit:
  %4 = const 0
  br ihead
ihead:
  %5 = icmp ult %4, %0
  condbr %5, ibody, onext
ibody:
  %6 = xor %2, %4
  %1 = add %1, %6
  %7 = const 1
  %4 = add %4, %7
  br ihead
onext:
  %8 = const 1
  %2 = add %2, %8
  br ohead
done:
  ret %1
}
)";

/** Data-dependent branch in the loop body. */
const char *kBranchyLoop = R"(
func @branchy(1) {
entry:
  %1 = const 0
  %2 = const 0
  br head
head:
  %3 = icmp ult %2, %0
  condbr %3, body, done
body:
  %4 = const 1
  %5 = and %2, %4
  condbr %5, odd, even
odd:
  %6 = const 3
  %7 = mul %2, %6
  %1 = add %1, %7
  br next
even:
  %1 = sub %1, %2
  br next
next:
  %8 = const 1
  %2 = add %2, %8
  br head
done:
  ret %1
}
)";

/** Direct call in the loop body. */
const char *kCallLoop = R"(
func @double(1) {
entry:
  %1 = add %0, %0
  ret %1
}

func @calls(1) {
entry:
  %1 = const 0
  %2 = const 0
  br head
head:
  %3 = icmp ult %2, %0
  condbr %3, body, done
body:
  %4 = call @double(%2)
  %1 = add %1, %4
  %5 = const 1
  %2 = add %2, %5
  br head
done:
  ret %1
}
)";

/** Bulk-copy loop: Memcpy's length-dependent cycle cost. */
const char *kCopyLoop = R"(
func @copies(2) {
entry:
  %2 = const 0
  br head
head:
  %3 = icmp ult %2, %1
  condbr %3, body, done
body:
  %4 = const 64
  %5 = add %0, %4
  memcpy %5, %0, %4
  %6 = const 1
  %2 = add %2, %6
  br head
done:
  ret %2
}
)";

/** Divides by a shrinking counter: faults DivideByZero mid-loop. */
const char *kDivFault = R"(
func @divdown(1) {
entry:
  %1 = const 0
  br head
head:
  %2 = udiv %1, %0
  %1 = add %1, %2
  %3 = const 1
  %0 = sub %0, %3
  br head
}
)";

struct ExecScenario
{
    const char *name;
    const char *src;
    const char *fn;
    std::vector<std::vector<uint64_t>> calls;
    uint64_t fuel = 0; ///< 0 = executor default
    uint64_t fullDigest = 0;   ///< recorded under VgConfig::full()
    uint64_t nativeDigest = 0; ///< recorded under VgConfig::native()
};

const std::vector<ExecScenario> kExecCorpus = {
    {"sum", kSumLoop, "sum", {{0}, {3}, {500}, {7}, {200}}, 0,
     0xe0fa6a1b3cb88022ull, 0x754a9b6460504febull},
    {"mem", kMemLoop, "memsum", {{4096, 5}, {4096, 300}, {8192, 128}},
     0, 0x3790e8f09688d87eull, 0xe2212f6f1226fa43ull},
    {"nested", kNestedLoop, "nested", {{2}, {25}, {30}}, 0,
     0x5a699a4e3b7dca12ull, 0x110424f1a7179e33ull},
    {"branchy", kBranchyLoop, "branchy", {{6}, {400}, {111}}, 0,
     0xd10a4478abee9ac0ull, 0x1460e8347f1ef1d7ull},
    {"calls", kCallLoop, "calls", {{5}, {250}, {64}}, 0,
     0xa73d199fbe858c30ull, 0xe45a63ba94449f4cull},
    {"copy", kCopyLoop, "copies", {{4096, 4}, {4096, 120}}, 0,
     0x178df3482abb4a80ull, 0x3a19bd504b75055cull},
    {"divfault", kDivFault, "divdown", {{40}, {40}, {40}}, 0,
     0x969a0c62f1a7b2beull, 0xb839b3b789ec543dull},
    {"fuel", kSumLoop, "sum", {{100000}, {100000}}, 20000,
     0x5c0849db3b3fa58full, 0x5c0849db3b3fa58full},
};

/** Run @p sc under @p cfg on a fresh machine and digest everything
 *  the executor produced: per call (ok, value, fault, retired
 *  instructions), then the clock and every exec.* stat. */
uint64_t
execDigest(const ExecScenario &sc, const sim::VgConfig &cfg)
{
    sim::SimContext ctx(cfg);
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(sc.src, kCodeBase);
    EXPECT_TRUE(tr.ok) << sc.name << ": " << tr.error;
    if (!tr.ok)
        return 0;
    FlatPort port;
    ExternTable externs;
    Executor exec(*tr.image, port, externs, ctx, kStackBase,
                  kStackSize);
    if (sc.fuel)
        exec.setFuel(sc.fuel);

    test::Golden g;
    for (const auto &args : sc.calls) {
        ExecResult r = exec.call(sc.fn, args);
        g.u64(r.ok).u64(r.value).u64(uint64_t(r.fault));
        g.u64(r.instsExecuted);
    }
    g.u64(ctx.clock().now());
    std::map<std::string, uint64_t> execStats;
    for (const auto &[name, value] : ctx.stats().all())
        if (name.rfind("exec.", 0) == 0)
            execStats[name] = value;
    return g.stats(execStats).h;
}

/** FlatPort that also samples the simulated clock at every load. */
class ClockProbePort : public FlatPort
{
  public:
    explicit ClockProbePort(sim::SimContext &ctx) : _ctx(ctx) {}

    bool
    read(uint64_t va, unsigned bytes, uint64_t &out) override
    {
        loadClocks.push_back(_ctx.clock().now());
        return FlatPort::read(va, bytes, out);
    }

    std::vector<sim::Cycles> loadClocks;

  private:
    sim::SimContext &_ctx;
};

} // namespace

TEST(ExecGoldenSweep, FullConfig)
{
    for (const ExecScenario &sc : kExecCorpus)
        EXPECT_TRUE(test::matchesGolden(
            execDigest(sc, sim::VgConfig::full()), sc.fullDigest))
            << sc.name;
}

TEST(ExecGoldenSweep, NativeConfig)
{
    for (const ExecScenario &sc : kExecCorpus)
        EXPECT_TRUE(test::matchesGolden(
            execDigest(sc, sim::VgConfig::native()), sc.nativeDigest))
            << sc.name;
}

/** A MemPort sees the simulated clock advance by the same amount on
 *  every iteration of a hot loop: the executor charges each
 *  instruction as it retires, never in deferred batches. */
TEST(ExecClock, MemPortSeesEvenClockOnEveryHotIteration)
{
    sim::SimContext ctx(sim::VgConfig::full());
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(kMemLoop, kCodeBase);
    ASSERT_TRUE(tr.ok) << tr.error;
    ClockProbePort port(ctx);
    ExternTable externs;
    Executor exec(*tr.image, port, externs, ctx, kStackBase,
                  kStackSize);

    constexpr uint64_t kIters = 400;
    for (int call = 0; call < 4; call++) {
        port.loadClocks.clear();
        ExecResult r = exec.call("memsum", {4096, kIters});
        ASSERT_TRUE(r.ok) << r.detail;
        ASSERT_EQ(port.loadClocks.size(), kIters);
        const sim::Cycles step = port.loadClocks[1] - port.loadClocks[0];
        EXPECT_GT(step, 0u);
        for (size_t i = 1; i < kIters; i++)
            ASSERT_EQ(port.loadClocks[i] - port.loadClocks[i - 1], step)
                << "call " << call << ", iteration " << i;
    }
}

// ---------------------------------------------------------------------
// Fuel budget: the budget counts modeled machine instructions and is
// never overshot, even when a single dispatch retires a fused
// 13-instruction mask sequence.
// ---------------------------------------------------------------------

TEST(FuelBudget, FusedDispatchNeverOvershoots)
{
    sim::VgConfig cfg = sim::VgConfig::full(); // fused masks: cost 13
    sim::SimContext ctx(cfg);
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(kMemLoop, kCodeBase);
    ASSERT_TRUE(tr.ok) << tr.error;
    FlatPort port;
    ExternTable externs;

    Executor probe(*tr.image, port, externs, ctx, kStackBase,
                   kStackSize);
    ExecResult full = probe.call("memsum", {4096, 6});
    ASSERT_TRUE(full.ok);
    const uint64_t need = full.instsExecuted;
    ASSERT_GT(need, 13u);

    for (uint64_t fuel = 1; fuel <= need + 1; fuel++) {
        Executor exec(*tr.image, port, externs, ctx, kStackBase,
                      kStackSize);
        exec.setFuel(fuel);
        ExecResult r = exec.call("memsum", {4096, 6});
        ASSERT_LE(r.instsExecuted, fuel)
            << "budget overshot at fuel=" << fuel;
        if (fuel < need) {
            EXPECT_FALSE(r.ok);
            EXPECT_EQ(r.fault, ExecFault::FuelExhausted);
        } else {
            EXPECT_TRUE(r.ok);
            EXPECT_EQ(r.instsExecuted, need);
        }
    }
}
