/**
 * @file
 * Trace-tier tests: differential equivalence against the pure
 * interpreter, trace formation and metadata, the verifier gate on
 * spliced images (including the trace-targeted miscompile sweep), the
 * VG-TR rule family on hand-built images, and the fused-dispatch fuel
 * budget.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "compiler/exec.hh"
#include "compiler/minject.hh"
#include "compiler/mverify.hh"
#include "compiler/translator.hh"
#include "sim/context.hh"

using namespace vg;
using namespace vg::cc;

namespace
{

/** This suite exercises the tier itself, so it must run with the tier
 *  available regardless of the harness environment (CI re-runs the
 *  rest of tier-1 under VG_DISABLE_TRACE_TIER=1 as an A/B;
 *  EnvKnobDisablesTier sets the variable explicitly for its own
 *  scope). */
const int kEnvCleared = [] {
    unsetenv("VG_DISABLE_TRACE_TIER");
    return 0;
}();

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

/** Low threshold so a handful of calls is enough to form traces. */
constexpr unsigned kHotThreshold = 8;

// ---------------------------------------------------------------------
// VIR corpus: loop-heavy modules that exercise every traceable op
// class (arith, compares, side exits, masked memory, memcpy, calls)
// plus fault paths.
// ---------------------------------------------------------------------

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

/** Store/load loop: sandbox masks inside the hot trace. */
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

/** Nested loops: inner anchor becomes hot first, outer later. */
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

/** Data-dependent branch in the body: frequent side exits. */
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

/** Call in the loop body: calls are untraceable, so recording is cut
 *  into linear traces and the callee entry is its own anchor. */
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

/** Bulk-copy loop: Memcpy's length-dependent cycle cost in a trace. */
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

/** Divides by a shrinking counter: faults DivideByZero once the
 *  loop — by then running as a trace — reaches zero. */
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

struct Scenario
{
    const char *name;
    const char *src;
    const char *fn;
    std::vector<std::vector<uint64_t>> calls;
    uint64_t fuel = 0; ///< 0 = executor default
};

std::vector<Scenario>
corpus()
{
    // Mix of cold calls (below threshold), threshold-crossing calls
    // and long hot calls, so formation happens mid-sequence and later
    // calls run through the spliced blocks.
    return {
        {"sum", kSumLoop, "sum", {{0}, {3}, {500}, {7}, {200}}, 0},
        {"mem", kMemLoop, "memsum",
         {{4096, 5}, {4096, 300}, {8192, 128}}, 0},
        {"nested", kNestedLoop, "nested", {{2}, {25}, {30}}, 0},
        {"branchy", kBranchyLoop, "branchy", {{6}, {400}, {111}}, 0},
        {"calls", kCallLoop, "calls", {{5}, {250}, {64}}, 0},
        {"copy", kCopyLoop, "copies", {{4096, 4}, {4096, 120}}, 0},
        {"divfault", kDivFault, "divdown", {{40}, {40}, {40}}, 0},
        {"fuel", kSumLoop, "sum", {{100000}, {100000}}, 20000},
    };
}

/** Everything the tier must not change, captured from one run. */
struct Outcome
{
    std::vector<ExecResult> results;
    sim::Cycles cycles = 0;
    std::map<std::string, uint64_t> execStats;
    uint64_t tracesFormed = 0;
    uint64_t traceExecuted = 0;
};

Outcome
runScenario(const Scenario &sc, sim::VgConfig cfg, bool tier)
{
    cfg.traceTier = true; // the off-run simply never enables the tier
    cfg.traceHotThreshold = kHotThreshold;
    sim::SimContext ctx(cfg);
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(sc.src, kCodeBase);
    EXPECT_TRUE(tr.ok) << sc.name << ": " << tr.error;
    if (!tr.ok)
        return {};

    FlatPort port;
    ExternTable externs;
    Executor exec(*tr.image, port, externs, ctx, kStackBase,
                  kStackSize);
    if (sc.fuel)
        exec.setFuel(sc.fuel);
    if (tier)
        exec.enableTraceTier(translator);

    Outcome out;
    for (const auto &args : sc.calls)
        out.results.push_back(exec.call(sc.fn, args));
    out.cycles = ctx.clock().now();
    out.tracesFormed = exec.tracesFormed();
    for (const auto &[k, v] : ctx.stats().all()) {
        if (k.rfind("exec.", 0) == 0)
            out.execStats[k] = v;
        if (k == "trace.executed")
            out.traceExecuted = v;
    }
    return out;
}

void
expectEquivalent(const Scenario &sc, sim::VgConfig cfg,
                 const char *cfgName)
{
    Outcome off = runScenario(sc, cfg, false);
    Outcome on = runScenario(sc, cfg, true);

    ASSERT_EQ(off.results.size(), on.results.size());
    for (size_t i = 0; i < off.results.size(); i++) {
        SCOPED_TRACE(std::string(sc.name) + "/" + cfgName + " call " +
                     std::to_string(i));
        EXPECT_EQ(off.results[i].ok, on.results[i].ok);
        EXPECT_EQ(off.results[i].value, on.results[i].value);
        EXPECT_EQ(off.results[i].fault, on.results[i].fault);
        EXPECT_EQ(off.results[i].instsExecuted,
                  on.results[i].instsExecuted);
    }
    EXPECT_EQ(off.cycles, on.cycles)
        << sc.name << "/" << cfgName << ": cycle counts diverge";
    EXPECT_EQ(off.execStats, on.execStats)
        << sc.name << "/" << cfgName << ": exec.* stats diverge";
    EXPECT_EQ(off.tracesFormed, 0u);
}

/** Drive one module hot and hand back the rig pieces the caller
 *  needs; asserts at least one trace formed. */
struct HotRig
{
    sim::SimContext ctx;
    Translator translator;
    FlatPort port;
    ExternTable externs;
    std::shared_ptr<const MachineImage> base;
    std::unique_ptr<Executor> exec;

    explicit HotRig(sim::VgConfig cfg = sim::VgConfig::full())
        : ctx([&cfg] {
              cfg.traceHotThreshold = kHotThreshold;
              return cfg;
          }()),
          translator(kKey, ctx)
    {}

    void
    runHot(const char *src, const char *fn,
           const std::vector<uint64_t> &args, int passes = 3)
    {
        auto tr = translator.translateText(src, kCodeBase);
        ASSERT_TRUE(tr.ok) << tr.error;
        base = tr.image;
        exec = std::make_unique<Executor>(*base, port, externs, ctx,
                                          kStackBase, kStackSize);
        exec->enableTraceTier(translator);
        for (int i = 0; i < passes; i++)
            exec->call(fn, args);
    }

    uint64_t
    stat(const std::string &name)
    {
        auto it = ctx.stats().all().find(name);
        return it == ctx.stats().all().end() ? 0 : it->second;
    }
};

// ---------------------------------------------------------------------
// Differential equivalence: trace-on must be bit-identical to the
// pure interpreter in results, faults, instruction counts, cycle
// counts and exec.* stats — across configs.
// ---------------------------------------------------------------------

TEST(TraceEquivalenceSweep, FullConfig)
{
    for (const Scenario &sc : corpus())
        expectEquivalent(sc, sim::VgConfig::full(), "full");
}

TEST(TraceEquivalenceSweep, NativeConfig)
{
    for (const Scenario &sc : corpus())
        expectEquivalent(sc, sim::VgConfig::native(), "native");
}

/** The sweep must not be vacuous: the hot scenarios really form and
 *  execute traces under the tier. */
TEST(TraceEquivalenceSweep, TierRunsActuallyTrace)
{
    size_t traced = 0;
    for (const Scenario &sc : corpus()) {
        Outcome on = runScenario(sc, sim::VgConfig::full(), true);
        if (on.tracesFormed > 0 && on.traceExecuted > 0)
            traced++;
    }
    EXPECT_GE(traced, 5u) << "most corpus scenarios should trace";
}

// ---------------------------------------------------------------------
// Formation: metadata, stats, signatures, caching, and the knobs
// that keep the tier off.
// ---------------------------------------------------------------------

TEST(TraceFormation, HotLoopFormsVerifiedSignedTrace)
{
    HotRig rig;
    rig.runHot(kMemLoop, "memsum", {4096, 400});
    ASSERT_GT(rig.exec->tracesFormed(), 0u);

    const MachineImage &img = rig.exec->currentImage();
    ASSERT_FALSE(img.traces.empty());
    const TraceInfo &t = img.traces.front();
    EXPECT_EQ(t.home, "memsum");
    EXPECT_FALSE(t.name.empty());
    EXPECT_GT(t.length, 0u);
    EXPECT_TRUE(img.contains(t.anchorAddr));
    EXPECT_TRUE(img.contains(t.entryAddr));
    EXPECT_GE(t.foldSavings(), 1u)
        << "a loop trace folds at least its back-edge dispatch";
    // The trace block is registered as a pseudo-function and the
    // spliced image carries a fresh valid signature.
    EXPECT_EQ(img.functions.count(t.name), 1u);
    EXPECT_TRUE(rig.translator.verifySignature(img));

    EXPECT_GE(rig.stat("trace.formed"), 1u);
    EXPECT_GE(rig.stat("trace.executed"), 1u);
    EXPECT_GT(rig.stat("trace.retired_insts"), 0u);
    EXPECT_GE(rig.stat("translator.traces_spliced"), 1u);
    EXPECT_EQ(rig.stat("translator.splice_rejected"), 0u);
}

TEST(TraceFormation, SideExitsAreCounted)
{
    HotRig rig;
    rig.runHot(kBranchyLoop, "branchy", {300});
    ASSERT_GT(rig.exec->tracesFormed(), 0u);
    EXPECT_GT(rig.stat("trace.side_exits"), 0u)
        << "the parity branch must leave the trace on one arm";
}

TEST(TraceFormation, RepeatSpliceIsServedFromSignedCache)
{
    sim::VgConfig cfg = sim::VgConfig::full();
    cfg.traceHotThreshold = kHotThreshold;
    sim::SimContext ctx(cfg);
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(kSumLoop, kCodeBase);
    ASSERT_TRUE(tr.ok) << tr.error;

    FlatPort port;
    ExternTable externs;
    Executor a(*tr.image, port, externs, ctx, kStackBase, kStackSize);
    a.enableTraceTier(translator);
    for (int i = 0; i < 3; i++)
        a.call("sum", {300});
    ASSERT_GT(a.tracesFormed(), 0u);
    uint64_t hits = translator.cacheHits();

    // A second executor over the same base forms the same trace; the
    // splice must come out of the generation-keyed cache.
    Executor b(*tr.image, port, externs, ctx, kStackBase, kStackSize);
    b.enableTraceTier(translator);
    for (int i = 0; i < 3; i++)
        b.call("sum", {300});
    ASSERT_GT(b.tracesFormed(), 0u);
    EXPECT_GT(translator.cacheHits(), hits);
    EXPECT_EQ(b.currentImage().traces.size(),
              a.currentImage().traces.size());
}

TEST(TraceFormation, ConfigKnobDisablesTier)
{
    sim::VgConfig cfg = sim::VgConfig::full();
    cfg.traceTier = false;
    cfg.traceHotThreshold = kHotThreshold;
    sim::SimContext ctx(cfg);
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(kSumLoop, kCodeBase);
    ASSERT_TRUE(tr.ok) << tr.error;
    FlatPort port;
    ExternTable externs;
    Executor exec(*tr.image, port, externs, ctx, kStackBase,
                  kStackSize);
    exec.enableTraceTier(translator); // must be a no-op
    for (int i = 0; i < 3; i++)
        exec.call("sum", {300});
    EXPECT_EQ(exec.tracesFormed(), 0u);
}

TEST(TraceFormation, EnvKnobDisablesTier)
{
    setenv("VG_DISABLE_TRACE_TIER", "1", 1);
    HotRig rig;
    rig.runHot(kSumLoop, "sum", {300});
    unsetenv("VG_DISABLE_TRACE_TIER");
    EXPECT_EQ(rig.exec->tracesFormed(), 0u);
}

// ---------------------------------------------------------------------
// Verifier gate: trace-targeted miscompiles on a genuinely spliced
// image must be detected 100% (and the clean spliced image must
// verify with zero findings); a splice the verifier rejects is
// refused by the translator and never adopted by the executor.
// ---------------------------------------------------------------------

TEST(TraceMinjectSweep, SplicedImageVerifiesClean)
{
    HotRig rig;
    rig.runHot(kMemLoop, "memsum", {4096, 400});
    ASSERT_FALSE(rig.exec->currentImage().traces.empty());
    McodeVerifier verifier{McodePolicy{}};
    McodeVerifyResult res = verifier.verify(rig.exec->currentImage());
    EXPECT_TRUE(res.ok()) << res.message();
}

TEST(TraceMinjectSweep, EveryTraceMiscompileIsDetected)
{
    HotRig rig;
    rig.runHot(kMemLoop, "memsum", {4096, 400});
    const MachineImage &img = rig.exec->currentImage();
    ASSERT_FALSE(img.traces.empty());

    McodeVerifier verifier{McodePolicy{}};
    const Miscompile kinds[] = {Miscompile::TraceExitHijack,
                                Miscompile::TraceDropMask,
                                Miscompile::TraceStripHeadLabel};
    size_t injected = 0, detected = 0;
    for (Miscompile kind : kinds) {
        auto sites = miscompileSites(img, kind);
        EXPECT_FALSE(sites.empty())
            << miscompileName(kind) << ": no sites on a spliced image";
        for (size_t s = 0; s < sites.size(); s++) {
            MachineImage bad = img;
            ASSERT_TRUE(injectMiscompile(bad, kind, s));
            injected++;
            if (!verifier.verify(bad).ok())
                detected++;
            else
                ADD_FAILURE() << miscompileName(kind) << " site " << s
                              << " went undetected";
        }
    }
    EXPECT_GT(injected, 0u);
    EXPECT_EQ(detected, injected);
}

TEST(TraceGate, UnverifiableSpliceIsRefusedAndNeverAdopted)
{
    sim::VgConfig cfg = sim::VgConfig::full();
    cfg.traceHotThreshold = kHotThreshold;
    sim::SimContext ctx(cfg);
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(kMemLoop, kCodeBase);
    ASSERT_TRUE(tr.ok) << tr.error;

    // From here on, every freshly laid-out image (i.e. every splice
    // attempt — the base is already translated) is miscompiled.
    translator.setPostLayoutHook([](MachineImage &img) {
        if (img.traces.empty())
            return;
        for (Miscompile kind : {Miscompile::TraceExitHijack,
                                Miscompile::TraceStripHeadLabel,
                                Miscompile::TraceDropMask})
            if (injectMiscompile(img, kind, 0))
                return;
    });

    FlatPort port;
    ExternTable externs;
    Executor exec(*tr.image, port, externs, ctx, kStackBase,
                  kStackSize);
    exec.enableTraceTier(translator);
    ExecResult last;
    for (int i = 0; i < 4; i++)
        last = exec.call("memsum", {4096, 400});

    // The hijacked splice was refused: no trace adopted, execution
    // stayed on the (still correct) interpreter.
    EXPECT_EQ(exec.tracesFormed(), 0u);
    EXPECT_TRUE(exec.currentImage().traces.empty());
    EXPECT_TRUE(last.ok);

    const auto &stats = ctx.stats().all();
    auto get = [&](const char *k) {
        auto it = stats.find(k);
        return it == stats.end() ? uint64_t(0) : it->second;
    };
    EXPECT_GE(get("translator.mverify_rejected"), 1u);
    EXPECT_GE(get("trace.rejected"), 1u);
    EXPECT_EQ(get("translator.traces_spliced"), 0u);

    // And the refused image was never signed/cached: clearing the
    // hook, a fresh executor splices cleanly with no cache hit from
    // the poisoned attempt.
    translator.setPostLayoutHook(nullptr);
    Executor fresh(*tr.image, port, externs, ctx, kStackBase,
                   kStackSize);
    fresh.enableTraceTier(translator);
    for (int i = 0; i < 3; i++)
        fresh.call("memsum", {4096, 400});
    EXPECT_GT(fresh.tracesFormed(), 0u);
    EXPECT_TRUE(translator.verifySignature(fresh.currentImage()));
}

// ---------------------------------------------------------------------
// VG-TR rules on hand-built spliced images: deterministic single-rule
// triggers the generated-corpus sweep cannot isolate.
// ---------------------------------------------------------------------

/**
 * Minimal hand-built image with one home function and one linear
 * trace block (policy: sandbox only, no CFI, so no labels are
 * needed). The block is linear — its tail jumps back into home
 * rather than looping — so a clobber planted in the patch slot never
 * reaches the block's own store and only the side-exit rule can see
 * it.
 *
 *   home @f                       trace block f$tr0 (anchor = idx 2)
 *   0: ConstI  r1, #addr          7: Store  [r2] <- r3
 *   1: SandboxAddr r2 <- r1       8: Mov    r3 <- r3   (patch slot)
 *   2: Store  [r2] <- r3   <---   9: JumpIfZero r4 -> addr(6)  (exit)
 *   3: JumpIfZero r4 -> addr(6)  10: Jump -> addr(3)  (continue in home)
 *   4: Jump -> addr(2)
 *   5: Ret   (unreachable)
 *   6: Ret
 */
MachineImage
handBuiltTraceImage()
{
    MachineImage img;
    img.moduleName = "hand";
    img.codeBase = kCodeBase;

    auto at = [&](uint32_t idx) {
        return img.codeBase + idx * mInstBytes;
    };
    auto emit = [&](MOp op, int dst, int a, int b, uint64_t imm) {
        MInst m;
        m.op = op;
        m.dst = dst;
        m.a = a;
        m.b = b;
        m.imm = imm;
        img.code.push_back(m);
    };

    emit(MOp::ConstI, 1, -1, -1, 0x5000);      // 0
    emit(MOp::SandboxAddr, 2, 1, -1, 0);       // 1
    emit(MOp::Store, -1, 2, 3, 0);             // 2  anchor
    emit(MOp::JumpIfZero, -1, 4, -1, at(6));   // 3
    emit(MOp::Jump, -1, -1, -1, at(2));        // 4
    emit(MOp::Ret, -1, 0, -1, 0);              // 5
    emit(MOp::Ret, -1, 0, -1, 0);              // 6
    emit(MOp::Store, -1, 2, 3, 0);             // 7  block head
    emit(MOp::Mov, 3, 3, -1, 0);               // 8  patch slot
    emit(MOp::JumpIfZero, -1, 4, -1, at(6));   // 9  side exit
    emit(MOp::Jump, -1, -1, -1, at(3));        // 10 continue in home

    FuncInfo f;
    f.name = "f";
    f.entryAddr = at(0);
    f.numParams = 0;
    f.numRegs = 5;
    img.functions["f"] = f;

    FuncInfo tf;
    tf.name = "f$tr0";
    tf.entryAddr = at(7);
    tf.numParams = 0;
    tf.numRegs = 5;
    img.functions["f$tr0"] = tf;

    TraceInfo t;
    t.name = "f$tr0";
    t.home = "f";
    t.anchorAddr = at(2);
    t.entryAddr = at(7);
    t.length = 4;
    t.guards = 1;
    img.traces.push_back(t);

    img.instrumented = true;
    return img;
}

McodePolicy
sandboxOnlyPolicy()
{
    McodePolicy p;
    p.requireSandbox = true;
    p.requireCfi = false;
    return p;
}

bool
hasRule(const McodeVerifyResult &res, MRule rule)
{
    for (const McodeFinding &f : res.findings)
        if (f.rule == rule)
            return true;
    return false;
}

TEST(TraceRules, HandBuiltImageVerifiesClean)
{
    MachineImage img = handBuiltTraceImage();
    McodeVerifier verifier(sandboxOnlyPolicy());
    McodeVerifyResult res = verifier.verify(img);
    EXPECT_TRUE(res.ok()) << res.message();
}

TEST(TraceRules, SideExitEscapeVgTr01)
{
    MachineImage img = handBuiltTraceImage();
    // Retarget the guard's side exit past the end of the image.
    img.code[9].imm = img.codeEnd();
    McodeVerifier verifier(sandboxOnlyPolicy());
    McodeVerifyResult res = verifier.verify(img);
    ASSERT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, MRule::SideExitEscape)) << res.message();
}

TEST(TraceRules, SideExitWeakerStateVgTr02)
{
    MachineImage img = handBuiltTraceImage();
    // Clobber the masked address register between its in-trace use and
    // the side exit: the trace itself makes no further access (so no
    // VG-SB-01), but the interpreter resumes at a point whose proof
    // assumed r2 masked.
    img.code[8] = MInst{};
    img.code[8].op = MOp::ConstI;
    img.code[8].dst = 2;
    img.code[8].imm = 0;
    McodeVerifier verifier(sandboxOnlyPolicy());
    McodeVerifyResult res = verifier.verify(img);
    ASSERT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, MRule::SideExitWeakerState))
        << res.message();
    EXPECT_FALSE(hasRule(res, MRule::UnmaskedAccess)) << res.message();
}

TEST(TraceRules, UntraceableOpVgTr03)
{
    MachineImage img = handBuiltTraceImage();
    img.code[8] = MInst{};
    img.code[8].op = MOp::CallDirect;
    img.code[8].dst = 3;
    img.code[8].imm = img.codeBase; // call @f
    McodeVerifier verifier(sandboxOnlyPolicy());
    McodeVerifyResult res = verifier.verify(img);
    ASSERT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, MRule::TraceBadOp)) << res.message();
}

TEST(TraceRules, MissingHomeFunctionIsRejected)
{
    MachineImage img = handBuiltTraceImage();
    img.traces[0].home = "ghost";
    McodeVerifier verifier(sandboxOnlyPolicy());
    McodeVerifyResult res = verifier.verify(img);
    ASSERT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, MRule::SideExitEscape)) << res.message();
}

// ---------------------------------------------------------------------
// Fuel budget: the budget counts modeled machine instructions and is
// never overshot, even when a single dispatch retires a fused
// 13-instruction mask sequence or a whole trace iteration.
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

TEST(FuelBudget, TraceTierRespectsBudgetExactly)
{
    // With the tier on and blocks hot, exhaustion inside a trace must
    // report the same count/fault as the interpreter (covered by the
    // sweep) and never exceed the budget.
    sim::VgConfig cfg = sim::VgConfig::full();
    cfg.traceHotThreshold = kHotThreshold;
    sim::SimContext ctx(cfg);
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(kSumLoop, kCodeBase);
    ASSERT_TRUE(tr.ok) << tr.error;
    FlatPort port;
    ExternTable externs;
    Executor exec(*tr.image, port, externs, ctx, kStackBase,
                  kStackSize);
    exec.enableTraceTier(translator);
    for (int i = 0; i < 3; i++)
        exec.call("sum", {400});
    ASSERT_GT(exec.tracesFormed(), 0u);

    exec.setFuel(777);
    ExecResult r = exec.call("sum", {1u << 20});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, ExecFault::FuelExhausted);
    EXPECT_LE(r.instsExecuted, 777u);
}

} // namespace
