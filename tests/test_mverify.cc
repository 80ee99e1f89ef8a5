/**
 * @file
 * Machine-code safety verifier tests.
 *
 * The McodeVerifySweep suite is the PR's acceptance property: across a
 * corpus of modules and every instrumentation configuration, the clean
 * compiler produces 0 findings, while every injected miscompile (every
 * kind at every site) is detected. The remaining tests pin down the
 * gating behaviour: the translator refuses to sign or cache
 * unverifiable images, kernel module loading surfaces the refusal, and
 * VgConfig::verifyMcode turns the gate off.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/iflow.hh"
#include "compiler/minject.hh"
#include "compiler/mverify.hh"
#include "compiler/translator.hh"
#include "kernel/system.hh"
#include "sim/context.hh"
#include "vir/text.hh"

using namespace vg;
using namespace vg::cc;

namespace
{

constexpr uint64_t kCodeBase = 0xffffff9000000000ull;
const std::vector<uint8_t> kKey(32, 0x11);

/** Clean corpus: loops, recursion, memory, memcpy, indirect calls,
 *  externs, allocas, multi-function control flow. */
const char *kCorpus[] = {
    // arithmetic + loop
    R"(
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
)",
    // recursion
    R"(
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
)",
    // loads/stores through an alloca
    R"(
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
)",
    // memcpy + byte loop (mask-def / use gap for the clobber kind)
    R"(
func @blit(2) {
entry:
  %2 = const 64
  memcpy %1, %0, %2
  %3 = const 0
  %4 = const 0
  br head
head:
  %5 = icmp ult %4, %2
  condbr %5, body, done
body:
  %6 = add %1, %4
  %7 = load.i8 %6
  %3 = add %3, %7
  %8 = const 1
  %4 = add %4, %8
  br head
done:
  ret %3
}
)",
    // indirect + direct + extern calls
    R"(
func @target(1) {
entry:
  %1 = const 5
  %2 = add %0, %1
  ret %2
}

func @dispatch(1) {
entry:
  %1 = funcaddr @target
  %2 = callind %1(%0)
  %3 = call @target(%2)
  %4 = call @klog_val(%3)
  ret %4
}
)",
    // diamond join writing memory on both sides
    R"(
func @branchy(2) {
entry:
  %2 = alloca 8
  condbr %0, then, els
then:
  store.i64 %2, %0
  br done
els:
  store.i64 %2, %1
  br done
done:
  %3 = load.i64 %2
  ret %3
}
)",
    // mixed-width loads and stores plus two memcpys
    R"(
func @mixed(3) {
entry:
  %3 = alloca 32
  store.i8 %3, %0
  %4 = const 2
  %5 = add %3, %4
  store.i16 %5, %1
  %6 = const 4
  %7 = add %3, %6
  store.i32 %7, %2
  %8 = const 16
  memcpy %0, %3, %8
  %9 = const 8
  memcpy %1, %0, %9
  %10 = load.i8 %3
  %11 = load.i16 %5
  %12 = load.i32 %7
  %13 = load.i64 %1
  %14 = add %10, %11
  %15 = add %14, %12
  %16 = add %15, %13
  ret %16
}
)",
    // load/store loop with calls in the body
    R"(
func @bump(1) {
entry:
  %1 = load.i64 %0
  %2 = const 1
  %3 = add %1, %2
  store.i64 %0, %3
  ret %3
}

func @walk(2) {
entry:
  %2 = const 0
  %3 = const 0
  br head
head:
  %4 = icmp ult %3, %1
  condbr %4, body, done
body:
  %5 = const 8
  %6 = mul %3, %5
  %7 = add %0, %6
  %8 = load.i64 %7
  %9 = call @bump(%7)
  store.i64 %7, %8
  %2 = add %2, %9
  %10 = const 1
  %3 = add %3, %10
  br head
done:
  ret %2
}
)",
};

struct NamedConfig
{
    const char *name;
    sim::VgConfig cfg;
};

std::vector<NamedConfig>
allConfigs()
{
    std::vector<NamedConfig> out;
    out.push_back({"full", sim::VgConfig::full()});
    sim::VgConfig c = sim::VgConfig::full();
    c.sandboxMemory = false;
    out.push_back({"cfi-only", c});
    c = sim::VgConfig::full();
    c.cfi = false;
    out.push_back({"sandbox-only", c});
    out.push_back({"native", sim::VgConfig::native()});
    return out;
}

/** Test-side reference image: the translator's pipeline without
 *  fuseSandboxPass (sandboxPass -> lowerFunction -> cfiPass ->
 *  layoutImage), so every mask stays the 13-instruction sequence
 *  sandboxPass emits. Unverified and unsigned. */
MachineImage
unfusedImage(const char *text)
{
    vir::ParseResult parsed = vir::parse(text);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    sandboxPass(parsed.module);
    std::vector<LoweredFunc> lowered;
    for (const auto &fn : parsed.module.functions) {
        LoweredFunc lf = lowerFunction(fn);
        cfiPass(lf.code);
        lowered.push_back(std::move(lf));
    }
    MachineImage image =
        layoutImage(parsed.module.name, std::move(lowered), kCodeBase);
    image.instrumented = true;
    return image;
}

/** Translate under @p cfg with the verifier gate disabled, so sweeps
 *  can inject faults and verify explicitly. */
std::shared_ptr<const MachineImage>
compileUngated(const char *text, sim::VgConfig cfg)
{
    cfg.verifyMcode = false;
    sim::SimContext ctx(cfg);
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(text, kCodeBase);
    EXPECT_TRUE(tr.ok) << tr.error;
    return tr.image;
}

MRule
expectedRule(Miscompile kind)
{
    switch (kind) {
    case Miscompile::DropMask:
    case Miscompile::ClobberMask: return MRule::UnmaskedAccess;
    case Miscompile::StripEntryLabel: return MRule::MissingEntryLabel;
    case Miscompile::StripReturnLabel:
        return MRule::MissingReturnLabel;
    case Miscompile::RawRet: return MRule::RawRet;
    case Miscompile::RawIndirectCall: return MRule::RawIndirectCall;
    case Miscompile::BadJumpTarget: return MRule::BadBranchTarget;
    case Miscompile::ForgeLabel: return MRule::LabelForgery;
    case Miscompile::IflowDropSeal:
    case Miscompile::IflowRawStore:
    case Miscompile::IflowStatLeak:
        break; // iflow kinds are invisible to the McodeVerifier
    }
    return MRule::UnmaskedAccess;
}

/** True for the information-flow kinds: they only have sites on images
 *  carrying ghost taint (and are deliberately invisible to the
 *  McodeVerifier); test_iflow.cc sweeps them. */
bool
iflowOnlyKind(Miscompile kind)
{
    return kind == Miscompile::IflowDropSeal ||
           kind == Miscompile::IflowRawStore ||
           kind == Miscompile::IflowStatLeak;
}

bool
hasRule(const McodeVerifyResult &res, MRule rule)
{
    return std::any_of(res.findings.begin(), res.findings.end(),
                       [&](const McodeFinding &f) {
                           return f.rule == rule;
                       });
}

} // namespace

// --------------------------------------------------------------------
// Acceptance sweep
// --------------------------------------------------------------------

TEST(McodeVerifySweep, CleanCorpusHasZeroFindingsUnderAllConfigs)
{
    for (const NamedConfig &nc : allConfigs()) {
        for (const char *text : kCorpus) {
            // Gate on: the translation itself must succeed...
            sim::SimContext ctx(nc.cfg);
            Translator translator(kKey, ctx);
            auto tr = translator.translateText(text, kCodeBase);
            ASSERT_TRUE(tr.ok)
                << "config " << nc.name << ": " << tr.error;
            EXPECT_EQ(tr.mverify.findings.size(), 0u) << nc.name;
            EXPECT_GT(tr.mverify.functionsChecked, 0u) << nc.name;
            // ... and an explicit re-verification agrees.
            McodeVerifier verifier(McodePolicy::fromConfig(nc.cfg));
            auto res = verifier.verify(*tr.image);
            EXPECT_TRUE(res.ok()) << "config " << nc.name << ":\n"
                                  << res.message();
            EXPECT_EQ(res.instsChecked, tr.image->code.size());
        }
    }
}

TEST(McodeVerifySweep, EveryInjectedMiscompileIsDetected)
{
    // Every kind, every site, every module: 100% detection, each with
    // the kind's signature rule.
    McodeVerifier verifier{McodePolicy{}};
    size_t injected = 0;
    std::vector<size_t> perKind(allMiscompiles().size(), 0);

    for (const char *text : kCorpus) {
        auto image = compileUngated(text, sim::VgConfig::full());
        ASSERT_TRUE(image);
        for (size_t k = 0; k < allMiscompiles().size(); k++) {
            Miscompile kind = allMiscompiles()[k];
            size_t sites = miscompileSites(*image, kind).size();
            for (size_t s = 0; s < sites; s++) {
                MachineImage bad = *image;
                ASSERT_TRUE(injectMiscompile(bad, kind, s));
                auto res = verifier.verify(bad);
                EXPECT_FALSE(res.ok()) << miscompileName(kind) << " site "
                                       << s << " went undetected";
                EXPECT_TRUE(hasRule(res, expectedRule(kind)))
                    << miscompileName(kind) << " site " << s
                    << " detected, but without rule "
                    << ruleId(expectedRule(kind)) << ":\n"
                    << res.message();
                injected++;
                perKind[k]++;
            }
        }
    }
    // The corpus must actually exercise every mcode kind (the iflow
    // kinds are swept in test_iflow.cc).
    for (size_t k = 0; k < perKind.size(); k++) {
        if (iflowOnlyKind(allMiscompiles()[k]))
            continue;
        EXPECT_GT(perKind[k], 0u)
            << "no sites for " << miscompileName(allMiscompiles()[k]);
    }
    EXPECT_EQ(injected, 118u);
}

// --------------------------------------------------------------------
// Gating
// --------------------------------------------------------------------

TEST(McodeVerifyGate, TranslatorRefusesAndNeverCachesBadImages)
{
    sim::SimContext ctx;
    Translator translator(kKey, ctx);
    translator.setPostLayoutHook([](MachineImage &image) {
        ASSERT_TRUE(injectMiscompile(image, Miscompile::DropMask, 0));
    });

    auto tr = translator.translateText(kCorpus[2], kCodeBase);
    EXPECT_FALSE(tr.ok);
    EXPECT_NE(tr.error.find("mcode verifier rejected"),
              std::string::npos)
        << tr.error;
    EXPECT_NE(tr.error.find("VG-SB-01"), std::string::npos) << tr.error;
    EXPECT_EQ(ctx.stats().get("translator.mverify_rejected"), 1u);
    EXPECT_GE(ctx.stats().get("mverify.findings"), 1u);

    // The rejected image must not have been cached: with the hook
    // cleared the same source translates cleanly (a cache hit would
    // have handed back the refused translation or its error).
    translator.setPostLayoutHook(nullptr);
    auto ok = translator.translateText(kCorpus[2], kCodeBase);
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_FALSE(ok.fromCache);
    EXPECT_EQ(ok.mverify.findings.size(), 0u);
}

TEST(McodeVerifyGate, KernelModuleLoadRefusesUnverifiableCode)
{
    kern::System sys;
    sys.boot();

    const char *module_text = R"(
func @probe(1) {
entry:
  %1 = load.i64 %0
  ret %1
}
)";

    sys.vm().translator().setPostLayoutHook([](MachineImage &image) {
        ASSERT_TRUE(
            injectMiscompile(image, Miscompile::StripEntryLabel, 0));
    });
    std::string err;
    EXPECT_FALSE(sys.kernel().loadModule("evil", module_text, &err));
    EXPECT_NE(err.find("mcode verifier rejected"), std::string::npos)
        << err;
    EXPECT_NE(err.find("VG-CFI-03"), std::string::npos) << err;
    EXPECT_EQ(sys.ctx().stats().get("kernel.modules_loaded"), 0u);

    // Same text loads fine once the pipeline stops miscompiling.
    sys.vm().translator().setPostLayoutHook(nullptr);
    EXPECT_TRUE(sys.kernel().loadModule("probe", module_text, &err))
        << err;
    EXPECT_EQ(sys.ctx().stats().get("kernel.modules_loaded"), 1u);
}

TEST(McodeVerifyGate, VerifyMcodeKnobDisablesTheGate)
{
    sim::VgConfig cfg = sim::VgConfig::full();
    cfg.verifyMcode = false;
    sim::SimContext ctx(cfg);
    Translator translator(kKey, ctx);
    translator.setPostLayoutHook([](MachineImage &image) {
        ASSERT_TRUE(injectMiscompile(image, Miscompile::RawRet, 0));
    });

    // With the knob off the miscompiled image sails through (this is
    // exactly the pre-verifier trust model)...
    auto tr = translator.translateText(kCorpus[0], kCodeBase);
    ASSERT_TRUE(tr.ok) << tr.error;
    EXPECT_EQ(ctx.stats().get("mverify.functions"), 0u);

    // ...and an explicit verification shows what the gate would have
    // caught.
    McodeVerifier verifier{McodePolicy{}};
    auto res = verifier.verify(*tr.image);
    EXPECT_TRUE(hasRule(res, MRule::RawRet)) << res.message();
}

// --------------------------------------------------------------------
// Policy and individual rules
// --------------------------------------------------------------------

TEST(McodeVerify, PolicyFollowsInstrumentationConfig)
{
    // A native compile passes its own (structural-only) policy but
    // fails the full policy — uninstrumented code is only acceptable
    // when the configuration says the kernel runs uninstrumented.
    auto image = compileUngated(kCorpus[2], sim::VgConfig::native());
    ASSERT_TRUE(image);

    McodeVerifier structural(
        McodePolicy::fromConfig(sim::VgConfig::native()));
    EXPECT_TRUE(structural.verify(*image).ok());

    McodeVerifier full{McodePolicy{}};
    auto res = full.verify(*image);
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, MRule::RawRet));
    EXPECT_TRUE(hasRule(res, MRule::MissingEntryLabel));
    EXPECT_TRUE(hasRule(res, MRule::UnmaskedAccess));
}

TEST(McodeVerify, LabelValueAsDataConstantIsRejected)
{
    // Label uniqueness (paper S 5.3): kernel code must not be able to
    // manufacture the CFI label value as data. The translator refuses
    // such modules outright.
    sim::SimContext ctx;
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(R"(
func @forge(0) {
entry:
  %0 = const 0x00CF1CF1
  ret %0
}
)",
                                       kCodeBase);
    EXPECT_FALSE(tr.ok);
    EXPECT_NE(tr.error.find("VG-CFI-05"), std::string::npos)
        << tr.error;
}

TEST(McodeVerify, UnfusedMaskSequenceDoesNotCountAsMasked)
{
    // The translator always fuses, so SandboxAddr is the only mask the
    // verifier knows. An image that keeps sandboxPass's 13-instruction
    // sequence computes the same addresses, but nothing proves its
    // loads and stores masked: the sandbox layer rejects it, while the
    // structural and CFI layers stay clean.
    MachineImage image = unfusedImage(kCorpus[2]); // store_load
    size_t seqs = 0;
    for (size_t i = 0; i < image.code.size(); i++) {
        int dst = -1;
        seqs += matchSandboxMaskSeq(image.code, i, dst) >= 0;
        EXPECT_NE(image.code[i].op, MOp::SandboxAddr);
    }
    ASSERT_EQ(seqs, 4u) << "corpus lost its mask sequences";

    McodeVerifier verifier{McodePolicy{}};
    auto res = verifier.verify(image);
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, MRule::UnmaskedAccess)) << res.message();

    McodePolicy cfiOnly;
    cfiOnly.requireSandbox = false;
    auto rest = McodeVerifier(cfiOnly).verify(image);
    EXPECT_TRUE(rest.ok()) << rest.message();
}

TEST(McodeVerify, OffGridEntryDoesNotWidenItsNeighbour)
{
    // Three functions laid out A (indices 0-2), B, C (indices 3-5),
    // where B's entry codeBase+2 is not an instruction boundary. B gets
    // no extent, so A must end where C begins: A's jump into C's body
    // escapes A, and no instruction is checked twice.
    auto inst = [](MOp op, uint64_t imm = 0, int dst = -1, int a = -1) {
        MInst m;
        m.op = op;
        m.imm = imm;
        m.dst = dst;
        m.a = a;
        return m;
    };
    MachineImage image;
    image.moduleName = "offgrid";
    image.codeBase = kCodeBase;
    image.instrumented = true;
    image.code = {
        inst(MOp::CfiLabel, cfiLabelValue),
        inst(MOp::Jump, kCodeBase + 4 * mInstBytes), // into C's body
        inst(MOp::CheckRet),
        inst(MOp::CfiLabel, cfiLabelValue),
        inst(MOp::ConstI, 7, 0),
        inst(MOp::CheckRet, 0, -1, 0),
    };
    auto addFn = [&](const char *name, uint64_t entry, int numRegs) {
        FuncInfo fi;
        fi.name = name;
        fi.entryAddr = entry;
        fi.numRegs = numRegs;
        image.functions[name] = fi;
    };
    addFn("A", kCodeBase, 0);
    addFn("B", kCodeBase + 2, 0);
    addFn("C", kCodeBase + 3 * mInstBytes, 1);

    std::vector<FuncExtent> extents = functionExtents(image);
    ASSERT_EQ(extents.size(), 2u);
    EXPECT_EQ(extents[0].info->name, "A");
    EXPECT_EQ(extents[0].begin, 0u);
    EXPECT_EQ(extents[0].end, 3u);
    EXPECT_EQ(extents[1].info->name, "C");
    EXPECT_EQ(extents[1].begin, 3u);
    EXPECT_EQ(extents[1].end, 6u);

    McodeVerifier verifier{McodePolicy{}};
    McodeVerifyResult res = verifier.verify(image);
    auto has = [&](MRule rule, const char *fn, uint64_t addr) {
        return std::any_of(res.findings.begin(), res.findings.end(),
                           [&](const McodeFinding &f) {
                               return f.rule == rule && f.function == fn &&
                                      f.addr == addr;
                           });
    };
    EXPECT_TRUE(has(MRule::BadCallTarget, "B", kCodeBase + 2))
        << res.message();
    EXPECT_TRUE(has(MRule::BadBranchTarget, "A", kCodeBase + mInstBytes))
        << res.message();
    EXPECT_EQ(res.instsChecked, image.code.size());
    EXPECT_EQ(IflowVerifier().verify(image).instsChecked,
              image.code.size());
}

TEST(McodeVerify, StatsRecordVerificationWork)
{
    sim::SimContext ctx;
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(kCorpus[4], kCodeBase);
    ASSERT_TRUE(tr.ok) << tr.error;
    EXPECT_EQ(ctx.stats().get("mverify.functions"), 2u);
    EXPECT_EQ(ctx.stats().get("mverify.insts"), tr.image->code.size());
    EXPECT_EQ(ctx.stats().get("mverify.findings"), 0u);
    // wall_ns is timing-dependent; it only has to exist as a counter.
    EXPECT_EQ(ctx.stats().all().count("mverify.wall_ns"), 1u);

    // Cache hits skip re-verification: counters must not move.
    uint64_t fns = ctx.stats().get("mverify.functions");
    auto again = translator.translateText(kCorpus[4], kCodeBase);
    ASSERT_TRUE(again.ok);
    EXPECT_TRUE(again.fromCache);
    EXPECT_EQ(ctx.stats().get("mverify.functions"), fns);
}
