/**
 * @file
 * Information-flow verifier tests.
 *
 * IflowVerifySweep is the PR's acceptance property: across a corpus of
 * ghost-handling modules and every instrumentation configuration, the
 * clean compiler produces 0 findings, while every injected leak
 * miscompile (every iflow kind at every site) is detected — and each
 * of those injected images still passes the McodeVerifier, proving the
 * two verifiers check disjoint properties. The remaining tests pin
 * down the five rules individually, the translator/kernel gating and
 * the stats surface.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/iflow.hh"
#include "compiler/minject.hh"
#include "compiler/mverify.hh"
#include "compiler/translator.hh"
#include "hw/layout.hh"
#include "kernel/system.hh"
#include "sim/context.hh"

using namespace vg;
using namespace vg::cc;

namespace
{

constexpr uint64_t kCodeBase = 0xffffff9000000000ull;
const std::vector<uint8_t> kKey(32, 0x11);

// ---------------------------------------------------------------------
// Clean ghost-handling corpus: every module reads ghost data and moves
// it to an OS-visible channel, but always through a declassifier —
// zero findings expected under every configuration.
// ---------------------------------------------------------------------

const char *kGhostCorpus[] = {
    // source -> seal -> NIC sink
    R"(
func @beacon(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  %2 = call @sva_seal(%1)
  %3 = call @k_nic_tx(%2)
  ret %3
}
)",
    // spill through the frame, seal, write the swap window + slot
    R"(
func @swap_out(2) {
entry:
  %2 = call @sva_ghost_read(%0)
  %3 = alloca 8
  store.i64 %3, %2
  %4 = load.i64 %3
  %5 = call @sva_seal(%4)
  %6 = call @k_swap_slot_ptr(%1)
  store.i64 %6, %5
  %7 = call @k_swap_store(%1, %5)
  ret %7
}
)",
    // taint through call-return + arithmetic, HMAC declassifies, and a
    // stat sink fed a clean value while taint is live in registers
    R"(
func @fetch(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  ret %1
}

func @report(2) {
entry:
  %2 = call @fetch(%0)
  %3 = add %2, %1
  %4 = call @sva_hmac(%3)
  %5 = call @k_disk_write(%1, %4)
  %6 = call @k_stat_add(%1)
  ret %5
}
)",
    // a ghost pointer walked with arithmetic; the sandbox mask (or the
    // explicit source rule under native) covers the load either way
    R"(
func @reader(1) {
entry:
  %1 = call @sva_ghost_ptr()
  %2 = add %1, %0
  %3 = load.i64 %2
  %4 = call @sva_seal(%3)
  %5 = call @klog(%4)
  ret %5
}
)",
    // two ghost values, one sealed to the NIC and one HMACed to disk,
    // with the seal output spilled and reloaded on the way, and a stat
    // sink fed a clean value while both raw values are live
    R"(
func @mirror(2) {
entry:
  %2 = call @sva_ghost_read(%0)
  %3 = call @sva_ghost_read(%1)
  %4 = call @sva_seal(%2)
  %5 = alloca 8
  store.i64 %5, %4
  %6 = load.i64 %5
  %7 = call @k_nic_tx(%6)
  %8 = call @sva_hmac(%3)
  %9 = call @k_disk_write(%1, %8)
  %10 = call @k_stat_add(%1)
  %11 = add %7, %9
  ret %11
}
)",
    // a loop that seals each ghost word before logging and swapping
    // it, bumping a stat counter with the clean loop index
    R"(
func @drain(2) {
entry:
  %2 = const 0
  br head
head:
  %3 = icmp ult %2, %1
  condbr %3, body, done
body:
  %4 = add %0, %2
  %5 = call @sva_ghost_read(%4)
  %6 = call @sva_seal(%5)
  %7 = call @klog(%6)
  %8 = call @k_swap_slot_ptr(%2)
  store.i64 %8, %6
  %9 = call @k_stat_add(%2)
  %10 = const 1
  %2 = add %2, %10
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

/** Translate under @p cfg with both verifier gates disabled, so the
 *  sweeps can inject leaks and verify explicitly. */
std::shared_ptr<const MachineImage>
compileUngated(const char *text, sim::VgConfig cfg)
{
    cfg.verifyMcode = false;
    cfg.verifyIflow = false;
    sim::SimContext ctx(cfg);
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(text, kCodeBase);
    EXPECT_TRUE(tr.ok) << tr.error;
    return tr.image;
}

bool
hasRule(const IflowResult &res, IfRule rule)
{
    return std::any_of(res.findings.begin(), res.findings.end(),
                       [&](const IflowFinding &f) {
                           return f.rule == rule;
                       });
}

const std::vector<Miscompile> kIflowKinds = {
    Miscompile::IflowDropSeal,
    Miscompile::IflowRawStore,
    Miscompile::IflowStatLeak,
};

} // namespace

// ---------------------------------------------------------------------
// Acceptance sweep
// ---------------------------------------------------------------------

TEST(IflowVerifySweep, CleanCorpusHasZeroFindingsUnderAllConfigs)
{
    for (const NamedConfig &nc : allConfigs()) {
        for (const char *text : kGhostCorpus) {
            sim::SimContext ctx(nc.cfg);
            Translator translator(kKey, ctx);
            auto tr = translator.translateText(text, kCodeBase);
            ASSERT_TRUE(tr.ok)
                << "config " << nc.name << ": " << tr.error;
            EXPECT_EQ(tr.iflow.findings.size(), 0u) << nc.name;
            EXPECT_GT(tr.iflow.functionsChecked, 0u) << nc.name;
            IflowVerifier verifier;
            auto res = verifier.verify(*tr.image);
            EXPECT_TRUE(res.ok()) << "config " << nc.name << ":\n"
                                  << res.message();
            EXPECT_EQ(res.instsChecked, tr.image->code.size());
        }
    }
}

TEST(IflowVerifySweep, EveryInjectedLeakIsDetected)
{
    // Every iflow kind, every site, every module: 100% detection by
    // the IflowVerifier — while the McodeVerifier stays green on the
    // very same injected images (the leak kinds are sandbox- and
    // CFI-preserving by design).
    IflowVerifier verifier;
    McodeVerifier mverifier{McodePolicy{}};
    size_t injected = 0;
    std::map<Miscompile, size_t> perKind;

    for (const char *text : kGhostCorpus) {
        auto image = compileUngated(text, sim::VgConfig::full());
        ASSERT_TRUE(image);
        for (Miscompile kind : kIflowKinds) {
            size_t sites = miscompileSites(*image, kind).size();
            for (size_t s = 0; s < sites; s++) {
                MachineImage bad = *image;
                ASSERT_TRUE(injectMiscompile(bad, kind, s));
                auto res = verifier.verify(bad);
                EXPECT_FALSE(res.ok())
                    << miscompileName(kind) << " site " << s
                    << " went undetected on:\n"
                    << text;
                auto mres = mverifier.verify(bad);
                EXPECT_TRUE(mres.ok())
                    << miscompileName(kind) << " site " << s
                    << " should be invisible to mverify:\n"
                    << mres.message();
                injected++;
                perKind[kind]++;
            }
        }
    }
    for (Miscompile kind : kIflowKinds)
        EXPECT_GT(perKind[kind], 0u)
            << "no sites for " << miscompileName(kind);
    EXPECT_EQ(injected, 11u);
}

// ---------------------------------------------------------------------
// The five rules, individually
// ---------------------------------------------------------------------

TEST(IflowRules, DirectLeakToSink)
{
    auto image = compileUngated(R"(
func @leak(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  %2 = call @k_nic_tx(%1)
  ret %2
}
)",
                                sim::VgConfig::full());
    ASSERT_TRUE(image);
    auto res = IflowVerifier{}.verify(*image);
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, IfRule::DirectLeak)) << res.message();
}

TEST(IflowRules, LeakViaSpilledTemp)
{
    auto image = compileUngated(R"(
func @spill(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  %2 = alloca 8
  store.i64 %2, %1
  %3 = load.i64 %2
  %4 = call @klog(%3)
  ret %4
}
)",
                                sim::VgConfig::full());
    ASSERT_TRUE(image);
    auto res = IflowVerifier{}.verify(*image);
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, IfRule::SpillLeak)) << res.message();
}

TEST(IflowRules, LeakThroughCallReturn)
{
    auto image = compileUngated(R"(
func @helper(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  ret %1
}

func @caller(1) {
entry:
  %1 = call @helper(%0)
  %2 = call @k_disk_write(%0, %1)
  ret %2
}
)",
                                sim::VgConfig::full());
    ASSERT_TRUE(image);
    auto res = IflowVerifier{}.verify(*image);
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, IfRule::CallLeak)) << res.message();
}

TEST(IflowRules, UnsealedSwapWrite)
{
    auto image = compileUngated(R"(
func @swapper(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  %2 = call @k_swap_store(%0, %1)
  ret %2
}
)",
                                sim::VgConfig::full());
    ASSERT_TRUE(image);
    auto res = IflowVerifier{}.verify(*image);
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, IfRule::UnsealedSwap)) << res.message();
}

TEST(IflowRules, TaintLaunderedThroughArithmetic)
{
    auto image = compileUngated(R"(
func @launder(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  %2 = const 0x5a5a5a5a
  %3 = xor %1, %2
  %4 = call @k_nic_tx(%3)
  ret %4
}
)",
                                sim::VgConfig::full());
    ASSERT_TRUE(image);
    auto res = IflowVerifier{}.verify(*image);
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, IfRule::ArithLeak)) << res.message();
}

TEST(IflowRules, UnknownExternsAreSinksByDefault)
{
    auto image = compileUngated(R"(
func @mystery_call(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  %2 = call @some_unannotated_entry(%1)
  ret %2
}
)",
                                sim::VgConfig::full());
    ASSERT_TRUE(image);
    auto res = IflowVerifier{}.verify(*image);
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.message().find("some_unannotated_entry"),
              std::string::npos)
        << res.message();
}

TEST(IflowRules, MaskedGhostLoadIsNotASource)
{
    // A load of a ghost-range constant: under the sandbox the mask
    // relocates the address out of the ghost half before the load, so
    // the loaded value is NOT ghost data (this is exactly the VG-SB
    // guarantee; iflow composes with it instead of double-reporting).
    // Under native the same module really does read ghost memory and
    // leaks it.
    const char *text = R"(
func @peek(0) {
entry:
  %0 = const 0xffffff0000001000
  %1 = load.i64 %0
  %2 = call @klog(%1)
  ret %2
}
)";
    auto sandboxed = compileUngated(text, sim::VgConfig::full());
    ASSERT_TRUE(sandboxed);
    EXPECT_TRUE(IflowVerifier{}.verify(*sandboxed).ok());

    auto native = compileUngated(text, sim::VgConfig::native());
    ASSERT_TRUE(native);
    auto res = IflowVerifier{}.verify(*native);
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(hasRule(res, IfRule::DirectLeak)) << res.message();
}

// ---------------------------------------------------------------------
// mverify / iflow interaction: the two verifiers prove disjoint
// properties
// ---------------------------------------------------------------------

TEST(IflowInteraction, LeakyImagePassesMverifyButFailsIflow)
{
    auto image = compileUngated(R"(
func @leaky(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  %2 = call @k_nic_tx(%1)
  ret %2
}
)",
                                sim::VgConfig::full());
    ASSERT_TRUE(image);
    EXPECT_TRUE(McodeVerifier{McodePolicy{}}.verify(*image).ok());
    EXPECT_FALSE(IflowVerifier{}.verify(*image).ok());
}

TEST(IflowInteraction, UnmaskedImagePassesIflowButFailsMverify)
{
    // Dropping a sandbox mask breaks VG-SB but moves no ghost data:
    // iflow stays green, mverify goes red — the mirror image of the
    // test above.
    auto image = compileUngated(kGhostCorpus[1],
                                sim::VgConfig::full());
    ASSERT_TRUE(image);
    MachineImage bad = *image;
    ASSERT_GT(miscompileSites(bad, Miscompile::DropMask).size(), 0u);
    ASSERT_TRUE(injectMiscompile(bad, Miscompile::DropMask, 0));
    EXPECT_FALSE(McodeVerifier{McodePolicy{}}.verify(bad).ok());
    EXPECT_TRUE(IflowVerifier{}.verify(bad).ok());
}

// ---------------------------------------------------------------------
// Gating
// ---------------------------------------------------------------------

TEST(IflowGate, TranslatorRefusesAndNeverCachesLeakyModules)
{
    const char *leaky = R"(
func @leak(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  %2 = call @k_nic_tx(%1)
  ret %2
}
)";
    sim::SimContext ctx;
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(leaky, kCodeBase);
    EXPECT_FALSE(tr.ok);
    EXPECT_NE(tr.error.find("iflow verifier rejected"),
              std::string::npos)
        << tr.error;
    EXPECT_NE(tr.error.find("VG-IF-01"), std::string::npos)
        << tr.error;
    EXPECT_EQ(ctx.stats().get("translator.iflow_rejected"), 1u);
    EXPECT_GE(ctx.stats().get("iflow.findings"), 1u);

    // The refusal must not be cached either: a clean module still
    // translates, and retrying the leaky one refuses again rather
    // than serving anything from cache.
    auto again = translator.translateText(leaky, kCodeBase);
    EXPECT_FALSE(again.ok);
    EXPECT_FALSE(again.fromCache);
    auto ok = translator.translateText(kGhostCorpus[0], kCodeBase);
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(ok.iflow.findings.size(), 0u);
}

TEST(IflowGate, KernelModuleLoadRefusesLeakyModules)
{
    kern::System sys;
    sys.boot();

    const char *leaky = R"(
func @exfiltrate(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  %2 = call @k_stat_add(%1)
  ret %2
}
)";
    std::string err;
    EXPECT_FALSE(sys.kernel().loadModule("evil", leaky, &err));
    EXPECT_NE(err.find("iflow verifier rejected"), std::string::npos)
        << err;
    EXPECT_NE(err.find("VG-IF-"), std::string::npos) << err;
    EXPECT_EQ(sys.ctx().stats().get("kernel.modules_loaded"), 0u);

    // A sealed version of the same flow loads AND runs against the
    // kernel's implementations of the intrinsic surface.
    EXPECT_TRUE(
        sys.kernel().loadModule("beacon", kGhostCorpus[0], &err))
        << err;
    EXPECT_EQ(sys.ctx().stats().get("kernel.modules_loaded"), 1u);
    auto r = sys.kernel().callModuleFunction("beacon", "beacon", {7});
    EXPECT_TRUE(r.ok) << r.detail;
    EXPECT_GE(sys.ctx().stats().get("kernel.module_ghost_reads"), 1u);
    EXPECT_GE(sys.ctx().stats().get("kernel.module_seals"), 1u);
    EXPECT_GE(sys.ctx().stats().get("kernel.module_nic_tx_words"),
              1u);
}

TEST(IflowGate, VerifyIflowKnobDisablesTheGate)
{
    const char *leaky = R"(
func @leak(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  %2 = call @k_nic_tx(%1)
  ret %2
}
)";
    sim::VgConfig cfg = sim::VgConfig::full();
    cfg.verifyIflow = false;
    sim::SimContext ctx(cfg);
    Translator translator(kKey, ctx);

    // With the knob off the leaky image sails through (the mcode gate
    // stays on — the module is sandbox/CFI clean)...
    auto tr = translator.translateText(leaky, kCodeBase);
    ASSERT_TRUE(tr.ok) << tr.error;
    EXPECT_EQ(ctx.stats().get("iflow.functions"), 0u);

    // ...and an explicit verification shows what the gate would have
    // caught.
    auto res = IflowVerifier{}.verify(*tr.image);
    EXPECT_TRUE(hasRule(res, IfRule::DirectLeak)) << res.message();
}

TEST(IflowGate, StatsRecordVerificationWork)
{
    sim::SimContext ctx;
    Translator translator(kKey, ctx);
    auto tr = translator.translateText(kGhostCorpus[2], kCodeBase);
    ASSERT_TRUE(tr.ok) << tr.error;
    EXPECT_EQ(ctx.stats().get("iflow.functions"), 2u);
    EXPECT_EQ(ctx.stats().get("iflow.insts"), tr.image->code.size());
    EXPECT_EQ(ctx.stats().get("iflow.findings"), 0u);
    // wall_ns is timing-dependent; it only has to exist as a counter.
    EXPECT_EQ(ctx.stats().all().count("iflow.wall_ns"), 1u);

    // Cache hits skip re-verification: counters must not move.
    uint64_t fns = ctx.stats().get("iflow.functions");
    auto again = translator.translateText(kGhostCorpus[2], kCodeBase);
    ASSERT_TRUE(again.ok);
    EXPECT_TRUE(again.fromCache);
    EXPECT_EQ(ctx.stats().get("iflow.functions"), fns);
}

// ---------------------------------------------------------------------
// Facts export (what the injection harness builds on)
// ---------------------------------------------------------------------

TEST(IflowFactsExport, TaintAndVisibleStoresAreExposed)
{
    auto image = compileUngated(kGhostCorpus[1],
                                sim::VgConfig::full());
    ASSERT_TRUE(image);
    IflowFacts facts;
    auto res = IflowVerifier{}.verify(*image, &facts);
    EXPECT_TRUE(res.ok()) << res.message();
    ASSERT_EQ(facts.taintedRegsAt.size(), image->code.size());
    ASSERT_EQ(facts.visibleStoreAt.size(), image->code.size());

    // The ghost read's result must show up tainted somewhere, and the
    // sealed store into the swap window must be flagged OS-visible.
    bool anyTaint = false;
    for (const auto &regs : facts.taintedRegsAt)
        anyTaint |= !regs.empty();
    EXPECT_TRUE(anyTaint);
    bool anyVisibleStore = false;
    for (size_t i = 0; i < image->code.size(); i++)
        if (image->code[i].op == MOp::Store &&
            facts.visibleStoreAt[i])
            anyVisibleStore = true;
    EXPECT_TRUE(anyVisibleStore);
}
