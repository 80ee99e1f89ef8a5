/**
 * @file
 * Property-based sweeps over the security invariants:
 *
 *  - the sandboxing pass makes it impossible for compiled kernel code
 *    to touch ghost or SVA-internal memory, for *any* address;
 *  - CFI makes every computed jump land on a label or die;
 *  - no sequence of MMU intrinsic calls can map a ghost frame or a
 *    ghost virtual address for the OS;
 *  - the filesystem agrees with an in-memory reference model under
 *    random operation sequences.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

#include "compiler/exec.hh"
#include "compiler/translator.hh"
#include "crypto/drbg.hh"
#include "hw/layout.hh"
#include "kernel/fs.hh"
#include "sva/vm.hh"
#include "vir/builder.hh"
#include "vir/text.hh"
#include "vir/verifier.hh"

using namespace vg;
using namespace vg::cc;

namespace
{

/** Recording memory port: remembers every address it was asked to
 *  touch and never faults. */
class RecordingPort : public MemPort
{
  public:
    bool
    read(uint64_t va, unsigned, uint64_t &out) override
    {
        touched.push_back(va);
        out = 0;
        return true;
    }

    bool
    write(uint64_t va, unsigned, uint64_t) override
    {
        touched.push_back(va);
        return true;
    }

    bool
    copy(uint64_t dst, uint64_t src, uint64_t len) override
    {
        touched.push_back(dst);
        touched.push_back(src);
        if (len > 0) {
            touched.push_back(dst + len - 1);
            touched.push_back(src + len - 1);
        }
        return true;
    }

    std::vector<uint64_t> touched;
};

constexpr uint64_t kCodeBase = 0xffffff9000000000ull;
constexpr uint64_t kStackBase = 0xffffffa000000000ull;

} // namespace

/** Sweep: instrumented loads/stores/memcpys with arbitrary addresses
 *  never reach protected ranges. */
class SandboxSweep : public ::testing::TestWithParam<int>
{};

TEST_P(SandboxSweep, NoInstrumentedAccessReachesProtectedMemory)
{
    crypto::CtrDrbg rng({uint8_t(GetParam()), 's', 'w'});
    sim::SimContext ctx(sim::VgConfig::full());
    Translator tr(std::vector<uint8_t>(32, 9), ctx);
    auto t = tr.translateText(R"(
func @probe(2) {
entry:
  %2 = load.i64 %0
  store.i64 %0, %2
  %3 = const 32
  memcpy %1, %0, %3
  %4 = load.i8 %1
  ret %4
}
)",
                              kCodeBase);
    ASSERT_TRUE(t.ok) << t.error;

    RecordingPort port;
    ExternTable externs;
    Executor exec(*t.image, port, externs, ctx, kStackBase, 1 << 20);

    for (int i = 0; i < 60; i++) {
        uint64_t a = rng.next64();
        uint64_t b = rng.next64();
        // Bias half the samples into the interesting ranges.
        if (i % 4 == 1)
            a = hw::ghostBase + (a % (hw::ghostEnd - hw::ghostBase));
        if (i % 4 == 2)
            a = hw::svaBase + (a % (hw::svaEnd - hw::svaBase));
        if (i % 4 == 3)
            b = hw::ghostBase + (b % (hw::ghostEnd - hw::ghostBase));

        port.touched.clear();
        auto r = exec.call("probe", {a, b});
        // Faults are fine (address 0); leaks are not.
        (void)r;
        for (uint64_t va : port.touched) {
            EXPECT_FALSE(hw::isGhostAddr(va))
                << "ghost leak via " << std::hex << a << "/" << b;
            EXPECT_FALSE(hw::isSvaAddr(va))
                << "sva leak via " << std::hex << a << "/" << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SandboxSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

/** Sweep: computed control transfers either hit the function entry
 *  label or die with a CFI violation — never execute mid-function. */
class CfiSweep : public ::testing::TestWithParam<int>
{};

TEST_P(CfiSweep, IndirectCallsLandOnLabelsOrDie)
{
    crypto::CtrDrbg rng({uint8_t(GetParam()), 'c', 'f'});
    sim::SimContext ctx(sim::VgConfig::full());
    Translator tr(std::vector<uint8_t>(32, 9), ctx);
    auto t = tr.translateText(R"(
func @victim(1) {
entry:
  %1 = const 77
  ret %1
}

func @trampoline(1) {
entry:
  %1 = callind %0()
  ret %1
}
)",
                              kCodeBase);
    ASSERT_TRUE(t.ok) << t.error;

    RecordingPort port;
    ExternTable externs;
    Executor exec(*t.image, port, externs, ctx, kStackBase, 1 << 20);

    uint64_t entry = t.image->functions.at("victim").entryAddr;
    for (int i = 0; i < 80; i++) {
        uint64_t target = rng.nextBounded(2) == 0
                              ? kCodeBase + rng.nextBounded(
                                                t.image->code.size() *
                                                mInstBytes)
                              : rng.next64();
        auto r = exec.call("trampoline", {target});
        // The masked target equal to the victim's entry is the only
        // way to succeed.
        if (r.ok) {
            EXPECT_EQ(target | hw::kernelBase, entry);
            EXPECT_EQ(r.value, 77u);
        } else {
            EXPECT_TRUE(r.fault == ExecFault::CfiViolation ||
                        r.fault == ExecFault::BadCallTarget ||
                        r.fault == ExecFault::FuelExhausted)
                << faultName(r.fault);
        }
    }
    // And the legitimate target does work.
    auto ok = exec.call("trampoline", {entry});
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.value, 77u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfiSweep, ::testing::Values(1, 2, 3));

/** Sweep: random MMU intrinsic call sequences never yield a mapping
 *  of a ghost frame or at a ghost VA. */
class MmuSweep : public ::testing::TestWithParam<int>
{};

TEST_P(MmuSweep, GhostStaysUnmapped)
{
    crypto::CtrDrbg rng({uint8_t(GetParam()), 'm', 'u'});
    sim::SimContext ctx(sim::VgConfig::full());
    hw::PhysMem mem(512);
    hw::Mmu mmu(mem, ctx);
    hw::Iommu iommu(mem, ctx);
    hw::Tpm tpm({'m', 's'});
    sva::SvaVm vm(ctx, mem, mmu, iommu, tpm);
    vm.install(384);
    vm.boot();

    std::deque<hw::Frame> free_frames;
    for (hw::Frame f = 64; f < 512; f++)
        free_frames.push_back(f);
    vm.setFrameProvider([&]() -> std::optional<hw::Frame> {
        if (free_frames.empty())
            return std::nullopt;
        hw::Frame f = free_frames.front();
        free_frames.pop_front();
        return f;
    });
    vm.setFrameReceiver([&](hw::Frame f) { free_frames.push_back(f); });

    sva::SvaError err;
    ASSERT_TRUE(vm.declarePtPage(0, 4, &err));
    // A ghost allocation to have real ghost frames in play.
    ASSERT_TRUE(vm.allocGhostMemory(1, 0, hw::ghostBase, 4, &err));

    // Random OS-side intrinsic storm.
    for (int i = 0; i < 400; i++) {
        uint64_t dice = rng.nextBounded(6);
        hw::Frame frame = rng.nextBounded(512);
        hw::Vaddr va = rng.nextBounded(2) == 0
                           ? rng.nextBounded(1ull << 47)
                           : hw::ghostBase +
                                 rng.nextBounded(1ull << 30) * 4096;
        va &= ~(hw::pageSize - 1);
        switch (dice) {
          case 0:
            vm.declarePtPage(frame, int(rng.nextBounded(4)) + 1, &err);
            break;
          case 1:
            vm.installTable(rng.nextBounded(512), 4, va, frame, &err);
            break;
          case 2:
            vm.mapPage(0, va, frame, rng.nextBounded(2) == 0, true,
                       true, &err);
            break;
          case 3:
            vm.unmapPage(0, va, &err);
            break;
          case 4:
            vm.protectPage(0, va, true, false, &err);
            break;
          default:
            vm.undeclarePtPage(frame, &err);
            break;
        }
    }

    // Invariant 1: every ghost frame still has exactly its one ghost
    // mapping and kept its type.
    uint64_t ghost_frames = vm.frames().count(sva::FrameType::Ghost);
    EXPECT_EQ(ghost_frames, 4u);

    // Invariant 2: walking any ghost VA yields either nothing or a
    // Ghost-typed frame (the VM's own mapping) — never an OS mapping
    // of a non-ghost frame and never an OS-writable alias elsewhere.
    for (uint64_t off = 0; off < 64; off++) {
        hw::Vaddr va = hw::ghostBase + off * hw::pageSize;
        auto pte = mmu.probe(va);
        if (pte.has_value()) {
            hw::Frame f = hw::pte::frameNum(*pte);
            EXPECT_EQ(vm.frames()[f].type, sva::FrameType::Ghost);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmuSweep, ::testing::Values(7, 8, 9));

/** Random fs operation sequences vs an in-memory reference model. */
class FsModelSweep : public ::testing::TestWithParam<int>
{};

TEST_P(FsModelSweep, MatchesReferenceModel)
{
    crypto::CtrDrbg rng({uint8_t(GetParam()), 'f', 's'});
    sim::SimContext ctx;
    hw::PhysMem mem(16);
    hw::Iommu iommu(mem, ctx);
    hw::Disk disk(4096, iommu, ctx);
    kern::BufferCache cache(disk, ctx, 64); // small: force evictions
    kern::Fs fs(cache, ctx, 4096);
    fs.mkfs();

    std::map<std::string, std::vector<uint8_t>> model;

    for (int op = 0; op < 500; op++) {
        std::string name = "/f" + std::to_string(rng.nextBounded(12));
        switch (rng.nextBounded(5)) {
          case 0: { // create
            kern::Ino ino = 0;
            kern::FsStatus s = fs.create(name, ino);
            if (model.count(name))
                EXPECT_EQ(s, kern::FsStatus::Exists);
            else {
                EXPECT_EQ(s, kern::FsStatus::Ok);
                model[name] = {};
            }
            break;
          }
          case 1: { // unlink
            kern::FsStatus s = fs.unlink(name);
            if (model.count(name)) {
                EXPECT_EQ(s, kern::FsStatus::Ok);
                model.erase(name);
            } else {
                EXPECT_EQ(s, kern::FsStatus::NotFound);
            }
            break;
          }
          case 2: { // write at random offset
            if (!model.count(name))
                break;
            kern::Ino ino = 0;
            ASSERT_EQ(fs.lookup(name, ino), kern::FsStatus::Ok);
            uint64_t off = rng.nextBounded(20000);
            uint64_t len = rng.nextBounded(3000) + 1;
            std::vector<uint8_t> data(len);
            rng.generate(data.data(), len);
            ASSERT_EQ(fs.write(ino, off, data.data(), len),
                      int64_t(len));
            auto &ref = model[name];
            if (ref.size() < off + len)
                ref.resize(off + len, 0);
            std::copy(data.begin(), data.end(), ref.begin() + long(off));
            break;
          }
          case 3: { // read at random offset
            if (!model.count(name))
                break;
            kern::Ino ino = 0;
            ASSERT_EQ(fs.lookup(name, ino), kern::FsStatus::Ok);
            uint64_t off = rng.nextBounded(24000);
            uint64_t len = rng.nextBounded(4000) + 1;
            std::vector<uint8_t> got(len, 0xEE);
            int64_t n = fs.read(ino, off, got.data(), len);
            const auto &ref = model[name];
            int64_t expect =
                off >= ref.size()
                    ? 0
                    : int64_t(std::min<uint64_t>(len,
                                                 ref.size() - off));
            ASSERT_EQ(n, expect);
            for (int64_t i = 0; i < n; i++)
                ASSERT_EQ(got[size_t(i)], ref[size_t(off) + size_t(i)])
                    << name << " off=" << off + uint64_t(i);
            break;
          }
          default: { // stat
            kern::FileStat st;
            kern::Ino ino = 0;
            if (fs.lookup(name, ino) == kern::FsStatus::Ok) {
                ASSERT_EQ(fs.stat(ino, st), kern::FsStatus::Ok);
                EXPECT_EQ(st.size, model[name].size());
            } else {
                EXPECT_FALSE(model.count(name));
            }
            break;
          }
        }
    }

    // Final directory listing matches the model.
    std::vector<std::string> names;
    kern::Ino root = 1;
    fs.readdir(root, names);
    EXPECT_EQ(names.size(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsModelSweep,
                         ::testing::Values(11, 22, 33, 44));

// --------------------------------------------------------------------
// Differential execution: instrumentation preserves semantics
// --------------------------------------------------------------------

namespace
{

/** Generate a random straight-line arithmetic function using the
 *  builder (no memory ops, so native and instrumented runs must agree
 *  bit-for-bit). */
vir::Module
randomArithModule(crypto::CtrDrbg &rng, int n_insts)
{
    vir::Module mod;
    mod.name = "randarith";
    vir::IrBuilder b(mod);
    b.beginFunction("f", 2);
    int entry = b.makeBlock("entry");
    b.setInsertPoint(entry);

    std::vector<int> live = {0, 1};
    static const vir::Opcode ops[] = {
        vir::Opcode::Add,  vir::Opcode::Sub,  vir::Opcode::Mul,
        vir::Opcode::And,  vir::Opcode::Or,   vir::Opcode::Xor,
        vir::Opcode::Shl,  vir::Opcode::LShr, vir::Opcode::AShr,
    };
    for (int i = 0; i < n_insts; i++) {
        if (rng.nextBounded(5) == 0) {
            live.push_back(b.constI(rng.next64()));
            continue;
        }
        int a = live[rng.nextBounded(live.size())];
        int c = live[rng.nextBounded(live.size())];
        vir::Opcode op = ops[rng.nextBounded(std::size(ops))];
        live.push_back(b.binop(op, a, c));
    }
    b.ret(live.back());
    return mod;
}

} // namespace

class DifferentialSweep : public ::testing::TestWithParam<int>
{};

TEST_P(DifferentialSweep, InstrumentationPreservesSemantics)
{
    crypto::CtrDrbg rng({uint8_t(GetParam()), 'd', 'f'});
    for (int round = 0; round < 10; round++) {
        vir::Module mod =
            randomArithModule(rng, int(rng.nextBounded(40)) + 5);
        ASSERT_TRUE(vir::verify(mod).ok());

        // Text roundtrip is also semantics-preserving.
        auto parsed = vir::parse(vir::print(mod));
        ASSERT_TRUE(parsed.ok) << parsed.error;

        uint64_t x = rng.next64(), y = rng.next64();
        uint64_t results[2];
        int idx = 0;
        for (auto cfg :
             {sim::VgConfig::native(), sim::VgConfig::full()}) {
            sim::SimContext ctx(cfg);
            Translator tr(std::vector<uint8_t>(32, 1), ctx);
            vir::ParseResult copy = vir::parse(vir::print(mod));
            auto t = tr.translateModule(std::move(copy.module),
                                        kCodeBase);
            ASSERT_TRUE(t.ok) << t.error;
            RecordingPort port;
            ExternTable externs;
            Executor exec(*t.image, port, externs, ctx, kStackBase,
                          1 << 20);
            auto r = exec.call("f", {x, y});
            ASSERT_TRUE(r.ok) << r.detail;
            results[idx++] = r.value;
        }
        EXPECT_EQ(results[0], results[1])
            << "instrumented execution diverged";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSweep,
                         ::testing::Values(10, 20, 30, 40));

// --------------------------------------------------------------------
// Fused vs unfused sandbox masking: byte-identical semantics
// --------------------------------------------------------------------

namespace
{

/** Recording port that faults on the null page, so SVA-internal
 *  accesses (rewritten to address 0) produce observable MemFaults. */
class NullFaultPort : public MemPort
{
  public:
    bool
    read(uint64_t va, unsigned, uint64_t &out) override
    {
        touched.push_back(va);
        out = va * 0x9e3779b97f4a7c15ull; // address-derived value
        return va >= hw::pageSize;
    }

    bool
    write(uint64_t va, unsigned, uint64_t) override
    {
        touched.push_back(va);
        return va >= hw::pageSize;
    }

    bool
    copy(uint64_t dst, uint64_t src, uint64_t) override
    {
        touched.push_back(dst);
        touched.push_back(src);
        return dst >= hw::pageSize && src >= hw::pageSize;
    }

    std::vector<uint64_t> touched;
};

/** Test-side reference image: the translator's pipeline without
 *  fuseSandboxPass (sandboxPass -> lowerFunction -> cfiPass ->
 *  layoutImage), so every mask stays the 13-instruction sequence
 *  sandboxPass emits. Unverified and unsigned: only run directly. */
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

} // namespace

/** Sweep: the fused SandboxAddr machine op and the 13-instruction
 *  masking sequence sandboxPass emits produce identical final
 *  addresses, identical fault behavior, identical instruction counts
 *  and identical simulated cycles for every address class. */
class FusionSweep : public ::testing::TestWithParam<int>
{};

TEST_P(FusionSweep, FusedAndUnfusedMaskingAgree)
{
    crypto::CtrDrbg rng({uint8_t(GetParam()), 'f', 'u'});
    const char *src = R"(
func @probe(2) {
entry:
  %2 = load.i64 %0
  store.i64 %0, %2
  %3 = const 24
  memcpy %1, %0, %3
  %4 = load.i8 %1
  ret %4
}
)";

    sim::SimContext fctx(sim::VgConfig::full());
    sim::SimContext uctx(sim::VgConfig::full());
    Translator ftr(std::vector<uint8_t>(32, 9), fctx);
    auto ft = ftr.translateText(src, kCodeBase);
    ASSERT_TRUE(ft.ok) << ft.error;
    const MachineImage unfused = unfusedImage(src);

    // Fusion actually happened: 5 masked operands (load, store,
    // memcpy dst+src, load), 12 insts saved each.
    EXPECT_EQ(ft.fuseStats.sitesInstrumented, 5u);
    EXPECT_EQ(ft.image->code.size() + ft.fuseStats.instsRemoved,
              unfused.code.size());
    EXPECT_EQ(std::count_if(unfused.code.begin(), unfused.code.end(),
                            [](const MInst &m) {
                                return m.op == MOp::SandboxAddr;
                            }),
              0);

    NullFaultPort fport, uport;
    ExternTable externs;
    Executor fexec(*ft.image, fport, externs, fctx, kStackBase, 1 << 20);
    Executor uexec(unfused, uport, externs, uctx, kStackBase, 1 << 20);

    for (int i = 0; i < 120; i++) {
        uint64_t a = rng.next64();
        uint64_t b = rng.next64();
        // Cycle both operands through the address classes: ghost,
        // SVA-internal, kernel, user, the ghost slice whose 2^39 OR
        // lands in SVA memory, and fully random.
        switch (i % 6) {
          case 0:
            a = hw::ghostBase + (a % (hw::ghostEnd - hw::ghostBase));
            break;
          case 1:
            a = hw::svaBase + (a % (hw::svaEnd - hw::svaBase));
            b = hw::svaBase + (b % (hw::svaEnd - hw::svaBase));
            break;
          case 2:
            a = hw::kernelBase + (a % (1ull << 30));
            break;
          case 3:
            a %= hw::userEnd;
            b = hw::ghostBase + (b % (hw::ghostEnd - hw::ghostBase));
            break;
          case 4:
            a = (hw::svaBase & ~hw::sandboxOrMask) +
                (a % (hw::svaEnd - hw::svaBase));
            b = (hw::svaBase & ~hw::sandboxOrMask) +
                (b % (hw::svaEnd - hw::svaBase));
            break;
          default:
            break;
        }

        fport.touched.clear();
        uport.touched.clear();
        sim::Cycles fstart = fctx.clock().now();
        sim::Cycles ustart = uctx.clock().now();
        auto fr = fexec.call("probe", {a, b});
        auto ur = uexec.call("probe", {a, b});

        EXPECT_EQ(fr.ok, ur.ok) << std::hex << a << "/" << b;
        EXPECT_EQ(fr.fault, ur.fault)
            << faultName(fr.fault) << " vs " << faultName(ur.fault)
            << " for " << std::hex << a << "/" << b;
        EXPECT_EQ(fr.value, ur.value) << std::hex << a << "/" << b;
        EXPECT_EQ(fr.instsExecuted, ur.instsExecuted)
            << "fused cost accounting diverged for " << std::hex << a;
        EXPECT_EQ(fctx.clock().now() - fstart,
                  uctx.clock().now() - ustart)
            << "simulated cycles diverged for " << std::hex << a;
        EXPECT_EQ(fport.touched, uport.touched)
            << "final addresses diverged for " << std::hex << a << "/"
            << b;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionSweep,
                         ::testing::Values(3, 14, 15, 92));
