/**
 * @file
 * SMP subsystem tests.
 *
 * Three layers of guarantees:
 *
 *  1. Golden: with vcpus=1 the scheduler's clock, full stat map and
 *     exit codes over mixed workloads match digests recorded from the
 *     retired single-queue loop, which they were proven identical to;
 *     at 2 and 4 vCPUs they match digests that pin the vCPU pick
 *     order and idle balancing.
 *  2. Shootdown safety: under random remap/retype/invlpg storms across
 *     2-4 vCPUs, no vCPU's TLB ever references a freed frame, and
 *     frame retypes are refused while a stale translation survives.
 *  3. Per-CPU SVA state: the liveCpu double-save/load guard, IC
 *     migration across CPUs, the per-CPU keyed Kmem translation cache,
 *     and the per-CPU stat namespaces with exact rollups.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "crypto/drbg.hh"
#include "hw/cpu.hh"
#include "hw/disk.hh"
#include "hw/iommu.hh"
#include "hw/mmu.hh"
#include "hw/phys_mem.hh"
#include "hw/tpm.hh"
#include "kernel/kmem.hh"
#include "kernel/system.hh"
#include "sim/log.hh"
#include "sva/vm.hh"

#include "golden.hh"

using namespace vg;
using namespace vg::kern;

namespace
{

SystemConfig
smpConfig(unsigned vcpus)
{
    SystemConfig cfg;
    cfg.vg = sim::VgConfig::full();
    cfg.vg.vcpus = vcpus;
    cfg.memFrames = 4096;  // 16 MB
    cfg.diskBlocks = 4096; // 16 MB
    cfg.rsaBits = 384;
    return cfg;
}

/** Latest per-CPU clock = the machine's makespan. */
sim::Cycles
makespan(System &sys)
{
    sim::Cycles t = 0;
    for (unsigned c = 0; c < sys.ctx().vcpuCount(); c++)
        t = std::max(t, sys.ctx().clockOf(c).now());
    return t;
}

/**
 * @p groups groups of five processes each for the wide golden case: an
 * echo server and its client, a compute/yield worker, and a forker
 * with its child. Nine groups beside the mixed workload put 50
 * processes on one machine, so run queues grow deep and the idle
 * balancer migrates again and again.
 */
void
spawnWideGroups(Kernel &k, int seed, unsigned groups)
{
    crypto::CtrDrbg rng({uint8_t(seed), 'w', 'i', 'd'});
    for (unsigned g = 0; g < groups; g++) {
        const uint16_t port = uint16_t(3000 + g);
        const uint64_t rounds = 2 + rng.nextBounded(4);
        const uint64_t chunk = 64 + rng.nextBounded(512);
        const uint64_t work = 20000 + rng.nextBounded(80000);
        const uint64_t yields = 3 + rng.nextBounded(8);

        k.spawn("echod", [port, rounds, chunk](UserApi &api) {
            int ls = api.socket();
            api.bind(ls, port);
            api.listen(ls);
            int conn = api.accept(ls);
            if (conn < 0)
                return 1;
            std::vector<char> buf(chunk);
            for (uint64_t r = 0; r < rounds; r++) {
                int64_t n = api.recvHost(conn, buf.data(), buf.size());
                if (n <= 0)
                    break;
                api.sendHost(conn, buf.data(), uint64_t(n));
            }
            api.close(conn);
            api.close(ls);
            return 0;
        });

        k.spawn("echo", [port, rounds, chunk, work](UserApi &api) {
            int fd;
            while ((fd = api.connect(port)) < 0)
                api.yield(); // the server has not reached listen()
            std::vector<char> msg(chunk, 'e');
            for (uint64_t r = 0; r < rounds; r++) {
                api.sendHost(fd, msg.data(), msg.size());
                uint64_t got = 0;
                while (got < chunk) {
                    int64_t n =
                        api.recvHost(fd, msg.data() + got, chunk - got);
                    if (n <= 0)
                        return 2;
                    got += uint64_t(n);
                }
                api.compute(work / 4);
            }
            api.close(fd);
            return 0;
        });

        k.spawn("worker", [work, yields](UserApi &api) {
            for (uint64_t i = 0; i < yields; i++) {
                api.compute(work);
                api.yield();
            }
            return int(yields);
        });

        k.spawn("forker", [work, g](UserApi &api) {
            uint64_t child = api.fork([work, g](UserApi &capi) {
                capi.compute(work);
                return int(g);
            });
            api.yield();
            int status = -1;
            api.waitpid(child, status);
            return status == int(g) ? 0 : 1;
        });
    }
}

/**
 * Mixed workload for the golden sweep: an ssh-like echo session,
 * postmark-style file churn, fork/signal traffic, ghost memory, and
 * compute bursts long enough to draw timer preemptions, plus
 * @p wide_groups groups from spawnWideGroups(). Fully deterministic
 * given @p seed.
 */
void
runMixedWorkload(System &sys, int seed, unsigned wide_groups = 0)
{
    crypto::CtrDrbg rng({uint8_t(seed), 's', 'm', 'p'});
    uint64_t rounds = 4 + rng.nextBounded(4);
    uint64_t chunk = 256 + rng.nextBounded(1024);
    uint64_t files = 6 + rng.nextBounded(6);
    uint64_t fsize = 512 + rng.nextBounded(4096);
    uint64_t burst = 200000 + rng.nextBounded(400000);

    Kernel &k = sys.kernel();

    // ssh-like session: server echoes; client sends/receives in
    // chunks through ghost memory staging.
    k.spawn("sshd", [rounds, chunk](UserApi &api) {
        int ls = api.socket();
        api.bind(ls, 2200);
        api.listen(ls);
        int conn = api.accept(ls);
        if (conn < 0)
            return 1;
        std::vector<char> buf(chunk);
        for (uint64_t r = 0; r < rounds; r++) {
            int64_t n = api.recvHost(conn, buf.data(), buf.size());
            if (n <= 0)
                break;
            api.sendHost(conn, buf.data(), uint64_t(n));
        }
        api.close(conn);
        api.close(ls);
        return 0;
    });

    k.spawn("ssh", [rounds, chunk, burst](UserApi &api) {
        api.yield(); // let the server reach listen()
        int fd = api.connect(2200);
        if (fd < 0)
            return 1;
        hw::Vaddr gva = api.allocGhost(2);
        std::vector<char> msg(chunk, 'c');
        std::vector<char> back(chunk);
        for (uint64_t r = 0; r < rounds; r++) {
            // Stage through ghost memory like the paper's ghosting ssh.
            api.ghostWrite(gva, msg.data(), msg.size());
            api.ghostRead(gva, msg.data(), msg.size());
            api.sendHost(fd, msg.data(), msg.size());
            uint64_t got = 0;
            while (got < chunk) {
                int64_t n = api.recvHost(fd, back.data() + got,
                                         chunk - got);
                if (n <= 0)
                    return 2;
                got += uint64_t(n);
            }
            api.compute(burst / 4);
        }
        api.freeGhost(gva, 2);
        api.close(fd);
        return 0;
    });

    // postmark-style file churn.
    k.spawn("postmark", [files, fsize](UserApi &api) {
        hw::Vaddr buf = api.mmap(2 * fsize + hw::pageSize);
        for (uint64_t i = 0; i < fsize; i += 8)
            api.poke(buf + i, 8, i * 2654435761ull);
        for (uint64_t f = 0; f < files; f++) {
            std::string path = "/pm" + std::to_string(f);
            int fd = api.open(path, true);
            if (fd < 0)
                return 1;
            api.write(fd, buf, fsize);
            api.lseek(fd, 0, 0);
            api.read(fd, buf + fsize, fsize);
            api.close(fd);
            if (f % 2 == 1)
                api.unlink(path);
        }
        return 0;
    });

    // fork/signal/compute traffic (draws timer preemptions).
    k.spawn("churn", [burst](UserApi &api) {
        int got = 0;
        api.installSignalHandler(
            10, [&](int signum) { got = signum; }, true);
        uint64_t self = api.pid();
        uint64_t child = api.fork([self, burst](UserApi &capi) {
            capi.compute(burst);
            capi.kill(self, 10);
            return 7;
        });
        api.compute(burst);
        int status = 0;
        api.waitpid(child, status);
        return status == 7 && got == 10 ? 0 : 1;
    });

    spawnWideGroups(k, seed, wide_groups);
    k.run();

    // Rootkit attempts: hostile kernel reads/writes aimed at the ghost
    // partition deflect through sandbox masking (attack telemetry).
    for (int i = 0; i < 32; i++) {
        uint64_t v = 0;
        k.kmem().kread(hw::ghostBase + rng.nextBounded(64) * 8, 8, v);
        k.kmem().kwrite(hw::ghostBase + rng.nextBounded(64) * 8, 8,
                        0x4141414141414141ull);
    }
}

} // namespace

// --------------------------------------------------------------------
// 1. Golden sweeps at 1, 2 and 4 vCPUs.
// --------------------------------------------------------------------

namespace
{

/** Clock, full stat map and exit codes of a finished machine. */
uint64_t
machineDigest(System &sys)
{
    test::Golden g;
    g.machine(sys.ctx());
    for (const auto &[pid, code] : sys.kernel().exitCodes())
        g.u64(pid).u64(uint64_t(int64_t(code)));
    return g.h;
}

/** Recorded per seed from the single-queue scheduler, which produced
 *  the same digests before it was retired. */
const std::map<int, uint64_t> kSmpGolden = {
    {1, 0x073c750bc7962af2ull},
    {2, 0x117fdb20a86589a4ull},
    {3, 0x9346e861d289bfb0ull},
};

} // namespace

class SmpGoldenSweep : public ::testing::TestWithParam<int>
{};

TEST_P(SmpGoldenSweep, SingleCpuMatchesRecordedDigest)
{
    System sys(smpConfig(1));
    sys.boot();
    runMixedWorkload(sys, GetParam());
    EXPECT_TRUE(
        test::matchesGolden(machineDigest(sys), kSmpGolden.at(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmpGoldenSweep, ::testing::Values(1, 2, 3));

namespace
{

/** The same workload at 2 and 4 vCPUs, keyed by (vcpus, seed):
 *  pins the vCPU pick order, idle balancing and wake stamps. */
const std::map<std::pair<unsigned, int>, uint64_t> kSmpMultiCpuGolden = {
    {{2, 1}, 0xf24a42f8bd132f3dull},
    {{2, 2}, 0x9364e6f4480fc904ull},
    {{2, 3}, 0xa638f2efc16d9b8dull},
    {{4, 1}, 0xe4f626549112a670ull},
    {{4, 2}, 0x9d106fa640a0dc63ull},
    {{4, 3}, 0x175fdbdb462dd829ull},
};

} // namespace

class SmpMultiCpuGoldenSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, int>>
{};

TEST_P(SmpMultiCpuGoldenSweep, MatchesRecordedDigest)
{
    auto [vcpus, seed] = GetParam();
    System sys(smpConfig(vcpus));
    sys.boot();
    runMixedWorkload(sys, seed);
    // Two vCPUs start unbalanced, so the idle balancer is exercised.
    if (vcpus == 2) {
        EXPECT_GT(sys.ctx().stats().get("kernel.migrations"), 0u);
    }
    EXPECT_TRUE(test::matchesGolden(machineDigest(sys),
                                    kSmpMultiCpuGolden.at({vcpus, seed})));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmpMultiCpuGoldenSweep,
                         ::testing::Combine(::testing::Values(2u, 4u),
                                            ::testing::Values(1, 2, 3)));

namespace
{

/** The workload widened to 50 processes (nine wide groups), keyed by
 *  vCPU count: pins pick order and migrations over run queues deeper
 *  than the narrow sweep ever builds. */
constexpr unsigned kWideGroups = 9;
const std::map<unsigned, uint64_t> kSmpWideGolden = {
    {1, 0x6875888687436d77ull},
    {2, 0xfa61f84250451f3aull},
    {4, 0x44e861532577c4e0ull},
};

} // namespace

class SmpWideGoldenSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SmpWideGoldenSweep, FiftyProcessesMatchRecordedDigest)
{
    const unsigned vcpus = GetParam();
    System sys(smpConfig(vcpus));
    sys.boot();
    runMixedWorkload(sys, 1, kWideGroups);
    const auto &codes = sys.kernel().exitCodes();
    EXPECT_EQ(codes.size(), 5 + 5 * kWideGroups);
    if (vcpus > 1) {
        EXPECT_GT(sys.ctx().stats().get("kernel.migrations"), 0u);
    }
    EXPECT_TRUE(test::matchesGolden(machineDigest(sys),
                                    kSmpWideGolden.at(vcpus)));
}

INSTANTIATE_TEST_SUITE_P(Vcpus, SmpWideGoldenSweep,
                         ::testing::Values(1u, 2u, 4u));

/** Single-CPU machines must not grow per-CPU stat namespaces: the
 *  vcpus=1 stat map stays literally what it was before SMP. */
TEST(Smp, NoPerCpuNamespacesAtOneVcpu)
{
    System sys(smpConfig(1));
    sys.boot();
    sys.runProcess("one", [](UserApi &api) {
        hw::Vaddr va = api.mmap(4 * hw::pageSize);
        for (int i = 0; i < 4; i++)
            api.poke(va + uint64_t(i) * hw::pageSize, 8, 1);
        return 0;
    });
    for (const auto &[name, value] : sys.ctx().stats().all())
        EXPECT_TRUE(name.rfind("cpu", 0) != 0)
            << "unexpected per-CPU counter " << name;
}

// --------------------------------------------------------------------
// 2. SMP scaling: independent work spreads across vCPUs.
// --------------------------------------------------------------------

TEST(Smp, ConcurrentComputeScalesAcrossFourVcpus)
{
    auto run = [](unsigned vcpus) {
        System sys(smpConfig(vcpus));
        sys.boot();
        for (int p = 0; p < 4; p++) {
            sys.kernel().spawn("worker" + std::to_string(p),
                               [](UserApi &api) {
                                   for (int i = 0; i < 20; i++) {
                                       api.compute(400000);
                                       api.getpid();
                                   }
                                   return 0;
                               });
        }
        sys.kernel().run();
        return makespan(sys);
    };

    sim::Cycles uni = run(1);
    sim::Cycles quad = run(4);
    // Four independent workers on four CPUs: >= 2x simulated
    // throughput (the paper-style scaling claim; ideal is ~4x).
    EXPECT_LE(2 * quad, uni)
        << "vcpus=4 makespan " << quad << " vs vcpus=1 " << uni;
}

/** Idle balancing: with more processes than CPUs all CPUs end up with
 *  comparable work, and processes migrate deterministically. */
TEST(Smp, IdleBalancingKeepsCpusBusy)
{
    System a(smpConfig(2)), b(smpConfig(2));
    for (System *sys : {&a, &b}) {
        sys->boot();
        for (int p = 0; p < 3; p++) {
            // Uneven lengths force one CPU idle while work remains.
            sys->kernel().spawn(
                sim::strprintf("w%d", p), [p](UserApi &api) {
                    for (int i = 0; i < 6 * (p + 1); i++)
                        api.compute(300000);
                    return 0;
                });
        }
        sys->kernel().run();
    }
    // Deterministic: two identical machines agree on every clock and
    // every counter (including kernel.migrations, if any fired).
    for (unsigned c = 0; c < 2; c++)
        EXPECT_EQ(a.ctx().clockOf(c).now(), b.ctx().clockOf(c).now());
    EXPECT_EQ(a.ctx().stats().all(), b.ctx().stats().all());
    // Both CPUs actually executed something.
    EXPECT_GT(a.ctx().stats().get("cpu0.user.insts"), 0u);
    EXPECT_GT(a.ctx().stats().get("cpu1.user.insts"), 0u);
}

// --------------------------------------------------------------------
// 3. Shootdown property test: random remap/retype/invlpg storms.
// --------------------------------------------------------------------

namespace
{

constexpr hw::Vaddr kUserVa = 0x400000;

/** Multi-vCPU SVA rig (no kernel): intrinsic-built user window plus
 *  enough spare frames for ghost/retype traffic. */
struct SmpRig
{
    sim::SimContext ctx;
    hw::PhysMem mem;
    hw::CpuSet cpus;
    hw::Iommu iommu;
    hw::Tpm tpm;
    sva::SvaVm vm;
    kern::Kmem kmem;
    std::deque<hw::Frame> freeFrames;

    explicit SmpRig(unsigned vcpus)
        : ctx([vcpus] {
              sim::VgConfig cfg = sim::VgConfig::full();
              cfg.vcpus = vcpus;
              return cfg;
          }()),
          mem(512), cpus(mem, ctx), iommu(mem, ctx), tpm({'s', 'm'}),
          vm(ctx, mem, cpus[0].mmu(), iommu, tpm),
          kmem(ctx, mem, cpus[0].mmu(), vm)
    {
        vm.attachCpus(cpus);
        kmem.attachCpus(cpus);
        vm.install(384);
        vm.boot();
        for (hw::Frame f = 64; f < 448; f++)
            freeFrames.push_back(f);
        vm.setFrameProvider([this]() -> std::optional<hw::Frame> {
            if (freeFrames.empty())
                return std::nullopt;
            hw::Frame f = freeFrames.front();
            freeFrames.pop_front();
            return f;
        });
        vm.setFrameReceiver(
            [this](hw::Frame f) { freeFrames.push_back(f); });

        sva::SvaError err;
        EXPECT_TRUE(vm.declarePtPage(0, 4, &err)) << err.message;
        EXPECT_TRUE(vm.declarePtPage(60, 3, &err));
        EXPECT_TRUE(vm.installTable(0, 4, kUserVa, 60, &err));
        EXPECT_TRUE(vm.declarePtPage(61, 2, &err));
        EXPECT_TRUE(vm.installTable(60, 3, kUserVa, 61, &err));
        EXPECT_TRUE(vm.declarePtPage(62, 1, &err));
        EXPECT_TRUE(vm.installTable(61, 2, kUserVa, 62, &err));
        for (unsigned c = 0; c < cpus.count(); c++)
            cpus[c].mmu().setRoot(0);
    }

    /** The storm's core invariant: a freed frame is unreachable
     *  through every vCPU's TLB — nothing can read into it. */
    void
    assertNoStaleFreeTranslations(int op)
    {
        for (hw::Frame f = 1; f < 512; f++) {
            if (vm.frames()[f].type != sva::FrameType::Free)
                continue;
            for (unsigned c = 0; c < cpus.count(); c++)
                ASSERT_FALSE(cpus[c].mmu().tlbReferencesFrame(f))
                    << "op " << op << ": cpu" << c
                    << " TLB still references freed frame " << f;
        }
    }
};

} // namespace

class SmpShootdownStorm : public ::testing::TestWithParam<int>
{};

TEST_P(SmpShootdownStorm, NoCpuReadsThroughStaleTranslations)
{
    crypto::CtrDrbg rng({uint8_t(GetParam()), 's', 'd'});
    unsigned vcpus = 2 + unsigned(GetParam()) % 3; // 2..4
    SmpRig rig(vcpus);
    sva::SvaError err;

    constexpr int npages = 8;
    // Data pages come from the allocator so unmap really frees them.
    std::vector<std::optional<hw::Frame>> mapped(npages);

    for (int op = 0; op < 1200; op++) {
        unsigned cpu = unsigned(rng.nextBounded(vcpus));
        rig.ctx.setActiveCpu(cpu);
        int page = int(rng.nextBounded(npages));
        hw::Vaddr va = kUserVa + uint64_t(page) * hw::pageSize;

        switch (rng.nextBounded(8)) {
          case 0:
          case 1: { // map a fresh frame
            if (mapped[page])
                break;
            hw::Frame f = rig.freeFrames.front();
            rig.freeFrames.pop_front();
            ASSERT_TRUE(rig.vm.mapPage(0, va, f, true, true, true,
                                       &err))
                << "op " << op << ": " << err.message;
            mapped[page] = f;
            break;
          }
          case 2:
          case 3: { // unmap (frees + must shoot down everywhere)
            if (!mapped[page])
                break;
            ASSERT_TRUE(rig.vm.unmapPage(0, va, &err))
                << "op " << op << ": " << err.message;
            rig.freeFrames.push_back(*mapped[page]);
            mapped[page] = std::nullopt;
            break;
          }
          case 4: { // protection change (remote TLBs must drop it)
            if (!mapped[page])
                break;
            ASSERT_TRUE(rig.vm.protectPage(
                0, va, rng.nextBounded(2) == 0, true, &err))
                << "op " << op << ": " << err.message;
            break;
          }
          case 5: { // ghost retype round-trip
            hw::Vaddr gva =
                hw::ghostBase + rng.nextBounded(4) * hw::pageSize;
            if (rig.vm.allocGhostMemory(1, 0, gva, 1, &err)) {
                EXPECT_TRUE(rig.vm.freeGhostMemory(1, 0, gva, 1, &err))
                    << "op " << op << ": " << err.message;
            }
            break;
          }
          case 6: { // local invlpg storm
            rig.cpus[cpu].mmu().invalidatePage(va);
            break;
          }
          default: { // reads: populate this CPU's TLB
            if (!mapped[page])
                break;
            uint64_t v = 0;
            EXPECT_TRUE(rig.kmem.kread(
                va + rng.nextBounded(hw::pageSize / 8) * 8, 8, v));
            break;
          }
        }

        rig.assertNoStaleFreeTranslations(op);
    }

    // The storm must actually have exercised cross-CPU shootdowns.
    EXPECT_GT(rig.ctx.stats().get("sva.remote_invlpgs"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmpShootdownStorm,
                         ::testing::Values(1, 2, 3, 4));

/** Retype backstop: a hand-built stale TLB entry (unreachable through
 *  correct intrinsic sequences) makes the VM refuse Free -> Ghost until
 *  the stale translation is shot down. */
TEST(Smp, RetypeRefusedWhileStaleTlbEntrySurvives)
{
    SmpRig rig(2);
    sva::SvaError err;

    hw::Frame f = rig.freeFrames.front();
    rig.freeFrames.pop_front();
    ASSERT_TRUE(rig.vm.mapPage(0, kUserVa, f, true, true, true, &err));

    // CPU 1 caches the translation.
    rig.ctx.setActiveCpu(1);
    auto r = rig.cpus[1].mmu().translate(kUserVa, hw::Access::Read,
                                         hw::Privilege::User);
    ASSERT_TRUE(r.ok);

    // Hand-corrupt VM state to fake a missed shootdown: clear the PTE
    // and the frame-type entry behind the intrinsics' back, leaving
    // CPU 1's TLB entry stale. (unmapPage would have invalidated it.)
    hw::Paddr slot =
        62 * hw::pageSize + hw::ptIndex(kUserVa, hw::PtLevel::L1) * 8;
    rig.mem.write64(slot, 0);
    rig.vm.frames()[f].mapCount = 0;
    rig.vm.frames()[f].type = sva::FrameType::Free;

    // Retyping the frame to Ghost must be refused from any CPU.
    rig.freeFrames.push_front(f);
    rig.ctx.setActiveCpu(0);
    EXPECT_FALSE(
        rig.vm.allocGhostMemory(1, 0, hw::ghostBase, 1, &err));
    EXPECT_NE(err.message.find("stale TLB"), std::string::npos)
        << err.message;

    // Shooting the stale entry down lifts the refusal.
    rig.cpus[1].mmu().invalidatePage(kUserVa);
    rig.freeFrames.push_front(f);
    EXPECT_TRUE(rig.vm.allocGhostMemory(1, 0, hw::ghostBase, 1, &err))
        << err.message;
}

// --------------------------------------------------------------------
// 4. Per-CPU SVA state: liveCpu guard, IC migration, Kmem cache.
// --------------------------------------------------------------------

/** sva.icontext.save/load refuse to manipulate a thread whose register
 *  state is live in another vCPU's register file (the double-save/load
 *  race); parkRemoteThread clears the hazard. */
TEST(Smp, IcontextSaveLoadRefusedWhileLiveOnOtherCpu)
{
    SmpRig rig(2);
    sva::SvaError err;
    rig.vm.registerKernelEntry(0xffffff8000100000ull);
    sva::SvaThread *t =
        rig.vm.newThread(1, 0xffffff8000100000ull, 0, &err);
    ASSERT_NE(t, nullptr);

    // Thread runs user code on CPU 0.
    rig.ctx.setActiveCpu(0);
    rig.vm.syscallEnter(t->id);
    rig.vm.syscallExit(t->id); // live on cpu0
    EXPECT_EQ(t->liveCpu, 0);

    // Another CPU may not save or load its IC while it is live there.
    rig.ctx.setActiveCpu(1);
    EXPECT_FALSE(rig.vm.icontextSave(t->id, &err));
    EXPECT_NE(err.message.find("live on cpu0"), std::string::npos)
        << err.message;
    EXPECT_FALSE(rig.vm.icontextLoad(t->id, &err));

    // Parking the thread (IPI to cpu0) makes the IC authoritative.
    rig.vm.parkRemoteThread(t->id);
    EXPECT_EQ(t->liveCpu, -1);
    EXPECT_TRUE(rig.vm.icontextSave(t->id, &err)) << err.message;
    EXPECT_TRUE(rig.vm.icontextLoad(t->id, &err)) << err.message;
    EXPECT_GT(rig.ctx.stats().get("sva.remote_parks"), 0u);

    // Double-load race tail: a second load with no matching save is
    // refused (empty per-thread saved-IC stack).
    EXPECT_FALSE(rig.vm.icontextLoad(t->id, &err));
}

/** IC save/restore across involuntary preemption: a thread that traps
 *  on CPU 0 and resumes on CPU 1 sees identical registers, and the
 *  kernel-visible register file is scrubbed in between. */
TEST(Smp, InterruptContextMigratesIntactAcrossCpus)
{
    SmpRig rig(2);
    sva::SvaError err;
    rig.vm.registerKernelEntry(0xffffff8000100000ull);
    sva::SvaThread *t =
        rig.vm.newThread(1, 0xffffff8000100000ull, 0, &err);
    ASSERT_NE(t, nullptr);

    std::array<uint64_t, 16> pattern;
    for (unsigned i = 0; i < pattern.size(); i++)
        pattern[i] = 0x1000 + 7 * i;
    t->ic.regs = pattern;
    t->ic.pc = 0xabcd00;
    t->ic.sp = 0x7fffffff0000ull;

    // Trap into the kernel on CPU 0: the gate saves the IC and scrubs
    // the registers the kernel could observe.
    rig.ctx.setActiveCpu(0);
    rig.cpus[0].regs = pattern; // user state visible pre-trap
    rig.vm.syscallEnter(t->id);
    for (uint64_t r : rig.cpus[0].regs)
        EXPECT_EQ(r, 0u) << "kernel observed unzeroed register";
    EXPECT_EQ(rig.cpus[0].pc, 0u);
    EXPECT_EQ(rig.cpus[0].sp, 0u);

    // The scheduler resumes the thread on CPU 1.
    rig.ctx.setActiveCpu(1);
    rig.vm.noteDispatch(t->id);
    rig.vm.syscallExit(t->id);
    EXPECT_EQ(rig.cpus[1].regs, pattern);
    EXPECT_EQ(rig.cpus[1].pc, 0xabcd00u);
    EXPECT_EQ(rig.cpus[1].sp, 0x7fffffff0000ull);
    EXPECT_EQ(t->liveCpu, 1);
}

/** The per-CPU saved-IC pools are bounded and slots travel home even
 *  when a thread saves on one CPU and loads on another. */
TEST(Smp, SavedIcPoolSlotsReturnToOwningCpu)
{
    SmpRig rig(2);
    sva::SvaError err;
    rig.vm.registerKernelEntry(0xffffff8000100000ull);
    sva::SvaThread *t =
        rig.vm.newThread(1, 0xffffff8000100000ull, 0, &err);
    ASSERT_NE(t, nullptr);

    rig.ctx.setActiveCpu(0);
    ASSERT_TRUE(rig.vm.icontextSave(t->id, &err));
    EXPECT_EQ(rig.vm.vmState(0).savedIcInUse, 1u);
    EXPECT_EQ(rig.vm.vmState(1).savedIcInUse, 0u);

    // Load from the other CPU: the slot returns to CPU 0's pool.
    rig.ctx.setActiveCpu(1);
    ASSERT_TRUE(rig.vm.icontextLoad(t->id, &err));
    EXPECT_EQ(rig.vm.vmState(0).savedIcInUse, 0u);
    EXPECT_EQ(rig.vm.vmState(1).savedIcInUse, 0u);

    // Exhaustion refuses further saves on that CPU only.
    rig.ctx.setActiveCpu(0);
    for (uint64_t i = 0; i < sva::VmState::savedIcPoolSize; i++)
        ASSERT_TRUE(rig.vm.icontextSave(t->id, &err)) << i;
    EXPECT_FALSE(rig.vm.icontextSave(t->id, &err));
    EXPECT_NE(err.message.find("pool exhausted"), std::string::npos);
    rig.ctx.setActiveCpu(1);
    EXPECT_TRUE(rig.vm.icontextSave(t->id, &err)) << err.message;
}

/** Kmem's last-translation cache must die on *remote* shootdowns: a
 *  fill on CPU 0 may not serve a stale ghost translation after CPU 1
 *  remaps the page. */
TEST(Smp, KmemCacheInvalidatedByRemoteShootdown)
{
    SmpRig rig(2);
    sva::SvaError err;

    hw::Frame f1 = rig.freeFrames.front();
    rig.freeFrames.pop_front();
    hw::Frame f2 = rig.freeFrames.front();
    rig.freeFrames.pop_front();
    ASSERT_TRUE(rig.vm.mapPage(0, kUserVa, f1, true, true, true, &err));
    rig.mem.write64(f1 * hw::pageSize, 0x1111);
    rig.mem.write64(f2 * hw::pageSize, 0x2222);

    // CPU 0 fills TLB + Kmem cache.
    rig.ctx.setActiveCpu(0);
    uint64_t v = 0;
    ASSERT_TRUE(rig.kmem.kread(kUserVa, 8, v));
    EXPECT_EQ(v, 0x1111u);
    ASSERT_TRUE(rig.kmem.kread(kUserVa, 8, v)); // cached hit
    uint64_t hits = rig.ctx.stats().get("mmu.tlb_hits");
    EXPECT_GT(hits, 0u);

    // CPU 1 remaps the page: the shootdown reaches CPU 0's TLB and
    // generation counter, so CPU 0's next read walks and sees f2.
    rig.ctx.setActiveCpu(1);
    ASSERT_TRUE(rig.vm.unmapPage(0, kUserVa, &err)) << err.message;
    ASSERT_TRUE(rig.vm.mapPage(0, kUserVa, f2, true, true, true, &err));

    rig.ctx.setActiveCpu(0);
    ASSERT_TRUE(rig.kmem.kread(kUserVa, 8, v));
    EXPECT_EQ(v, 0x2222u) << "stale translation served from cache";

    // The cache is also per-CPU keyed: CPU 1 filling it must not let
    // CPU 0 hit on CPU 1's generation.
    rig.ctx.setActiveCpu(1);
    ASSERT_TRUE(rig.kmem.kread(kUserVa, 8, v));
    rig.ctx.setActiveCpu(0);
    // Drop CPU 0's hardware TLB entry so the only way to skip the walk
    // would be a (wrongly shared) software-cache hit.
    rig.cpus[0].mmu().invalidatePage(kUserVa);
    uint64_t misses_before = rig.ctx.stats().get("mmu.tlb_misses");
    ASSERT_TRUE(rig.kmem.kread(kUserVa, 8, v));
    EXPECT_EQ(rig.ctx.stats().get("mmu.tlb_misses"),
              misses_before + 1)
        << "CPU 0 hit on a cache entry owned by CPU 1";
}

// --------------------------------------------------------------------
// 5. Per-CPU stat namespaces with exact rollups.
// --------------------------------------------------------------------

TEST(Smp, PerCpuCountersSumToRollup)
{
    System sys(smpConfig(2));
    sys.boot();
    for (int p = 0; p < 2; p++) {
        sys.kernel().spawn(sim::strprintf("s%d", p), [](UserApi &api) {
            hw::Vaddr va = api.mmap(8 * hw::pageSize);
            for (int i = 0; i < 8; i++)
                api.poke(va + uint64_t(i) * hw::pageSize, 8,
                         uint64_t(i));
            int fd = api.open("/f" + std::to_string(api.pid()), true);
            api.write(fd, va, 4 * hw::pageSize);
            api.close(fd);
            api.compute(500000);
            return 0;
        });
    }
    sys.kernel().run();

    const auto &stats = sys.ctx().stats();
    for (const char *name :
         {"mmu.tlb_hits", "mmu.tlb_misses", "kernel.insts",
          "user.insts", "sva.syscalls", "sva.context_switches"}) {
        uint64_t rollup = stats.get(name);
        uint64_t sum = stats.get(std::string("cpu0.") + name) +
                       stats.get(std::string("cpu1.") + name);
        EXPECT_EQ(sum, rollup) << name;
        EXPECT_GT(rollup, 0u) << name;
    }
}
