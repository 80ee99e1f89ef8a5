/**
 * @file
 * Hardware substrate tests: physical memory, MMU walker + TLB, IOMMU,
 * disk and NIC descriptor queues, TPM, timer.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "hw/disk.hh"
#include "hw/iommu.hh"
#include "hw/layout.hh"
#include "hw/mmu.hh"
#include "hw/nic.hh"
#include "hw/phys_mem.hh"
#include "hw/timer.hh"
#include "hw/tpm.hh"
#include "sim/context.hh"

using namespace vg;
using namespace vg::hw;

namespace
{

/** Build a 4-level mapping by hand: frames 1..3 are tables under the
 *  root in frame 0; returns the leaf slot written. */
void
handMap(PhysMem &mem, Vaddr va, Frame target, bool writable, bool user)
{
    // root = frame 0, L3 = frame 1, L2 = frame 2, L1 = frame 3.
    mem.write64(0 * pageSize + ptIndex(va, PtLevel::L4) * 8,
                pte::make(1, true, true, false));
    mem.write64(1 * pageSize + ptIndex(va, PtLevel::L3) * 8,
                pte::make(2, true, true, false));
    mem.write64(2 * pageSize + ptIndex(va, PtLevel::L2) * 8,
                pte::make(3, true, true, false));
    mem.write64(3 * pageSize + ptIndex(va, PtLevel::L1) * 8,
                pte::make(target, writable, user, false));
}

/** Run one request through @p disk's queue (post, doorbell, reap) and
 *  return its completion. */
RingCompletion
diskRequest(Disk &disk, const RingDesc &d)
{
    EXPECT_TRUE(disk.submit(d));
    disk.doorbell();
    std::vector<RingCompletion> done = disk.reapAll();
    EXPECT_EQ(done.size(), 1u);
    return done.empty() ? RingCompletion{} : done.front();
}

/** A disk request whose data moves by DMA at @p pa. */
RingDesc
dmaDesc(uint64_t block, Paddr pa, bool write)
{
    RingDesc d;
    d.block = block;
    d.pa = pa;
    d.write = write;
    d.useDma = true;
    return d;
}

/** A disk read into the host buffer @p out. */
RingDesc
hostRead(uint64_t block, std::vector<uint8_t> &out)
{
    RingDesc d;
    d.block = block;
    d.hostOut = out.data();
    d.len = uint32_t(out.size());
    return d;
}

} // namespace

TEST(PhysMem, ReadWriteRoundtrip)
{
    PhysMem mem(16);
    mem.write8(100, 0xab);
    EXPECT_EQ(mem.read8(100), 0xab);
    mem.write64(4096, 0x1122334455667788ull);
    EXPECT_EQ(mem.read64(4096), 0x1122334455667788ull);
    mem.write32(8, 0xdeadbeef);
    EXPECT_EQ(mem.read32(8), 0xdeadbeefu);
    mem.write16(20, 0xcafe);
    EXPECT_EQ(mem.read16(20), 0xcafe);
}

TEST(PhysMem, BulkAndZero)
{
    PhysMem mem(4);
    std::vector<uint8_t> data(100, 0x5a);
    mem.writeBytes(500, data.data(), data.size());
    std::vector<uint8_t> back(100);
    mem.readBytes(500, back.data(), back.size());
    EXPECT_EQ(back, data);
    mem.zeroFrame(0);
    EXPECT_EQ(mem.read8(500), 0);
}

TEST(PhysMem, FrameAccounting)
{
    PhysMem mem(8);
    EXPECT_EQ(mem.numFrames(), 8u);
    EXPECT_EQ(mem.sizeBytes(), 8 * pageSize);
    EXPECT_TRUE(mem.valid(8 * pageSize - 1));
    EXPECT_FALSE(mem.valid(8 * pageSize));
    EXPECT_TRUE(mem.validFrame(7));
    EXPECT_FALSE(mem.validFrame(8));
}

TEST(Layout, SandboxTransform)
{
    // Ghost addresses are pushed into the kernel half.
    Vaddr ghost = ghostBase + 0x1234;
    Vaddr masked = sandboxAddress(ghost);
    EXPECT_FALSE(isGhostAddr(masked));
    EXPECT_EQ(masked, ghost | sandboxOrMask);

    // SVA internal addresses collapse to 0.
    EXPECT_EQ(sandboxAddress(svaBase + 64), 0u);

    // User and ordinary kernel addresses pass through.
    EXPECT_EQ(sandboxAddress(0x400000), 0x400000u);
    Vaddr kern = kernelBase + 0x999;
    EXPECT_EQ(sandboxAddress(kern), kern | sandboxOrMask);
    EXPECT_EQ(kern | sandboxOrMask, kern); // already has bit 39 set
}

TEST(Layout, GhostSliceThatOrsIntoSvaMasksToZero)
{
    // The ghost slice [svaBase - 2^39, svaEnd - 2^39) lies below
    // bit 39, so the OR carries it into SVA internal memory: the SVA
    // check must run after the OR and rewrite the result to 0, exactly
    // as the compiled 13-instruction sequence does.
    const Vaddr lo = svaBase & ~sandboxOrMask;
    const Vaddr hi = svaEnd & ~sandboxOrMask;
    EXPECT_EQ(lo, 0xffffff6000000000ull);
    EXPECT_EQ(hi, 0xffffff6040000000ull);
    for (Vaddr va : {lo, lo + (hi - lo) / 2 + 0x123, hi - 1}) {
        ASSERT_TRUE(isGhostAddr(va)) << std::hex << va;
        EXPECT_EQ(sandboxAddress(va), 0u) << std::hex << va;
        EXPECT_FALSE(isSvaAddr(sandboxAddress(va))) << std::hex << va;
    }
    // Just outside the slice the OR result stays a kernel address.
    EXPECT_EQ(sandboxAddress(hi), hi | sandboxOrMask);
    EXPECT_EQ(sandboxAddress(lo - 1), (lo - 1) | sandboxOrMask);
}

TEST(Mmu, TranslateMappedPage)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Mmu mmu(mem, ctx);
    handMap(mem, 0x400000, 5, true, true);
    mmu.setRoot(0);

    auto r = mmu.translate(0x400123, Access::Read, Privilege::User);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.paddr, 5 * pageSize + 0x123);
}

TEST(Mmu, TlbHitIsCheaperThanWalk)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Mmu mmu(mem, ctx);
    handMap(mem, 0x400000, 5, true, true);
    mmu.setRoot(0);

    sim::Stopwatch walk(ctx.clock());
    mmu.translate(0x400000, Access::Read, Privilege::User);
    sim::Cycles walk_cost = walk.elapsed();
    sim::Stopwatch hit(ctx.clock());
    mmu.translate(0x400008, Access::Read, Privilege::User);
    sim::Cycles hit_cost = hit.elapsed();
    EXPECT_LT(hit_cost, walk_cost);
    EXPECT_EQ(ctx.stats().get("mmu.tlb_hits"), 1u);
    EXPECT_EQ(ctx.stats().get("mmu.tlb_misses"), 1u);
}

TEST(Mmu, PermissionChecks)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Mmu mmu(mem, ctx);
    handMap(mem, 0x400000, 5, false, false); // read-only, kernel-only
    mmu.setRoot(0);

    auto w = mmu.translate(0x400000, Access::Write, Privilege::Kernel);
    EXPECT_FALSE(w.ok);
    EXPECT_EQ(w.fault, FaultKind::Protection);

    auto u = mmu.translate(0x400000, Access::Read, Privilege::User);
    EXPECT_FALSE(u.ok);
    EXPECT_EQ(u.fault, FaultKind::Protection);

    auto k = mmu.translate(0x400000, Access::Read, Privilege::Kernel);
    EXPECT_TRUE(k.ok);
}

TEST(Mmu, NotPresentFaults)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Mmu mmu(mem, ctx);
    mmu.setRoot(0);
    auto r = mmu.translate(0x400000, Access::Read, Privilege::Kernel);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, FaultKind::NotPresent);
}

TEST(Mmu, NonCanonicalFaults)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Mmu mmu(mem, ctx);
    mmu.setRoot(0);
    auto r = mmu.translate(0x0000900000000000ull, Access::Read,
                           Privilege::Kernel);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, FaultKind::NonCanonical);
}

TEST(Mmu, InvalidatePageDropsStaleTlbEntry)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Mmu mmu(mem, ctx);
    handMap(mem, 0x400000, 5, true, true);
    mmu.setRoot(0);
    mmu.translate(0x400000, Access::Read, Privilege::User);

    // Change the mapping behind the TLB's back, then invalidate.
    mem.write64(3 * pageSize + ptIndex(0x400000, PtLevel::L1) * 8,
                pte::make(6, true, true, false));
    mmu.invalidatePage(0x400000);
    auto r = mmu.translate(0x400000, Access::Read, Privilege::User);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.paddr, 6 * pageSize);
}

TEST(Mmu, ProbeDoesNotChargeTime)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Mmu mmu(mem, ctx);
    handMap(mem, 0x400000, 5, true, true);
    mmu.setRoot(0);
    sim::Cycles before = ctx.clock().now();
    auto pte_val = mmu.probe(0x400000);
    EXPECT_EQ(ctx.clock().now(), before);
    ASSERT_TRUE(pte_val.has_value());
    EXPECT_EQ(pte::frameNum(*pte_val), 5u);
    EXPECT_FALSE(mmu.probe(0x500000).has_value());
}

TEST(Iommu, BlocksProtectedFrames)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Iommu iommu(mem, ctx);
    uint8_t buf[16] = {1, 2, 3};

    EXPECT_TRUE(iommu.dmaWrite(5 * pageSize, buf, 16));
    iommu.protectFrame(5);
    EXPECT_FALSE(iommu.dmaWrite(5 * pageSize, buf, 16));
    EXPECT_FALSE(iommu.dmaRead(5 * pageSize, buf, 16));
    EXPECT_EQ(iommu.blockedCount(), 2u);
    iommu.unprotectFrame(5);
    EXPECT_TRUE(iommu.dmaRead(5 * pageSize, buf, 16));
}

TEST(Iommu, RangeStraddlingProtectedFrameBlocked)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Iommu iommu(mem, ctx);
    iommu.protectFrame(6);
    uint8_t buf[64];
    // Range ends inside frame 6.
    EXPECT_FALSE(iommu.dmaRead(6 * pageSize - 32, buf, 64));
    // Range entirely in frame 5 is fine.
    EXPECT_TRUE(iommu.dmaRead(5 * pageSize, buf, 64));
}

TEST(Iommu, DisabledProtectionAllowsDma)
{
    sim::SimContext ctx(sim::VgConfig::native());
    PhysMem mem(16);
    Iommu iommu(mem, ctx);
    iommu.protectFrame(5);
    uint8_t buf[16];
    EXPECT_TRUE(iommu.dmaRead(5 * pageSize, buf, 16));
}

TEST(Disk, HostBufferReadWrite)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Iommu iommu(mem, ctx);
    Disk disk(64, iommu, ctx);

    std::vector<uint8_t> block(Disk::blockSize, 0x7e);
    RingDesc wr;
    wr.block = 3;
    wr.host = block.data();
    wr.len = uint32_t(block.size());
    wr.write = true;
    sim::Cycles before = ctx.clock().now();
    RingCompletion c = diskRequest(disk, wr);
    EXPECT_FALSE(c.error);
    EXPECT_GT(ctx.clock().now(), before); // descriptor + doorbell
    // Media latency is booked on the completion, not the CPU.
    EXPECT_GE(c.doneAt,
              before + ctx.costs().ssdRequest + ctx.costs().ssdPerBlock);

    std::vector<uint8_t> back(Disk::blockSize);
    EXPECT_FALSE(diskRequest(disk, hostRead(3, back)).error);
    EXPECT_EQ(back, block);
}

TEST(Disk, DmaPathRespectsIommu)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Iommu iommu(mem, ctx);
    Disk disk(64, iommu, ctx);

    std::memset(disk.rawBlock(7), 0x42, Disk::blockSize);
    EXPECT_FALSE(diskRequest(disk, dmaDesc(7, 2 * pageSize, false)).error);
    EXPECT_EQ(mem.read8(2 * pageSize), 0x42);

    iommu.protectFrame(3);
    EXPECT_TRUE(diskRequest(disk, dmaDesc(7, 3 * pageSize, false)).error);
    EXPECT_TRUE(diskRequest(disk, dmaDesc(7, 3 * pageSize, true)).error);
    EXPECT_EQ(disk.ringBlockedDma(), 2u);
    EXPECT_EQ(iommu.blockedCount(), 2u);
}

// --- Demand-zero backing store -----------------------------------------

namespace
{

/** True if every byte of frame @p f reads as zero. */
bool
frameIsZero(PhysMem &mem, Frame f)
{
    const uint8_t *p = mem.framePtr(f);
    for (uint64_t i = 0; i < pageSize; i++)
        if (p[i] != 0)
            return false;
    return true;
}

/** True if every byte of block @p b reads as zero. */
bool
blockIsZero(Disk &disk, uint64_t b)
{
    const uint8_t *p = disk.rawBlock(b);
    for (uint64_t i = 0; i < Disk::blockSize; i++)
        if (p[i] != 0)
            return false;
    return true;
}

} // namespace

TEST(BackingStore, FreshRamAndDiskReadZero)
{
    sim::SimContext ctx;
    PhysMem mem(1024);
    Iommu iommu(mem, ctx);
    Disk disk(2048, iommu, ctx);

    for (Frame f : {Frame(0), Frame(512), Frame(1023)}) {
        EXPECT_TRUE(frameIsZero(mem, f)) << "frame " << f;
        EXPECT_EQ(mem.read64(f * pageSize + pageSize - 8), 0u);
    }
    for (uint64_t b : {uint64_t(0), uint64_t(1024), uint64_t(2047)}) {
        EXPECT_TRUE(blockIsZero(disk, b)) << "block " << b;
        std::vector<uint8_t> out(Disk::blockSize, 0xff);
        EXPECT_FALSE(diskRequest(disk, hostRead(b, out)).error);
        EXPECT_EQ(out, std::vector<uint8_t>(Disk::blockSize, 0));
    }
}

TEST(BackingStore, WritesRoundTrip)
{
    sim::SimContext ctx;
    PhysMem mem(64);
    Iommu iommu(mem, ctx);
    Disk disk(128, iommu, ctx);

    const Paddr last = mem.sizeBytes() - 8;
    mem.write8(0, 0xa5);
    mem.write64(last, 0x0102030405060708ull);
    EXPECT_EQ(mem.read8(0), 0xa5);
    EXPECT_EQ(mem.read64(last), 0x0102030405060708ull);

    std::vector<uint8_t> pattern(3 * pageSize);
    for (size_t i = 0; i < pattern.size(); i++)
        pattern[i] = uint8_t(i * 7 + 1);
    // Straddles frames 10..13 at an unaligned offset.
    const Paddr pa = 10 * pageSize + 100;
    mem.writeBytes(pa, pattern.data(), pattern.size());
    std::vector<uint8_t> back(pattern.size());
    mem.readBytes(pa, back.data(), back.size());
    EXPECT_EQ(back, pattern);

    // rawBlock writes are what the request queue reads.
    std::memset(disk.rawBlock(127), 0x3c, Disk::blockSize);
    std::vector<uint8_t> blk(Disk::blockSize);
    EXPECT_FALSE(diskRequest(disk, hostRead(127, blk)).error);
    EXPECT_EQ(blk, std::vector<uint8_t>(Disk::blockSize, 0x3c));

    // RAM -> disk -> RAM through IOMMU-checked DMA descriptors.
    mem.writeBytes(20 * pageSize, pattern.data(), pageSize);
    ASSERT_FALSE(diskRequest(disk, dmaDesc(64, 20 * pageSize, true)).error);
    EXPECT_EQ(std::memcmp(disk.rawBlock(64), pattern.data(), pageSize), 0);
    ASSERT_FALSE(diskRequest(disk, dmaDesc(64, 30 * pageSize, false)).error);
    EXPECT_EQ(std::memcmp(mem.framePtr(30), pattern.data(), pageSize), 0);
    EXPECT_TRUE(frameIsZero(mem, 31));
}

TEST(BackingStore, ZeroFrameClearsDirtiedFrame)
{
    PhysMem mem(8);
    std::memset(mem.framePtr(5), 0xee, pageSize);
    mem.write8(6 * pageSize, 0x11);
    EXPECT_FALSE(frameIsZero(mem, 5));
    mem.zeroFrame(5);
    EXPECT_TRUE(frameIsZero(mem, 5));
    EXPECT_EQ(mem.read8(6 * pageSize), 0x11); // neighbour untouched
}

TEST(BackingStore, LargeRamAndDiskAreCheapToBuild)
{
    // 1 GB of RAM and 2 GB of disk: only the pages read here are ever
    // faulted in.
    sim::SimContext ctx;
    PhysMem mem(256 * 1024);
    Iommu iommu(mem, ctx);
    Disk disk(512 * 1024, iommu, ctx);
    ASSERT_EQ(mem.sizeBytes(), uint64_t(1) << 30);
    ASSERT_EQ(disk.numBlocks() * Disk::blockSize, uint64_t(2) << 30);

    EXPECT_TRUE(frameIsZero(mem, 0));
    EXPECT_TRUE(frameIsZero(mem, mem.numFrames() - 1));
    EXPECT_EQ(mem.read64(mem.sizeBytes() - 8), 0u);
    EXPECT_TRUE(blockIsZero(disk, 0));
    EXPECT_TRUE(blockIsZero(disk, disk.numBlocks() - 1));
}

TEST(BackingStoreDeathTest, SizesAreCheckedBeforeMapping)
{
    EXPECT_EXIT(PhysMem(0), testing::ExitedWithCode(1),
                "PhysMem: must have at least one frame");
    EXPECT_EXIT(
        {
            sim::SimContext ctx;
            PhysMem mem(16);
            Iommu iommu(mem, ctx);
            Disk disk(0, iommu, ctx);
        },
        testing::ExitedWithCode(1), "Disk: must have at least one block");
    // 2^62 bytes: no host can map that much address space.
    EXPECT_EXIT(PhysMem(uint64_t(1) << 50), testing::ExitedWithCode(1),
                "cannot map 4611686018427387904 bytes");
}

TEST(Nic, PairDelivery)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Iommu iommu(mem, ctx);
    Nic a(iommu, ctx), b(iommu, ctx);
    a.connectTo(&b);
    b.connectTo(&a);

    a.send({1, 2, 3});
    ASSERT_TRUE(b.hasPacket());
    EXPECT_EQ(b.receive(), (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_FALSE(b.hasPacket());
    EXPECT_EQ(a.packetsSent(), 1u);
    EXPECT_EQ(b.packetsReceived(), 1u);
}

TEST(Nic, WireTimeScalesWithBytes)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Iommu iommu(mem, ctx);
    Nic a(iommu, ctx), b(iommu, ctx);
    a.connectTo(&b);

    // Wire occupancy is booked on the link schedule, not the CPU.
    uint64_t t0 = ctx.clock().now();
    uint64_t r1 = a.send(std::vector<uint8_t>(100, 0));
    uint64_t cpu1 = ctx.clock().now() - t0;
    uint64_t wire1 = r1 - t0;

    uint64_t t1 = ctx.clock().now();
    uint64_t r2 = a.send(std::vector<uint8_t>(1400, 0));
    uint64_t wire2 = r2 - r1;
    EXPECT_GT(wire2, wire1);
    // Sender CPU charge does not scale with packet size.
    EXPECT_EQ(ctx.clock().now() - t1, cpu1);
    // Back-to-back packets serialize on the link.
    EXPECT_GT(r2, r1);
}

TEST(Nic, DmaSendBlockedByIommu)
{
    sim::SimContext ctx;
    PhysMem mem(16);
    Iommu iommu(mem, ctx);
    Nic a(iommu, ctx), b(iommu, ctx);
    a.connectTo(&b);
    iommu.protectFrame(4);

    auto send = [&](Paddr pa) {
        RingDesc d;
        d.pa = pa;
        d.len = 100;
        d.useDma = true;
        EXPECT_TRUE(a.txPost(d));
        a.txDoorbell();
        std::vector<RingCompletion> done = a.txReapAll();
        EXPECT_EQ(done.size(), 1u);
        return !done.empty() && !done.front().error;
    };
    EXPECT_FALSE(send(4 * pageSize));
    EXPECT_FALSE(b.hasPacket());
    EXPECT_TRUE(send(5 * pageSize));
    EXPECT_TRUE(b.hasPacket());
}

TEST(Tpm, SealUnsealRoundtrip)
{
    Tpm tpm({'t', 'e', 's', 't'});
    std::vector<uint8_t> secret = {9, 9, 9};
    std::vector<uint8_t> wire = tpm.seal(secret);
    EXPECT_EQ(wire.size(), crypto::sealedHeaderBytes + secret.size());
    bool ok = false;
    EXPECT_EQ(tpm.unseal(wire, ok), secret);
    EXPECT_TRUE(ok);
}

TEST(Tpm, DetectsTampering)
{
    Tpm tpm({'t'});
    std::vector<uint8_t> wire = tpm.seal({1, 2, 3});
    wire[crypto::sealedHeaderBytes + 0] ^= 1;
    bool ok = true;
    tpm.unseal(wire, ok);
    EXPECT_FALSE(ok);
}

TEST(Tpm, DifferentTpmsCannotUnseal)
{
    Tpm tpm1({'a'});
    Tpm tpm2({'b'});
    std::vector<uint8_t> wire = tpm1.seal({5});
    bool ok = true;
    tpm2.unseal(wire, ok);
    EXPECT_FALSE(ok);
}

TEST(Timer, FiresOnSchedule)
{
    sim::Clock clock;
    Timer timer(clock);
    EXPECT_FALSE(timer.due());
    timer.setInterval(1000);
    EXPECT_FALSE(timer.due());
    clock.advance(999);
    EXPECT_FALSE(timer.due());
    clock.advance(1);
    EXPECT_TRUE(timer.due());
    timer.acknowledge();
    EXPECT_FALSE(timer.due());
    clock.advance(1000);
    EXPECT_TRUE(timer.due());
}

TEST(Timer, AcknowledgeSkipsMissedPeriods)
{
    sim::Clock clock;
    Timer timer(clock);
    timer.setInterval(100);
    clock.advance(1000);
    EXPECT_TRUE(timer.due());
    timer.acknowledge();
    EXPECT_FALSE(timer.due());
    clock.advance(100);
    EXPECT_TRUE(timer.due());
}
