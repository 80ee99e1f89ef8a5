/**
 * @file
 * Kmem's last-translation cache and page-chunked copies must be
 * *observably identical* to a per-access translate and a byte-at-a-
 * time copy: same return values, same simulated cycles, same stat
 * counters, same memory contents. That per-access reference path was
 * retired once proven identical; the digests it produced (clock, full
 * stat map, deflections, every byte of RAM, and per-op results) are
 * recorded below and the differential tests compare against them.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <optional>

#include "crypto/drbg.hh"
#include "hw/disk.hh"
#include "hw/iommu.hh"
#include "hw/mmu.hh"
#include "hw/phys_mem.hh"
#include "hw/tpm.hh"
#include "kernel/bcache.hh"
#include "kernel/kmem.hh"
#include "sva/vm.hh"

#include "golden.hh"

using namespace vg;

namespace
{

sim::VgConfig
rigConfig()
{
    return sim::VgConfig::full();
}

/** Clock, full stat map, deflections and every byte of RAM. */
test::Golden
stateDigest(sim::SimContext &ctx, hw::PhysMem &mem, kern::Kmem &kmem)
{
    test::Golden g;
    g.machine(ctx).u64(kmem.deflections());
    std::vector<uint8_t> page(hw::pageSize);
    for (uint64_t pa = 0; pa < mem.sizeBytes(); pa += hw::pageSize) {
        mem.readBytes(pa, page.data(), page.size());
        g.bytes(page.data(), page.size());
    }
    return g;
}

// --------------------------------------------------------------------
// Hand-mapped rig: page tables built directly in frames 0..3 (no SVA
// install, every frame stays Free so stores are permitted), used for
// the targeted unit tests.
// --------------------------------------------------------------------
struct HandRig
{
    sim::SimContext ctx;
    hw::PhysMem mem;
    hw::Mmu mmu;
    hw::Iommu iommu;
    hw::Tpm tpm;
    sva::SvaVm vm;
    kern::Kmem kmem;

    HandRig()
        : ctx(rigConfig()), mem(64), mmu(mem, ctx), iommu(mem, ctx),
          tpm({'k', 't'}), vm(ctx, mem, mmu, iommu, tpm),
          kmem(ctx, mem, mmu, vm)
    {}

    /** Install a user leaf for @p va (tables in frames 0..3). */
    void
    map(hw::Vaddr va, hw::Frame target, bool writable)
    {
        using namespace hw;
        mem.write64(0 * pageSize + ptIndex(va, PtLevel::L4) * 8,
                    pte::make(1, true, true, false));
        mem.write64(1 * pageSize + ptIndex(va, PtLevel::L3) * 8,
                    pte::make(2, true, true, false));
        mem.write64(2 * pageSize + ptIndex(va, PtLevel::L2) * 8,
                    pte::make(3, true, true, false));
        mem.write64(3 * pageSize + ptIndex(va, PtLevel::L1) * 8,
                    pte::make(target, writable, true, false));
    }
};

/** Digest of a hand rig's observable state. */
uint64_t
rigDigest(HandRig &r)
{
    return stateDigest(r.ctx, r.mem, r.kmem).h;
}

/** Hand-rig digests recorded from the per-access reference path. */
const std::map<std::string, uint64_t> kHandGolden = {
    {"tlb eviction", 0x305ee066cb6ab71dull},
    {"straddling copy", 0x170a9dd690ffd57bull},
    {"overlapping copy", 0x9c4db80cbc2ff29eull},
    {"tlb-set thrash copy", 0x5791ca832efb762full},
    {"blocked store", 0xbcebd41977206e24ull},
};

/** Assert a rig is in the recorded reference state for @p where. */
void
expectGolden(HandRig &r, const char *where)
{
    EXPECT_TRUE(test::matchesGolden(rigDigest(r), kHandGolden.at(where)))
        << where;
}

constexpr hw::Vaddr kUserVa = 0x400000;
// 64 pages above kUserVa: same direct-mapped TLB set, different page.
constexpr hw::Vaddr kCollideVa =
    kUserVa + hw::Mmu::tlbEntries * hw::pageSize;

} // namespace

// --------------------------------------------------------------------
// Targeted unit tests.
// --------------------------------------------------------------------

/** The cache must be dropped by invlpg exactly as the TLB is: reads
 *  keep returning the stale mapping until the invalidate, then see the
 *  new one. */
TEST(KmemFast, CacheFollowsInvalidatePage)
{
    HandRig r;
    r.map(kUserVa, 8, true);
    r.mmu.setRoot(0);
    r.mem.write64(8 * hw::pageSize, 0x1111);
    r.mem.write64(9 * hw::pageSize, 0x2222);

    uint64_t v = 0;
    ASSERT_TRUE(r.kmem.kread(kUserVa, 8, v));
    EXPECT_EQ(v, 0x1111u);

    // Remap behind the TLB's back: both TLB and cache stay stale —
    // that *is* the architectural behaviour until an invlpg.
    r.map(kUserVa, 9, true);
    ASSERT_TRUE(r.kmem.kread(kUserVa, 8, v));
    EXPECT_EQ(v, 0x1111u);

    r.mmu.invalidatePage(kUserVa);
    ASSERT_TRUE(r.kmem.kread(kUserVa, 8, v));
    EXPECT_EQ(v, 0x2222u);
}

TEST(KmemFast, CacheFollowsFlushTlb)
{
    HandRig r;
    r.map(kUserVa, 8, true);
    r.mmu.setRoot(0);
    r.mem.write64(8 * hw::pageSize, 0x1111);
    r.mem.write64(9 * hw::pageSize, 0x2222);

    uint64_t v = 0;
    ASSERT_TRUE(r.kmem.kread(kUserVa, 8, v));
    r.map(kUserVa, 9, true);
    r.mmu.flushTlb();
    ASSERT_TRUE(r.kmem.kread(kUserVa, 8, v));
    EXPECT_EQ(v, 0x2222u);
}

TEST(KmemFast, CacheFollowsSetRoot)
{
    HandRig r;
    r.map(kUserVa, 8, true);
    r.mmu.setRoot(0);
    r.mem.write64(8 * hw::pageSize, 0x1111);
    r.mem.write64(9 * hw::pageSize, 0x2222);

    uint64_t v = 0;
    ASSERT_TRUE(r.kmem.kread(kUserVa, 8, v));
    r.map(kUserVa, 9, true);
    r.mmu.setRoot(0); // CR3 reload flushes
    ASSERT_TRUE(r.kmem.kread(kUserVa, 8, v));
    EXPECT_EQ(v, 0x2222u);
}

/** A walk that evicts a live TLB entry (set collision) must also kill
 *  the cache, or a later cached hit would charge tlbHit where the
 *  reference path misses. Checked via the recorded cycles + stats. */
TEST(KmemFast, CacheFollowsTlbEviction)
{
    HandRig r;
    r.map(kUserVa, 8, true);
    r.map(kCollideVa, 9, true);
    r.mmu.setRoot(0);
    ASSERT_EQ(hw::Mmu::tlbIndex(kUserVa), hw::Mmu::tlbIndex(kCollideVa));

    uint64_t v = 0;
    ASSERT_TRUE(r.kmem.kread(kUserVa, 8, v));    // miss + walk
    ASSERT_TRUE(r.kmem.kread(kCollideVa, 8, v)); // evicts kUserVa
    ASSERT_TRUE(r.kmem.kread(kUserVa, 8, v));    // must miss again
    EXPECT_EQ(r.ctx.stats().get("mmu.tlb_misses"), 3u);
    expectGolden(r, "tlb eviction");
}

/** Page-straddling copy: contents and charges match the reference. */
TEST(KmemFast, CopyStraddlesPages)
{
    HandRig r;
    for (int i = 0; i < 8; i++)
        r.map(kUserVa + uint64_t(i) * hw::pageSize, hw::Frame(8 + i),
              true);
    r.mmu.setRoot(0);
    for (uint64_t i = 0; i < 2 * hw::pageSize; i++)
        r.mem.write8(8 * hw::pageSize + i, uint8_t(i * 7 + 3));

    EXPECT_TRUE(
        r.kmem.copy(kUserVa + 4 * hw::pageSize + 50, kUserVa + 100, 6000));
    for (uint64_t i = 0; i < 6000; i++)
        ASSERT_EQ(r.mem.read8(12 * hw::pageSize + 50 + i),
                  uint8_t((100 + i) * 7 + 3))
            << "byte " << i;
    expectGolden(r, "straddling copy");
}

/** Physically overlapping forward copy: the reference loop propagates
 *  freshly written bytes; the fast path must reproduce that. */
TEST(KmemFast, CopyOverlapPropagates)
{
    HandRig r;
    hw::Vaddr base = hw::kernelBase + 20 * hw::pageSize;
    for (uint64_t i = 0; i < 128; i++)
        r.mem.write8(20 * hw::pageSize + i, uint8_t(i + 1));
    ASSERT_TRUE(r.kmem.copy(base + 1, base, 64));
    // Forward byte copy with dst = src+1 smears byte 0 over the range.
    for (uint64_t i = 0; i <= 64; i++)
        ASSERT_EQ(r.mem.read8(20 * hw::pageSize + i), 1u) << "byte " << i;
    expectGolden(r, "overlapping copy");
}

/** src/dst in the same TLB set: the reference loop walk-thrashes on
 *  every byte; the fast path must charge identically. */
TEST(KmemFast, CopyTlbSetThrash)
{
    HandRig r;
    r.map(kUserVa, 8, true);
    r.map(kCollideVa, 9, true);
    r.mmu.setRoot(0);
    for (uint64_t i = 0; i < 256; i++)
        r.mem.write8(8 * hw::pageSize + i, uint8_t(i ^ 0x5a));
    ASSERT_TRUE(r.kmem.copy(kCollideVa, kUserVa, 256));
    for (uint64_t i = 0; i < 256; i++)
        ASSERT_EQ(r.mem.read8(9 * hw::pageSize + i), uint8_t(i ^ 0x5a));
    // Reference walk-thrash: every byte misses on both pages.
    EXPECT_GE(r.ctx.stats().get("mmu.tlb_misses"), 2 * 256u);
    expectGolden(r, "tlb-set thrash copy");
}

/** A denied store partway through a copy leaves the same prefix
 *  written and the same blocked-store count as the reference. */
TEST(KmemFast, CopyBlockedStoreAtChunkBoundary)
{
    HandRig r;
    for (int i = 0; i < 4; i++)
        r.map(kUserVa + uint64_t(i) * hw::pageSize, hw::Frame(8 + i),
              true);
    r.mmu.setRoot(0);
    // Frame 9 (second dst page) becomes VM-owned: stores refused.
    r.vm.frames()[9].type = sva::FrameType::Ghost;
    for (uint64_t i = 0; i < 2 * hw::pageSize; i++)
        r.mem.write8(10 * hw::pageSize + i, uint8_t(i + 9));

    // dst pages 8,9; src pages 10,11. Fails entering frame 9.
    EXPECT_FALSE(r.kmem.copy(kUserVa, kUserVa + 2 * hw::pageSize,
                             2 * hw::pageSize));
    EXPECT_EQ(r.ctx.stats().get("kmem.blocked_stores"), 1u);
    expectGolden(r, "blocked store");
}

/** A TLB-resident entry that lacks the requested permission re-walks
 *  and is counted as a perm rewalk, not a (phantom) TLB miss. */
TEST(KmemFast, PermissionRewalkCountedSeparately)
{
    HandRig r;
    r.map(kUserVa, 8, false); // read-only
    r.mmu.setRoot(0);

    auto rd = r.mmu.translate(kUserVa, hw::Access::Read,
                              hw::Privilege::Kernel);
    ASSERT_TRUE(rd.ok);
    EXPECT_EQ(r.ctx.stats().get("mmu.tlb_misses"), 1u);

    // Upgrade the PTE behind the TLB's back, then write: the stale
    // entry forces a re-walk that picks up the new permission.
    r.map(kUserVa, 8, true);
    auto wr = r.mmu.translate(kUserVa, hw::Access::Write,
                              hw::Privilege::Kernel);
    EXPECT_TRUE(wr.ok);
    EXPECT_EQ(r.ctx.stats().get("mmu.tlb_misses"), 1u);
    EXPECT_EQ(r.ctx.stats().get("mmu.tlb_perm_rewalks"), 1u);
    EXPECT_EQ(r.ctx.stats().get("mmu.tlb_hits"), 0u);
}

/** getZeroed counts hits and misses like get() (and still counts its
 *  zero-fills). */
TEST(KmemFast, BcacheGetZeroedStatSymmetry)
{
    sim::SimContext ctx;
    hw::PhysMem mem(16);
    hw::Iommu iommu(mem, ctx);
    hw::Disk disk(256, iommu, ctx);
    kern::BufferCache bc(disk, ctx, 8);

    ASSERT_NE(bc.getZeroed(5), nullptr); // miss + zero fill
    EXPECT_EQ(bc.misses(), 1u);
    EXPECT_EQ(ctx.stats().get("bcache.misses"), 1u);
    EXPECT_EQ(ctx.stats().get("bcache.zero_fills"), 1u);
    EXPECT_EQ(bc.hits(), 0u);

    ASSERT_NE(bc.getZeroed(5), nullptr); // hit
    EXPECT_EQ(bc.hits(), 1u);
    EXPECT_EQ(ctx.stats().get("bcache.hits"), 1u);
    EXPECT_EQ(bc.misses(), 1u);
    EXPECT_EQ(ctx.stats().get("bcache.zero_fills"), 1u);
}

// --------------------------------------------------------------------
// Golden sweep: a full SVA-booted machine, random kernel memory
// traffic over every address class interleaved with TLB-shootdown
// events. Every op's result and the clock after it fold into the
// digest, so the lockstep agreement the reference path once checked
// op by op is still checked op by op.
// --------------------------------------------------------------------

namespace
{

struct SweepRig
{
    sim::SimContext ctx;
    hw::PhysMem mem;
    hw::Mmu mmu;
    hw::Iommu iommu;
    hw::Tpm tpm;
    sva::SvaVm vm;
    kern::Kmem kmem;
    std::deque<hw::Frame> freeFrames;

    SweepRig()
        : ctx(rigConfig()), mem(512), mmu(mem, ctx), iommu(mem, ctx),
          tpm({'k', 'f'}), vm(ctx, mem, mmu, iommu, tpm),
          kmem(ctx, mem, mmu, vm)
    {
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
        EXPECT_TRUE(vm.declarePtPage(0, 4, &err));
        EXPECT_TRUE(vm.allocGhostMemory(1, 0, hw::ghostBase, 4, &err));
        // Intermediate tables for the user windows (kUserVa and
        // kCollideVa share one 2 MB region, hence one L1 table).
        EXPECT_TRUE(vm.declarePtPage(60, 3, &err)) << err.message;
        EXPECT_TRUE(vm.installTable(0, 4, kUserVa, 60, &err));
        EXPECT_TRUE(vm.declarePtPage(61, 2, &err));
        EXPECT_TRUE(vm.installTable(60, 3, kUserVa, 61, &err));
        EXPECT_TRUE(vm.declarePtPage(62, 1, &err));
        EXPECT_TRUE(vm.installTable(61, 2, kUserVa, 62, &err));
        // Frames 448.. are reserved as map targets (never given to
        // the provider, so map/unmap storms can't reuse them).
        for (int i = 0; i < 8; i++)
            EXPECT_TRUE(vm.mapPage(0,
                                   kUserVa + uint64_t(i) * hw::pageSize,
                                   hw::Frame(448 + i), i % 3 != 2, true,
                                   true, &err));
        for (int i = 0; i < 2; i++)
            EXPECT_TRUE(
                vm.mapPage(0, kCollideVa + uint64_t(i) * hw::pageSize,
                           hw::Frame(456 + i), true, true, true, &err));
        EXPECT_TRUE(vm.loadRoot(0, &err));
    }
};

hw::Vaddr
randomVa(crypto::CtrDrbg &rng)
{
    switch (rng.nextBounded(8)) {
      case 0:
      case 1:
      case 2: // mapped user window (hot)
        return kUserVa + rng.nextBounded(8 * hw::pageSize);
      case 3: // TLB-set-colliding user window
        return kCollideVa + rng.nextBounded(2 * hw::pageSize);
      case 4: // arbitrary (mostly unmapped) user
        return rng.nextBounded(1ull << 40);
      case 5: // ghost partition (deflected by masking)
        return hw::ghostBase + rng.nextBounded(4 * hw::pageSize);
      case 6: // SVA internal (rewritten to 0, faults)
        return hw::svaBase + rng.nextBounded(1ull << 20);
      default: // kernel half (direct map)
        return hw::kernelBase + rng.nextBounded(512 * hw::pageSize);
    }
}

} // namespace

/** Sweep digests per seed, recorded from the per-access reference
 *  path. */
const std::map<int, uint64_t> kKmemGolden = {
    {1, 0xebc716fce3a77c12ull},
    {2, 0x9583cd2e28ca87e0ull},
    {3, 0xc83c7a8b82b94247ull},
    {4, 0x44e32a7529bce112ull},
};

class KmemGoldenSweep : public ::testing::TestWithParam<int>
{};

TEST_P(KmemGoldenSweep, MatchesRecordedDigest)
{
    crypto::CtrDrbg rng({uint8_t(GetParam()), 'k', 'm'});
    SweepRig r;
    std::vector<uint8_t> buf(3 * hw::pageSize);
    sva::SvaError err;
    test::Golden ops;

    for (int op = 0; op < 1500; op++) {
        switch (rng.nextBounded(12)) {
          case 0: { // native kernel load
            hw::Vaddr va = randomVa(rng);
            unsigned bytes = 1u << rng.nextBounded(4);
            uint64_t v = 0;
            ops.u64(r.kmem.kread(va, bytes, v)).u64(v);
            break;
          }
          case 1: { // native kernel store
            hw::Vaddr va = randomVa(rng);
            unsigned bytes = 1u << rng.nextBounded(4);
            ops.u64(r.kmem.kwrite(va, bytes, rng.next64()));
            break;
          }
          case 2: { // module-port load
            uint64_t v = 0;
            ops.u64(r.kmem.read(randomVa(rng), 8, v)).u64(v);
            break;
          }
          case 3: { // module-port store
            hw::Vaddr va = randomVa(rng);
            ops.u64(r.kmem.write(va, 4, rng.next64()));
            break;
          }
          case 4:
          case 5: { // module-port bulk copy (the chunked hot path)
            hw::Vaddr src = randomVa(rng);
            hw::Vaddr dst = randomVa(rng);
            uint64_t len = rng.nextBounded(3 * hw::pageSize) + 1;
            ops.u64(r.kmem.copy(dst, src, len));
            break;
          }
          case 6: { // copyin
            hw::Vaddr va = randomVa(rng);
            uint64_t len = rng.nextBounded(buf.size()) + 1;
            std::memset(buf.data(), 0xee, len);
            ops.u64(r.kmem.copyIn(va, buf.data(), len));
            ops.bytes(buf.data(), len);
            break;
          }
          case 7: { // copyout
            hw::Vaddr va = randomVa(rng);
            uint64_t len = rng.nextBounded(buf.size()) + 1;
            for (uint64_t i = 0; i < len; i++)
                buf[i] = uint8_t(rng.nextBounded(256));
            ops.u64(r.kmem.copyOut(va, buf.data(), len));
            break;
          }
          case 8: // invlpg
            r.mmu.invalidatePage(randomVa(rng));
            break;
          case 9: // TLB flush or CR3 reload
            if (rng.nextBounded(2) == 0)
                r.mmu.flushTlb();
            else
                ops.u64(r.vm.loadRoot(0, &err));
            break;
          case 10: { // remap / protect a hot user page
            hw::Vaddr va =
                hw::pageOf(kUserVa + rng.nextBounded(8 * hw::pageSize));
            bool writable = rng.nextBounded(2) == 0;
            ops.u64(r.vm.protectPage(0, va, writable, true, &err));
            break;
          }
          default: { // unmap + remap a hot user page
            int i = int(rng.nextBounded(8));
            hw::Vaddr va = kUserVa + uint64_t(i) * hw::pageSize;
            ops.u64(r.vm.unmapPage(0, va, &err));
            ops.u64(r.vm.mapPage(0, va, hw::Frame(448 + i), true, true,
                                 true, &err));
            break;
          }
        }
        ops.u64(r.ctx.clock().now());
    }

    // Per-op trail plus full state: stats, deflections, all of RAM.
    test::Golden g = stateDigest(r.ctx, r.mem, r.kmem);
    g.u64(ops.h);
    EXPECT_TRUE(test::matchesGolden(g.h, kKmemGolden.at(GetParam())));
    // The translation cache must actually have been exercised.
    EXPECT_GT(r.ctx.stats().get("mmu.tlb_hits"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KmemGoldenSweep,
                         ::testing::Values(1, 2, 3, 4));
