/**
 * @file
 * Virtual Ghost VM tests: MMU intrinsic checks, ghost memory, secure
 * swap, Interrupt Context operations, key management, translator
 * integration.
 */

#include <gtest/gtest.h>

#include <deque>

#include "sva/vm.hh"

using namespace vg;
using namespace vg::sva;

namespace
{

constexpr uint64_t kFrames = 256;

struct Rig
{
    sim::SimContext ctx;
    hw::PhysMem mem;
    hw::Mmu mmu;
    hw::Iommu iommu;
    hw::Tpm tpm;
    SvaVm vm;
    std::deque<hw::Frame> freeList;

    explicit Rig(sim::VgConfig cfg = sim::VgConfig::full())
        : ctx(cfg), mem(kFrames), mmu(mem, ctx), iommu(mem, ctx),
          tpm({'r', 'i', 'g'}), vm(ctx, mem, mmu, iommu, tpm)
    {
        // Frames 0..15 reserved (root etc. handed out manually);
        // 16..255 to the "OS allocator".
        for (hw::Frame f = 16; f < kFrames; f++)
            freeList.push_back(f);
        vm.setFrameProvider([this]() -> std::optional<hw::Frame> {
            if (freeList.empty())
                return std::nullopt;
            hw::Frame f = freeList.front();
            freeList.pop_front();
            return f;
        });
        vm.setFrameReceiver([this](hw::Frame f) {
            freeList.push_back(f);
        });
        vm.install(384); // small keys: tests stay fast
        vm.boot();
    }

    /** Declare a full table chain for @p va under root frame 0. */
    void
    buildChain(hw::Vaddr va)
    {
        SvaError err;
        if (vm.frames()[0].type != FrameType::PageTable) {
            ASSERT_TRUE(vm.declarePtPage(0, 4, &err)) << err.message;
        }
        ASSERT_TRUE(vm.declarePtPage(1, 3, &err)) << err.message;
        ASSERT_TRUE(vm.declarePtPage(2, 2, &err)) << err.message;
        ASSERT_TRUE(vm.declarePtPage(3, 1, &err)) << err.message;
        ASSERT_TRUE(vm.installTable(0, 4, va, 1, &err)) << err.message;
        ASSERT_TRUE(vm.installTable(1, 3, va, 2, &err)) << err.message;
        ASSERT_TRUE(vm.installTable(2, 2, va, 3, &err)) << err.message;
    }

    /** Swap one ghost page under root 0 out: a batch of one. */
    std::optional<std::vector<uint8_t>>
    swapOut(uint64_t pid, hw::Vaddr va, SvaError *err)
    {
        std::vector<std::vector<uint8_t>> wires =
            vm.swapOutGhostBatch(pid, 0, {va}, err);
        if (wires.empty())
            return std::nullopt;
        return std::move(wires.front());
    }
};

constexpr hw::Vaddr kUserVa = 0x0000000040000000ull;

} // namespace

// --------------------------------------------------------------------
// MMU intrinsics
// --------------------------------------------------------------------

TEST(SvaMmu, DeclareRejectsBusyFrame)
{
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    EXPECT_FALSE(rig.vm.declarePtPage(0, 4, &err)); // already a PT
    EXPECT_FALSE(rig.vm.declarePtPage(9999, 1, &err)); // bad frame
    EXPECT_FALSE(rig.vm.declarePtPage(5, 0, &err));    // bad level
    EXPECT_GE(rig.vm.violationCount(), 3u);
}

TEST(SvaMmu, MapAndTranslate)
{
    Rig rig;
    rig.buildChain(kUserVa);
    SvaError err;
    ASSERT_TRUE(rig.vm.mapPage(0, kUserVa, 20, true, true, true, &err))
        << err.message;
    ASSERT_TRUE(rig.vm.loadRoot(0, &err)) << err.message;

    auto r = rig.mmu.translate(kUserVa + 5, hw::Access::Read,
                               hw::Privilege::User);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.paddr, 20 * hw::pageSize + 5);
    EXPECT_EQ(rig.vm.frames()[20].type, FrameType::Data);
    EXPECT_EQ(rig.vm.frames()[20].mapCount, 1u);
}

TEST(SvaMmu, RejectsGhostVirtualAddresses)
{
    Rig rig;
    rig.buildChain(kUserVa);
    SvaError err;
    EXPECT_FALSE(rig.vm.mapPage(0, hw::ghostBase, 20, true, true, true,
                                &err));
    EXPECT_NE(err.message.find("ghost"), std::string::npos);
    EXPECT_FALSE(rig.vm.unmapPage(0, hw::ghostBase, &err));
    EXPECT_FALSE(rig.vm.installTable(0, 4, hw::ghostBase, 1, &err));
}

TEST(SvaMmu, RejectsMappingGhostFrames)
{
    Rig rig;
    rig.buildChain(kUserVa);
    SvaError err;
    // Make frame 30 a ghost frame by allocating ghost memory with a
    // provider that returns it.
    rig.freeList.clear();
    rig.freeList.push_back(30);
    for (hw::Frame f = 31; f < 40; f++)
        rig.freeList.push_back(f);
    ASSERT_TRUE(rig.vm.allocGhostMemory(1, 0, hw::ghostBase, 1, &err))
        << err.message;
    ASSERT_EQ(rig.vm.frames()[30].type, FrameType::Ghost);

    // The OS now tries to map that frame into user space.
    EXPECT_FALSE(rig.vm.mapPage(0, kUserVa, 30, true, true, true, &err));
    EXPECT_NE(err.message.find("ghost"), std::string::npos);
}

TEST(SvaMmu, RejectsMappingPageTableAndSvaFrames)
{
    Rig rig;
    rig.buildChain(kUserVa);
    SvaError err;
    EXPECT_FALSE(rig.vm.mapPage(0, kUserVa, 1, true, true, true, &err));
    rig.vm.frames()[50].type = FrameType::SvaInternal;
    EXPECT_FALSE(rig.vm.mapPage(0, kUserVa, 50, true, true, true, &err));
}

TEST(SvaMmu, CodePagesNeverWritable)
{
    Rig rig;
    rig.buildChain(kUserVa);
    SvaError err;
    rig.vm.frames()[40].type = FrameType::Code;

    EXPECT_FALSE(rig.vm.mapPage(0, kUserVa, 40, true, true, false,
                                &err));
    ASSERT_TRUE(rig.vm.mapPage(0, kUserVa, 40, false, true, false,
                               &err))
        << err.message;
    // Cannot upgrade to writable afterwards.
    EXPECT_FALSE(rig.vm.protectPage(0, kUserVa, true, false, &err));
    // Cannot redirect the code mapping to another frame.
    EXPECT_FALSE(rig.vm.mapPage(0, kUserVa, 41, false, true, false,
                                &err));
}

TEST(SvaMmu, UnmapAndRefcounts)
{
    Rig rig;
    rig.buildChain(kUserVa);
    SvaError err;
    ASSERT_TRUE(rig.vm.mapPage(0, kUserVa, 20, true, true, true, &err));
    ASSERT_TRUE(rig.vm.unmapPage(0, kUserVa, &err)) << err.message;
    EXPECT_EQ(rig.vm.frames()[20].mapCount, 0u);
    EXPECT_EQ(rig.vm.frames()[20].type, FrameType::Free);
    EXPECT_FALSE(rig.vm.unmapPage(0, kUserVa, &err)); // double unmap
}

TEST(SvaMmu, UndeclareRequiresEmptyTable)
{
    Rig rig;
    rig.buildChain(kUserVa);
    SvaError err;
    // L1 (frame 3) currently empty: can be retired after unlinking —
    // we retire an unlinked empty table (frame 4).
    ASSERT_TRUE(rig.vm.declarePtPage(4, 1, &err));
    EXPECT_TRUE(rig.vm.undeclarePtPage(4, &err)) << err.message;

    ASSERT_TRUE(rig.vm.mapPage(0, kUserVa, 20, true, true, true, &err));
    EXPECT_FALSE(rig.vm.undeclarePtPage(3, &err)); // live entry
}

TEST(SvaMmu, LoadRootChecked)
{
    Rig rig;
    SvaError err;
    EXPECT_FALSE(rig.vm.loadRoot(7, &err)); // not declared
    ASSERT_TRUE(rig.vm.declarePtPage(7, 3, &err));
    EXPECT_FALSE(rig.vm.loadRoot(7, &err)); // wrong level
    ASSERT_TRUE(rig.vm.declarePtPage(8, 4, &err));
    EXPECT_TRUE(rig.vm.loadRoot(8, &err)) << err.message;
    EXPECT_EQ(rig.mmu.root(), 8 * hw::pageSize);
}

TEST(SvaMmu, NativeConfigSkipsGhostChecks)
{
    Rig rig((sim::VgConfig::native()));
    rig.buildChain(hw::ghostBase + 0x1000);
    SvaError err;
    // Without mmuChecks the OS can map ghost VAs (that's the attack
    // surface the baseline has).
    EXPECT_TRUE(rig.vm.mapPage(0, hw::ghostBase + 0x1000, 20, true,
                               true, true, &err))
        << err.message;
}

// --------------------------------------------------------------------
// Ghost memory
// --------------------------------------------------------------------

TEST(SvaGhost, AllocZeroesTypesAndMaps)
{
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));

    // Dirty the frame that will be handed out.
    hw::Frame next = rig.freeList.front();
    rig.mem.write64(next * hw::pageSize, 0xdeadbeef);

    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase + 0x10000,
                                        4, &err))
        << err.message;
    EXPECT_EQ(rig.vm.ghostPageCount(7), 4u);
    EXPECT_EQ(rig.mem.read64(next * hw::pageSize), 0u); // zeroed
    EXPECT_EQ(rig.vm.frames()[next].type, FrameType::Ghost);
    EXPECT_EQ(rig.vm.frames()[next].owner, 7u);
    EXPECT_FALSE(rig.iommu.dmaAllowed(next));

    // Mapped in the tree.
    rig.vm.loadRoot(0, &err);
    auto pte = rig.mmu.probe(hw::ghostBase + 0x10000);
    ASSERT_TRUE(pte.has_value());
}

TEST(SvaGhost, AllocRejectsBadRanges)
{
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    EXPECT_FALSE(rig.vm.allocGhostMemory(1, 0, kUserVa, 1, &err));
    EXPECT_FALSE(rig.vm.allocGhostMemory(1, 0, hw::ghostBase + 1, 1,
                                         &err)); // unaligned
    EXPECT_FALSE(rig.vm.allocGhostMemory(1, 0, hw::ghostBase, 0, &err));
    EXPECT_FALSE(rig.vm.allocGhostMemory(
        1, 0, hw::ghostEnd - hw::pageSize, 2, &err)); // runs out
}

TEST(SvaGhost, AllocRejectsStillMappedFrame)
{
    Rig rig;
    rig.buildChain(kUserVa);
    SvaError err;
    // Map frame 16 into user space, then offer it for ghost use.
    ASSERT_TRUE(rig.vm.mapPage(0, kUserVa, 16, true, true, true, &err));
    rig.freeList.clear();
    rig.freeList.push_back(16);
    EXPECT_FALSE(rig.vm.allocGhostMemory(1, 0, hw::ghostBase, 1, &err));
}

TEST(SvaGhost, FreeScrubsAndReturns)
{
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase, 1, &err));

    // Find the ghost frame and write a secret into it.
    hw::Frame ghost_frame = 0;
    for (hw::Frame f = 0; f < kFrames; f++) {
        if (rig.vm.frames()[f].type == FrameType::Ghost)
            ghost_frame = f;
    }
    ASSERT_NE(ghost_frame, 0u);
    rig.mem.write64(ghost_frame * hw::pageSize, 0x5ec2e7);

    size_t free_before = rig.freeList.size();
    ASSERT_TRUE(rig.vm.freeGhostMemory(7, 0, hw::ghostBase, 1, &err))
        << err.message;
    EXPECT_EQ(rig.mem.read64(ghost_frame * hw::pageSize), 0u);
    EXPECT_EQ(rig.vm.frames()[ghost_frame].type, FrameType::Free);
    EXPECT_EQ(rig.freeList.size(), free_before + 1);
    EXPECT_TRUE(rig.iommu.dmaAllowed(ghost_frame));
    EXPECT_EQ(rig.vm.ghostPageCount(7), 0u);
}

TEST(SvaGhost, FreeRejectsWrongOwner)
{
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase, 1, &err));
    EXPECT_FALSE(rig.vm.freeGhostMemory(8, 0, hw::ghostBase, 1, &err));
}

TEST(SvaGhost, SwapRoundtrip)
{
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase, 1, &err));
    rig.vm.loadRoot(0, &err);

    // Write through the mapping.
    auto pte = rig.mmu.probe(hw::ghostBase);
    ASSERT_TRUE(pte.has_value());
    hw::Frame f = hw::pte::frameNum(*pte);
    rig.mem.write64(f * hw::pageSize + 64, 0xabcdef12345ull);

    auto blob = rig.swapOut(7, hw::ghostBase, &err);
    ASSERT_TRUE(blob.has_value()) << err.message;
    EXPECT_FALSE(rig.mmu.probe(hw::ghostBase).has_value());
    // The OS sees only ciphertext.
    EXPECT_EQ(rig.vm.ghostPageCount(7), 0u);

    ASSERT_TRUE(rig.vm.swapInGhostPage(7, 0, hw::ghostBase, *blob,
                                       &err))
        << err.message;
    auto pte2 = rig.mmu.probe(hw::ghostBase);
    ASSERT_TRUE(pte2.has_value());
    hw::Frame f2 = hw::pte::frameNum(*pte2);
    EXPECT_EQ(rig.mem.read64(f2 * hw::pageSize + 64), 0xabcdef12345ull);
}

TEST(SvaGhost, SwapInDetectsTampering)
{
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase, 1, &err));
    auto blob = rig.swapOut(7, hw::ghostBase, &err);
    ASSERT_TRUE(blob.has_value());
    (*blob)[crypto::sealedHeaderBytes + 100] ^= 1;
    EXPECT_FALSE(rig.vm.swapInGhostPage(7, 0, hw::ghostBase, *blob,
                                        &err));
}

TEST(SvaGhost, SwapInRefusesShortFrame)
{
    // A frame too short to hold the nonce and MAC is refused before
    // any cost is charged: the clock does not move, no frame is taken
    // and the slot's generation stays live for the real frame.
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase, 1, &err));
    auto wire = rig.swapOut(7, hw::ghostBase, &err);
    ASSERT_TRUE(wire.has_value()) << err.message;
    uint64_t gen = rig.vm.swapGeneration(7, hw::ghostBase);
    ASSERT_NE(gen, 0u);

    for (size_t len : {size_t(0), crypto::sealedHeaderBytes - 1}) {
        auto now = rig.ctx.clock().now();
        size_t free_before = rig.freeList.size();
        std::vector<uint8_t> frame(wire->begin(),
                                   wire->begin() + long(len));
        EXPECT_FALSE(rig.vm.swapInGhostPage(7, 0, hw::ghostBase, frame,
                                            &err))
            << "len " << len;
        EXPECT_NE(err.message.find("shorter"), std::string::npos);
        EXPECT_EQ(rig.ctx.clock().now(), now);
        EXPECT_EQ(rig.freeList.size(), free_before);
        EXPECT_EQ(rig.vm.swapGeneration(7, hw::ghostBase), gen);
    }
    EXPECT_TRUE(rig.vm.swapInGhostPage(7, 0, hw::ghostBase, *wire, &err))
        << err.message;
}

TEST(SvaGhost, SwapInRejectsReplayToWrongSlot)
{
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase, 2, &err));
    auto blob = rig.swapOut(7, hw::ghostBase, &err);
    ASSERT_TRUE(blob.has_value());
    // Wrong va.
    EXPECT_FALSE(rig.vm.swapInGhostPage(
        7, 0, hw::ghostBase + hw::pageSize, *blob, &err));
    // Wrong pid.
    EXPECT_FALSE(rig.vm.swapInGhostPage(8, 0, hw::ghostBase, *blob,
                                        &err));
    // Right slot works.
    EXPECT_TRUE(rig.vm.swapInGhostPage(7, 0, hw::ghostBase, *blob,
                                       &err))
        << err.message;
}

TEST(SvaGhost, RefusedBatchEvictsNothing)
{
    // A batch holding one foreign va (another process's page) or one
    // va twice is refused whole: every page stays mapped, no frame
    // goes back to the OS and no swap generation is consumed.
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase, 2, &err));
    hw::Vaddr foreign = hw::ghostBase + 2 * hw::pageSize;
    ASSERT_TRUE(rig.vm.allocGhostMemory(8, 0, foreign, 1, &err));
    rig.vm.loadRoot(0, &err);

    uint64_t violations = rig.vm.violationCount();
    size_t free_before = rig.freeList.size();
    EXPECT_TRUE(rig.vm
                    .swapOutGhostBatch(
                        7, 0,
                        {hw::ghostBase, foreign,
                         hw::ghostBase + hw::pageSize},
                        &err)
                    .empty());
    EXPECT_TRUE(rig.vm
                    .swapOutGhostBatch(7, 0,
                                       {hw::ghostBase + hw::pageSize,
                                        hw::ghostBase + hw::pageSize},
                                       &err)
                    .empty());
    EXPECT_EQ(rig.vm.violationCount(), violations + 2);
    EXPECT_EQ(rig.freeList.size(), free_before);
    EXPECT_EQ(rig.vm.ghostPageCount(7), 2u);
    EXPECT_EQ(rig.vm.ghostPageCount(8), 1u);
    for (hw::Vaddr va : {hw::ghostBase, foreign,
                         hw::ghostBase + hw::pageSize}) {
        EXPECT_TRUE(rig.mmu.probe(va).has_value());
        EXPECT_EQ(rig.vm.swapGeneration(7, va), 0u);
    }
    EXPECT_EQ(rig.ctx.stats().get("sva.ghost_pages_swapped_out"), 0u);

    // The next swap-out gets the first generation, as if the refused
    // batch had never been offered.
    ASSERT_TRUE(rig.swapOut(7, hw::ghostBase, &err).has_value())
        << err.message;
    EXPECT_EQ(rig.vm.swapGeneration(7, hw::ghostBase), 1u);
}

TEST(SvaGhost, FailedAllocMapsNothing)
{
    // allocgm is all or nothing: a call the OS cannot fill hands back
    // the frames it already took, and the va range stays free.
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    EXPECT_FALSE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase,
                                         kFrames, &err));
    EXPECT_NE(err.message.find("out of frames"), std::string::npos);
    EXPECT_EQ(rig.vm.ghostPageCount(7), 0u);
    EXPECT_EQ(rig.vm.frames().count(FrameType::Ghost), 0u);
    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase, 1, &err))
        << err.message;
    EXPECT_EQ(rig.vm.ghostPageCount(7), 1u);
}

TEST(SvaGhost, SealKeyCacheRotatesWithKeyChain)
{
    // swapKey() is derived lazily and cached; install()/boot() rotate
    // the key chain and must invalidate the cache, so blobs sealed
    // under the old key are rejected and new seals use the new key.
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase, 3, &err));

    // First seal derives and caches the swap key...
    EXPECT_EQ(rig.vm.sealKeyGeneration(), 0u);
    auto b1 = rig.swapOut(7, hw::ghostBase, &err);
    ASSERT_TRUE(b1.has_value()) << err.message;
    EXPECT_EQ(rig.vm.sealKeyGeneration(), 1u);

    // ...and further seals hit the cache (no re-derivation).
    auto b2 = rig.swapOut(7, hw::ghostBase + hw::pageSize,
                                      &err);
    ASSERT_TRUE(b2.has_value()) << err.message;
    EXPECT_EQ(rig.vm.sealKeyGeneration(), 1u);

    // Rotate the key chain: a fresh private key is installed and the
    // cached swap key must go with it.
    rig.vm.install(384);
    rig.vm.boot();

    // Blobs sealed under the old key fail verification now.
    EXPECT_FALSE(rig.vm.swapInGhostPage(7, 0, hw::ghostBase, *b1, &err));
    EXPECT_FALSE(rig.vm.swapInGhostPage(
        7, 0, hw::ghostBase + hw::pageSize, *b2, &err));
    // The failed attempts re-derived the key from the new chain.
    EXPECT_EQ(rig.vm.sealKeyGeneration(), 2u);

    // New swaps under the rotated key round-trip as usual.
    hw::Vaddr fresh = hw::ghostBase + 2 * hw::pageSize;
    auto b3 = rig.swapOut(7, fresh, &err);
    ASSERT_TRUE(b3.has_value()) << err.message;
    EXPECT_TRUE(rig.vm.swapInGhostPage(7, 0, fresh, *b3, &err))
        << err.message;
    EXPECT_EQ(rig.vm.sealKeyGeneration(), 2u);
}

TEST(SvaGhost, SwapInRequiresGenerationRecord)
{
    // A blob for a slot the VM never swapped out (or already swapped
    // back in) is refused before any crypto runs: there is no trusted
    // generation to bind the MAC to.
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase, 1, &err));
    auto blob = rig.swapOut(7, hw::ghostBase, &err);
    ASSERT_TRUE(blob.has_value());
    ASSERT_TRUE(rig.vm.swapInGhostPage(7, 0, hw::ghostBase, *blob,
                                       &err));

    // The record was retired by the successful swap-in: replaying the
    // same (perfectly valid-looking) blob is refused before any
    // crypto runs.
    EXPECT_FALSE(rig.vm.swapInGhostPage(7, 0, hw::ghostBase, *blob,
                                        &err));
    EXPECT_NE(err.message.find("no swapped page"), std::string::npos);

    // After the page cycles out again the slot has a newer generation,
    // so the stale blob now fails its MAC.
    ASSERT_TRUE(rig.swapOut(7, hw::ghostBase, &err)
                    .has_value());
    EXPECT_FALSE(rig.vm.swapInGhostPage(7, 0, hw::ghostBase, *blob,
                                        &err));
    EXPECT_NE(err.message.find("verification"), std::string::npos);
}

TEST(SvaGhost, ReleaseFreesEverything)
{
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    ASSERT_TRUE(rig.vm.allocGhostMemory(7, 0, hw::ghostBase, 8, &err));
    EXPECT_EQ(rig.vm.ghostPageCount(7), 8u);
    rig.vm.releaseGhostMemory(7, 0);
    EXPECT_EQ(rig.vm.ghostPageCount(7), 0u);
    EXPECT_EQ(rig.vm.frames().count(FrameType::Ghost), 0u);
}

// --------------------------------------------------------------------
// Threads / Interrupt Contexts
// --------------------------------------------------------------------

TEST(SvaThreads, NewStateValidatesKernelEntry)
{
    Rig rig;
    SvaError err;
    EXPECT_EQ(rig.vm.newThread(1, 0xbad, 0, &err), nullptr);
    rig.vm.registerKernelEntry(0x1000);
    SvaThread *t = rig.vm.newThread(1, 0x1000, 0, &err);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->processId, 1u);
}

TEST(SvaThreads, CloneCopiesInterruptContext)
{
    Rig rig;
    SvaError err;
    rig.vm.registerKernelEntry(0x1000);
    SvaThread *parent = rig.vm.newThread(1, 0x1000, 0, &err);
    ASSERT_NE(parent, nullptr);
    parent->ic.pc = 0x4444;
    parent->ic.regs[3] = 99;
    SvaThread *child = rig.vm.newThread(2, 0x1000, parent->id, &err);
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->ic.pc, 0x4444u);
    EXPECT_EQ(child->ic.regs[3], 99u);
}

TEST(SvaThreads, IcontextSaveLoadStack)
{
    Rig rig;
    SvaError err;
    rig.vm.registerKernelEntry(0x1000);
    SvaThread *t = rig.vm.newThread(1, 0x1000, 0, &err);
    ASSERT_NE(t, nullptr);

    t->ic.pc = 0xaaa;
    ASSERT_TRUE(rig.vm.icontextSave(t->id, &err));
    t->ic.pc = 0xbbb; // signal handler running
    ASSERT_TRUE(rig.vm.icontextLoad(t->id, &err));
    EXPECT_EQ(t->ic.pc, 0xaaau);
    EXPECT_FALSE(rig.vm.icontextLoad(t->id, &err)); // stack empty
}

TEST(SvaThreads, IpushRequiresPermittedFunction)
{
    Rig rig;
    SvaError err;
    rig.vm.registerKernelEntry(0x1000);
    SvaThread *t = rig.vm.newThread(1, 0x1000, 0, &err);
    ASSERT_NE(t, nullptr);

    // The exploit path: kernel pushes unregistered "code".
    EXPECT_FALSE(rig.vm.ipushFunction(t->id, 0xdead, 0, &err));
    EXPECT_TRUE(t->pushedCalls.empty());

    // Legitimate path after sva.permitFunction.
    rig.vm.permitFunction(1, 0x7777);
    ASSERT_TRUE(rig.vm.ipushFunction(t->id, 0x7777, 14, &err))
        << err.message;
    ASSERT_EQ(t->pushedCalls.size(), 1u);
    EXPECT_EQ(t->pushedCalls[0].handler, 0x7777u);
    EXPECT_EQ(t->pushedCalls[0].arg, 14u);
}

TEST(SvaThreads, ReinitClearsStateAndGhost)
{
    Rig rig;
    SvaError err;
    ASSERT_TRUE(rig.vm.declarePtPage(0, 4, &err));
    rig.vm.registerKernelEntry(0x1000);
    SvaThread *t = rig.vm.newThread(5, 0x1000, 0, &err);
    ASSERT_NE(t, nullptr);
    ASSERT_TRUE(rig.vm.allocGhostMemory(5, 0, hw::ghostBase, 2, &err));
    rig.vm.permitFunction(5, 0x7777);
    rig.vm.ipushFunction(t->id, 0x7777, 0, &err);

    ASSERT_TRUE(rig.vm.reinitIcontext(t->id, 0x400000, 0x7ff000, 0,
                                      &err));
    EXPECT_EQ(t->ic.pc, 0x400000u);
    EXPECT_TRUE(t->pushedCalls.empty());
    EXPECT_EQ(rig.vm.ghostPageCount(5), 0u);
    // Old registrations are gone.
    EXPECT_FALSE(rig.vm.ipushFunction(t->id, 0x7777, 0, &err));
}

TEST(SvaThreads, SyscallGateChargesAndMarks)
{
    Rig rig;
    SvaError err;
    rig.vm.registerKernelEntry(0x1000);
    SvaThread *t = rig.vm.newThread(1, 0x1000, 0, &err);
    sim::Cycles before = rig.ctx.clock().now();
    rig.vm.syscallEnter(t->id);
    rig.vm.syscallExit(t->id);
    EXPECT_GT(rig.ctx.clock().now(), before);
    EXPECT_EQ(rig.ctx.stats().get("sva.syscalls"), 1u);
}

// --------------------------------------------------------------------
// Keys
// --------------------------------------------------------------------

TEST(SvaKeys, PackageValidateBindGetKey)
{
    Rig rig;
    crypto::AesKey app_key{};
    for (int i = 0; i < 16; i++)
        app_key[size_t(i)] = uint8_t(i * 3);

    AppBinary binary = rig.vm.packageApp("ssh", "sshcode-v1", app_key);
    SvaError err;
    EXPECT_TRUE(rig.vm.validateAppBinary(binary, &err)) << err.message;
    ASSERT_TRUE(rig.vm.bindProcessToApp(42, binary, &err))
        << err.message;

    auto got = rig.vm.getKey(42);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, app_key);

    EXPECT_FALSE(rig.vm.getKey(43).has_value());
    rig.vm.unbindProcess(42);
    EXPECT_FALSE(rig.vm.getKey(42).has_value());
}

TEST(SvaKeys, TamperedBinaryRefused)
{
    Rig rig;
    crypto::AesKey app_key{};
    AppBinary binary = rig.vm.packageApp("agent", "agentcode", app_key);
    SvaError err;

    AppBinary wrong_code = binary;
    wrong_code.codeIdentity = "evil-code";
    EXPECT_FALSE(rig.vm.validateAppBinary(wrong_code, &err));

    AppBinary wrong_key = binary;
    wrong_key.keySection[5] ^= 1;
    EXPECT_FALSE(rig.vm.validateAppBinary(wrong_key, &err));
    EXPECT_FALSE(rig.vm.bindProcessToApp(1, wrong_key, &err));

    AppBinary wrong_sig = binary;
    wrong_sig.signature[5] ^= 1;
    EXPECT_FALSE(rig.vm.validateAppBinary(wrong_sig, &err));
}

TEST(SvaKeys, KeySectionIsNotPlaintext)
{
    Rig rig;
    crypto::AesKey app_key{};
    for (int i = 0; i < 16; i++)
        app_key[size_t(i)] = uint8_t(0x40 + i);
    AppBinary binary = rig.vm.packageApp("a", "c", app_key);
    // The OS reading the binary must not find the key bytes.
    std::string section(binary.keySection.begin(),
                        binary.keySection.end());
    std::string key_str(app_key.begin(), app_key.end());
    EXPECT_EQ(section.find(key_str), std::string::npos);
}

// --------------------------------------------------------------------
// Randomness + translator
// --------------------------------------------------------------------

TEST(SvaRandom, FillsAndCharges)
{
    Rig rig;
    uint8_t buf[64] = {0};
    sim::Cycles before = rig.ctx.clock().now();
    rig.vm.secureRandom(buf, sizeof(buf));
    EXPECT_GT(rig.ctx.clock().now(), before);
    bool any_nonzero = false;
    for (uint8_t b : buf)
        any_nonzero |= b != 0;
    EXPECT_TRUE(any_nonzero);
}

TEST(SvaTranslate, ModulesGetDisjointCodeRegions)
{
    Rig rig;
    auto t1 = rig.vm.translateKernelModule(
        "func @a(0) {\nentry:\n  %0 = const 1\n  ret %0\n}\n");
    auto t2 = rig.vm.translateKernelModule(
        "func @b(0) {\nentry:\n  %0 = const 2\n  ret %0\n}\n");
    ASSERT_TRUE(t1.ok && t2.ok);
    EXPECT_GE(t2.image->codeBase, t1.image->codeEnd());
    EXPECT_TRUE(rig.vm.verifyImage(*t1.image));
    EXPECT_TRUE(rig.vm.verifyImage(*t2.image));
}

TEST(SvaTranslate, TamperedImageRefused)
{
    Rig rig;
    auto t = rig.vm.translateKernelModule(
        "func @a(0) {\nentry:\n  %0 = const 1\n  ret %0\n}\n");
    ASSERT_TRUE(t.ok);
    cc::MachineImage tampered = *t.image;
    tampered.code[1].imm = 0x666;
    EXPECT_FALSE(rig.vm.verifyImage(tampered));
}
