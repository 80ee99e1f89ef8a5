/**
 * @file
 * Kernel-level ghost swapping (S 3.3) and the DMA attack vector
 * (S 2.2.1 / S 4.3.3): the OS may swap ghost pages but sees only
 * ciphertext; devices cannot be pointed at ghost frames.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "kernel/system.hh"

using namespace vg;
using namespace vg::kern;

namespace
{

SystemConfig
cfg(sim::VgConfig vg = sim::VgConfig::full())
{
    SystemConfig c;
    c.vg = vg;
    c.memFrames = 4096;
    c.diskBlocks = 4096;
    c.rsaBits = 384;
    return c;
}

/** Act as the OS: aim one disk request by DMA at @p pa, doorbell and
 *  reap it. True when the IOMMU refused the slot. */
bool
diskDmaBlocked(System &sys, uint64_t block, hw::Paddr pa, bool write)
{
    hw::RingDesc d;
    d.block = block;
    d.pa = pa;
    d.write = write;
    d.useDma = true;
    EXPECT_TRUE(sys.disk().submit(d));
    sys.disk().doorbell();
    std::vector<hw::RingCompletion> done = sys.disk().reapAll();
    EXPECT_EQ(done.size(), 1u);
    return !done.empty() && done.front().error;
}

} // namespace

TEST(GhostSwap, RoundtripThroughOsSwapStore)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("swapper", [&](UserApi &api) {
        hw::Vaddr gva = api.allocGhost(4);
        const char *secret = "swap me out and back";
        EXPECT_TRUE(api.ghostWrite(gva, secret, 20));
        EXPECT_TRUE(api.ghostWrite(gva + 3 * hw::pageSize, "tail", 4));

        // Memory pressure: the OS swaps all four pages out.
        EXPECT_EQ(sys.kernel().swapOutGhost(api.pid(), 100), 4u);
        EXPECT_EQ(sys.vm().ghostPageCount(api.pid()), 0u);
        EXPECT_EQ(sys.kernel().swappedGhostPages(api.pid()), 4u);

        // Transparent swap-in on the next access.
        char back[24] = {};
        EXPECT_TRUE(api.ghostRead(gva, back, 20));
        EXPECT_EQ(std::memcmp(back, secret, 20), 0);
        EXPECT_TRUE(api.ghostRead(gva + 3 * hw::pageSize, back, 4));
        EXPECT_EQ(std::memcmp(back, "tail", 4), 0);
        EXPECT_EQ(sys.kernel().swappedGhostPages(api.pid()), 2u);
        EXPECT_GT(sys.ctx().stats().get("kernel.ghost_swapins"), 0u);
        return 0;
    });
}

TEST(GhostSwap, OsSeesOnlyCiphertext)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("swapper", [&](UserApi &api) {
        hw::Vaddr gva = api.allocGhost(1);
        const char *secret = "PLAINTEXT-MARKER";
        api.ghostWrite(gva, secret, 16);
        sys.kernel().swapOutGhost(api.pid(), 1);

        // The OS can read the swap slot back — and sees ciphertext.
        auto wire = sys.kernel().readSwappedBlob(api.pid(), gva);
        EXPECT_TRUE(wire.has_value());
        if (!wire)
            return 1;
        EXPECT_EQ(wire->size(), crypto::sealedHeaderBytes + hw::pageSize);
        std::string ct(wire->begin() + long(crypto::sealedHeaderBytes),
                       wire->end());
        EXPECT_EQ(ct.find(secret), std::string::npos);

        // Same story on the raw platter: the slot's disk blocks hold
        // no plaintext either.
        auto block = sys.kernel().swapSlotBlock(api.pid(), gva);
        EXPECT_TRUE(block.has_value());
        if (!block)
            return 1;
        std::string raw(
            reinterpret_cast<char *>(sys.disk().rawBlock(*block)),
            hw::Disk::blockSize);
        EXPECT_EQ(raw.find(secret), std::string::npos);
        return 0;
    });
}

TEST(GhostSwap, TamperedSwapPageRefused)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("swapper", [&](UserApi &api) {
        hw::Vaddr gva = api.allocGhost(1);
        api.ghostWrite(gva, "x", 1);
        sys.kernel().swapOutGhost(api.pid(), 1);

        // Hostile OS flips a ciphertext bit directly on the platter
        // (the swap slot is ordinary disk blocks it fully controls).
        auto block = sys.kernel().swapSlotBlock(api.pid(), gva);
        EXPECT_TRUE(block.has_value());
        if (!block)
            return 1;
        sys.disk().rawBlock(*block)[crypto::sealedHeaderBytes + 17] ^= 0x40;

        char c = 0;
        EXPECT_FALSE(api.ghostRead(gva, &c, 1));
        EXPECT_GT(sys.vm().violationCount(), 0u);
        return 0;
    });
}

TEST(GhostSwap, RefusedSwapInIsCounted)
{
    System sys(cfg());
    sys.boot();
    const auto &stats = sys.ctx().stats().all();
    sys.runProcess("swapper", [&](UserApi &api) {
        hw::Vaddr gva = api.allocGhost(2);
        api.ghostWrite(gva, "x", 1);
        api.ghostWrite(gva + hw::pageSize, "y", 1);

        // Evict both and tamper with the second page's slot on disk.
        sys.kernel().swapOutGhost(api.pid(), 2);
        hw::Vaddr bad = gva + hw::pageSize;
        auto block = sys.kernel().swapSlotBlock(api.pid(), bad);
        EXPECT_TRUE(block.has_value());
        if (!block)
            return 1;
        sys.disk().rawBlock(*block)[crypto::sealedHeaderBytes + 5] ^= 1;

        // A clean fault-back leaves no refusal counter.
        char c = 0;
        EXPECT_TRUE(api.ghostRead(gva, &c, 1));
        EXPECT_EQ(stats.count("kernel.ghost_swapins_refused"), 0u);

        // The tampered page's fault is refused, counted once, and its
        // ciphertext stays in its slot.
        uint64_t swapins = sys.ctx().stats().get("kernel.ghost_swapins");
        EXPECT_FALSE(api.ghostRead(bad, &c, 1));
        EXPECT_EQ(sys.ctx().stats().get("kernel.ghost_swapins_refused"),
                  1u);
        EXPECT_EQ(sys.ctx().stats().get("kernel.ghost_swapins"), swapins);
        EXPECT_EQ(sys.kernel().swappedGhostPages(api.pid()), 1u);
        return 0;
    });
}

TEST(GhostSwap, FrameReturnedToOsIsScrubbed)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("swapper", [&](UserApi &api) {
        hw::Vaddr gva = api.allocGhost(1);
        api.ghostWrite(gva, "SCRUBME!", 8);
        // Find the physical frame before swap-out.
        auto pte = sys.mmu().probe(gva);
        EXPECT_TRUE(pte.has_value());
        if (!pte)
            return 1;
        hw::Frame frame = hw::pte::frameNum(*pte);

        sys.kernel().swapOutGhost(api.pid(), 1);
        // The returned frame holds zeroes, not the secret.
        uint64_t word = sys.mem().read64(frame * hw::pageSize);
        EXPECT_EQ(word, 0u);
        return 0;
    });
}

// --------------------------------------------------------------------
// DMA attacks (S 2.2.1 bullet 3, defended per S 4.3.3)
// --------------------------------------------------------------------

TEST(DmaAttack, DiskCannotReadGhostFrames)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("victim", [&](UserApi &api) {
        hw::Vaddr gva = api.allocGhost(1);
        api.ghostWrite(gva, "DMA-TARGET-SECRET", 17);
        auto pte = sys.mmu().probe(gva);
        EXPECT_TRUE(pte.has_value());
        if (!pte)
            return 1;
        hw::Paddr pa = hw::pte::frameAddr(*pte);

        // Hostile OS points the disk controller at the ghost frame.
        EXPECT_TRUE(diskDmaBlocked(sys, 7, pa, true));  // exfiltrate
        EXPECT_TRUE(diskDmaBlocked(sys, 7, pa, false)); // corrupt
        EXPECT_GT(sys.iommu().blockedCount(), 0u);

        // Nothing reached the platter.
        std::string block(reinterpret_cast<char *>(sys.disk()
                                                       .rawBlock(7)),
                          hw::Disk::blockSize);
        EXPECT_EQ(block.find("DMA-TARGET-SECRET"), std::string::npos);
        return 0;
    });
}

TEST(DmaAttack, PageTableAndSvaFramesAlsoProtected)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("victim", [&](UserApi &api) {
        // The process root table frame is a PT frame.
        hw::Frame root = api.proc().rootFrame;
        EXPECT_TRUE(diskDmaBlocked(sys, 3, root * hw::pageSize, true));
        EXPECT_TRUE(diskDmaBlocked(sys, 3, root * hw::pageSize, false));
        return 0;
    });
}

// --------------------------------------------------------------------
// Ring attacks: the descriptor-ring interface is a
// new hostile-OS surface — a descriptor can aim the device's DMA at a
// ghost frame, and the completion interface can be fed stale indices.
// Both must be blocked and counted, with zero disclosure.
// --------------------------------------------------------------------

TEST(RingAttack, NicTxDescriptorAtGhostFrameBlocked)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("victim", [&](UserApi &api) {
        hw::Vaddr gva = api.allocGhost(1);
        api.ghostWrite(gva, "RING-GHOST-SECRET", 17);
        auto pte = sys.mmu().probe(gva);
        EXPECT_TRUE(pte.has_value());
        if (!pte)
            return 1;
        hw::Paddr pa = hw::pte::frameAddr(*pte);

        hw::Nic nic_a(sys.iommu(), sys.ctx());
        hw::Nic nic_b(sys.iommu(), sys.ctx());
        nic_a.connectTo(&nic_b);
        nic_b.connectTo(&nic_a);

        // Hostile OS posts a TX descriptor whose DMA address is the
        // ghost frame, then rings the doorbell. (This is also the NIC
        // half of the DMA attack: the descriptor queue is the NIC's
        // only way to read memory.)
        hw::RingDesc d;
        d.pa = pa;
        d.len = 64;
        d.useDma = true;
        EXPECT_TRUE(nic_a.txPost(d));
        nic_a.txDoorbell();

        // The slot completes with an error; the IOMMU refused the
        // read, the attempt was counted, and nothing hit the wire.
        auto comps = nic_a.txReapAll();
        EXPECT_EQ(comps.size(), 1u);
        if (comps.size() != 1)
            return 1;
        EXPECT_TRUE(comps[0].error);
        EXPECT_EQ(nic_a.ringBlockedDma(), 1u);
        EXPECT_GT(sys.ctx().stats().get("nic.ring_blocked_dma"), 0u);
        EXPECT_GT(sys.iommu().blockedCount(), 0u);
        EXPECT_FALSE(nic_b.hasPacket());
        return 0;
    });
}

TEST(RingAttack, NicRxDescriptorAtGhostFrameBlocked)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("victim", [&](UserApi &api) {
        hw::Vaddr gva = api.allocGhost(1);
        api.ghostWrite(gva, "keepout", 7);
        auto pte = sys.mmu().probe(gva);
        EXPECT_TRUE(pte.has_value());
        if (!pte)
            return 1;
        hw::Paddr pa = hw::pte::frameAddr(*pte);

        hw::Nic nic_a(sys.iommu(), sys.ctx());
        hw::Nic nic_b(sys.iommu(), sys.ctx());
        nic_a.connectTo(&nic_b);
        nic_b.connectTo(&nic_a);
        nic_a.send(std::vector<uint8_t>(64, 0x55));

        // Hostile OS posts an RX buffer over the ghost frame,
        // attempting to corrupt ghost memory via device write.
        hw::RingDesc d;
        d.pa = pa;
        d.len = 64;
        d.useDma = true;
        EXPECT_TRUE(nic_b.rxPost(d));
        nic_b.rxDoorbell();

        auto comps = nic_b.rxReapAll();
        EXPECT_EQ(comps.size(), 1u);
        if (comps.size() != 1)
            return 1;
        EXPECT_TRUE(comps[0].error);
        EXPECT_EQ(nic_b.ringBlockedDma(), 1u);

        // The ghost page is untouched.
        char back[8] = {};
        EXPECT_TRUE(api.ghostRead(gva, back, 7));
        EXPECT_EQ(std::memcmp(back, "keepout", 7), 0);
        return 0;
    });
}

TEST(RingAttack, DiskRingDescriptorAtGhostFrameBlocked)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("victim", [&](UserApi &api) {
        hw::Vaddr gva = api.allocGhost(1);
        api.ghostWrite(gva, "DISK-RING-SECRET", 16);
        auto pte = sys.mmu().probe(gva);
        EXPECT_TRUE(pte.has_value());
        if (!pte)
            return 1;
        hw::Paddr pa = hw::pte::frameAddr(*pte);

        // Exfiltrate: write-to-disk request sourced from the ghost
        // frame.
        hw::RingDesc wr;
        wr.block = 11;
        wr.pa = pa;
        wr.useDma = true;
        wr.write = true;
        EXPECT_TRUE(sys.disk().submit(wr));
        sys.disk().doorbell();
        auto comps = sys.disk().reapAll();
        EXPECT_EQ(comps.size(), 1u);
        if (comps.size() != 1)
            return 1;
        EXPECT_TRUE(comps[0].error);
        EXPECT_GE(sys.disk().ringBlockedDma(), 1u);
        EXPECT_GT(sys.ctx().stats().get("disk.ring_blocked_dma"), 0u);
        std::string block(
            reinterpret_cast<char *>(sys.disk().rawBlock(11)),
            hw::Disk::blockSize);
        EXPECT_EQ(block.find("DISK-RING-SECRET"), std::string::npos);

        // Corrupt: read-from-disk request aimed at the ghost frame.
        hw::RingDesc rd;
        rd.block = 11;
        rd.pa = pa;
        rd.useDma = true;
        EXPECT_TRUE(sys.disk().submit(rd));
        sys.disk().doorbell();
        comps = sys.disk().reapAll();
        EXPECT_EQ(comps.size(), 1u);
        if (comps.size() != 1)
            return 1;
        EXPECT_TRUE(comps[0].error);
        char back[17] = {};
        EXPECT_TRUE(api.ghostRead(gva, back, 16));
        EXPECT_EQ(std::memcmp(back, "DISK-RING-SECRET", 16), 0);
        return 0;
    });
}

TEST(RingAttack, StaleCompletionReplayRejected)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("victim", [&](UserApi &api) {
        (void)api;
        hw::Nic nic_a(sys.iommu(), sys.ctx());
        hw::Nic nic_b(sys.iommu(), sys.ctx());
        nic_a.connectTo(&nic_b);
        nic_b.connectTo(&nic_a);

        std::vector<uint8_t> payload(64, 0x2a);
        hw::RingDesc d;
        d.host = payload.data();
        d.len = 64;
        EXPECT_TRUE(nic_a.txPost(d));
        nic_a.txDoorbell();
        auto comps = nic_a.txReapAll();
        EXPECT_EQ(comps.size(), 1u);
        if (comps.size() != 1)
            return 1;
        uint32_t index = comps[0].index;
        uint32_t gen = comps[0].gen;

        // reapAll() already freed the slot and bumped its generation;
        // a hostile OS replaying the old (index, gen) pair must be
        // rejected and counted, not double-free the slot.
        EXPECT_FALSE(nic_a.txReapAt(index, gen));
        EXPECT_EQ(nic_a.staleCompletions(), 1u);
        EXPECT_GT(sys.ctx().stats().get("nic.stale_completions"), 0u);

        // A second in-flight descriptor reaped once by (index, gen)
        // works; the immediate replay of the same pair does not.
        EXPECT_TRUE(nic_a.txPost(d));
        nic_a.txDoorbell();
        const hw::DescRing &ring = nic_a.txRing();
        uint32_t idx2 = 0;
        uint32_t gen2 = 0;
        for (uint32_t i = 0; i < ring.size(); i++)
            if (ring.slot(i).state == hw::DescRing::Slot::Done) {
                idx2 = i;
                gen2 = ring.slot(i).gen;
            }
        EXPECT_TRUE(nic_a.txReapAt(idx2, gen2));
        EXPECT_FALSE(nic_a.txReapAt(idx2, gen2));
        EXPECT_EQ(nic_a.staleCompletions(), 2u);
        return 0;
    });
}

TEST(DmaAttack, BaselineKernelIsVulnerable)
{
    // Without VG the same DMA succeeds — the protection, not the
    // device model, is what stops it.
    System sys(cfg(sim::VgConfig::native()));
    sys.boot();
    sys.runProcess("victim", [&](UserApi &api) {
        hw::Vaddr va = api.mmap(hw::pageSize);
        api.poke(va, 8, 0x1122334455667788ull);
        hw::Paddr pa = 0;
        // Resolve through the page tables via a peek side effect.
        auto pte = sys.mmu().probe(va);
        EXPECT_TRUE(pte.has_value());
        if (!pte)
            return 1;
        pa = hw::pte::frameAddr(*pte);
        EXPECT_FALSE(diskDmaBlocked(sys, 9, pa, true));
        uint64_t leaked = 0;
        std::memcpy(&leaked, sys.disk().rawBlock(9), 8);
        EXPECT_EQ(leaked, 0x1122334455667788ull);
        return 0;
    });
}
