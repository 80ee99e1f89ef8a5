/**
 * @file
 * GhostHeap allocator internals: coalescing, alignment, fragmentation
 * behaviour, zero-size and double-free handling.
 */

#include <gtest/gtest.h>

#include "ghost/gmalloc.hh"
#include "kernel/system.hh"

using namespace vg;
using namespace vg::kern;
using namespace vg::ghost;

namespace
{

SystemConfig
cfg()
{
    SystemConfig c;
    c.memFrames = 4096;
    c.diskBlocks = 2048;
    c.rsaBits = 384;
    return c;
}

} // namespace

TEST(GhostHeapUnit, ZeroSizeAllocationsAreDistinct)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("h", [](UserApi &api) {
        GhostHeap heap(api);
        hw::Vaddr a = heap.gmalloc(0);
        hw::Vaddr b = heap.gmalloc(0);
        EXPECT_NE(a, 0u);
        EXPECT_NE(b, 0u);
        EXPECT_NE(a, b);
        return 0;
    });
}

TEST(GhostHeapUnit, AdjacentFreesCoalesce)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("h", [](UserApi &api) {
        GhostHeap heap(api);
        hw::Vaddr a = heap.gmalloc(1000);
        hw::Vaddr b = heap.gmalloc(1000);
        hw::Vaddr c = heap.gmalloc(1000);
        EXPECT_EQ(b, a + 1008); // 16-aligned blocks packed tight
        heap.gfree(a);
        heap.gfree(b);
        // Coalesced hole of 2016 bytes: a 1500-byte block fits at a.
        hw::Vaddr d = heap.gmalloc(1500);
        EXPECT_EQ(d, a);
        heap.gfree(c);
        heap.gfree(d);
        EXPECT_EQ(heap.bytesInUse(), 0u);
        return 0;
    });
}

TEST(GhostHeapUnit, DoubleFreeAndForeignFreeIgnored)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("h", [](UserApi &api) {
        GhostHeap heap(api);
        hw::Vaddr a = heap.gmalloc(64);
        heap.gfree(a);
        uint64_t in_use = heap.bytesInUse();
        heap.gfree(a);                      // double free
        heap.gfree(a + 8);                  // interior pointer
        heap.gfree(hw::ghostBase + (1ull << 30)); // never allocated
        EXPECT_EQ(heap.bytesInUse(), in_use);
        return 0;
    });
}

TEST(GhostHeapUnit, ManySmallAllocationsStressFreelist)
{
    System sys(cfg());
    sys.boot();
    sys.runProcess("h", [&](UserApi &api) {
        GhostHeap heap(api);
        crypto::CtrDrbg rng({'g', 'h'});
        std::vector<hw::Vaddr> blocks;
        for (int round = 0; round < 600; round++) {
            if (blocks.empty() || rng.nextBounded(3) > 0) {
                hw::Vaddr va =
                    heap.gmalloc(rng.nextBounded(500) + 1);
                EXPECT_NE(va, 0u);
                blocks.push_back(va);
            } else {
                size_t idx = rng.nextBounded(blocks.size());
                heap.gfree(blocks[idx]);
                blocks[idx] = blocks.back();
                blocks.pop_back();
            }
        }
        uint64_t in_use = heap.bytesInUse();
        EXPECT_GT(in_use, 0u);
        for (hw::Vaddr va : blocks)
            heap.gfree(va);
        EXPECT_EQ(heap.bytesInUse(), 0u);
        return 0;
    });
    // Releasing the process returned every ghost frame.
    EXPECT_EQ(sys.vm().frames().count(sva::FrameType::Ghost), 0u);
}
