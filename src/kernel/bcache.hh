/**
 * @file
 * Write-back buffer cache over the block device.
 *
 * Postmark and the LMBench file benchmarks run with buffered I/O; the
 * cache means their cost is dominated by instrumented kernel metadata
 * work rather than device time, which is what produces the paper's
 * ~4.5-5x file-operation overheads under Virtual Ghost.
 */

#ifndef VG_KERNEL_BCACHE_HH
#define VG_KERNEL_BCACHE_HH

#include <cstdint>
#include <vector>

#include "hw/disk.hh"
#include "sim/context.hh"

namespace vg::kern
{

/** One cached block. */
struct Buf
{
    uint64_t blockNo = 0;
    bool dirty = false;
    std::vector<uint8_t> data;
};

/**
 * LRU write-back cache of at most `capacity` blocks; the capacity must
 * be at least 3, since Fs::bmap's double-indirect path keeps three
 * blocks live at once. The host side is flat (DESIGN §21, "The buffer
 * cache"): the blocks sit in a slot array that never reallocates, so a
 * Buf* stays put while its block is cached; the LRU is a list of slot
 * indices; a table indexed by block number finds a block's slot; and
 * an evicted slot keeps its buffer for the next miss.
 */
class BufferCache
{
  public:
    BufferCache(hw::Disk &disk, sim::SimContext &ctx,
                uint64_t capacity_blocks = 4096);

    /** Get a block, reading from disk on a miss. The pointer stays
     *  valid until the block is evicted or dropped. */
    Buf *
    get(uint64_t block_no)
    {
        chargeLookups(1);
        uint32_t slot = slotOf(block_no);
        if (slot == noSlot) {
            Buf &buf = admit(block_no);
            ringRead(buf);
            return &buf;
        }
        touch(slot);
        return &_slots[slot].buf;
    }

    /** Account @p n more get()s of blocks already at the LRU front:
     *  the same charge and hit count as n real hits, with the LRU
     *  order unchanged. Scans that reread the block they just fetched
     *  replay their later accesses through this. */
    void repeatHits(uint64_t n);

    /** Get a block that is about to be fully overwritten: on a miss
     *  the buffer is created zeroed *without* touching the device
     *  (freshly allocated data blocks never need a read). */
    Buf *getZeroed(uint64_t block_no);

    /** Drop every clean block and write back dirty ones (cold-cache
     *  experiments). */
    void dropAll();

    /** Mark a buffer dirty (after mutating its data). */
    void markDirty(Buf *buf) { buf->dirty = true; }

    /** Write every dirty block back to the device. The writebacks are
     *  queued through the disk ring and this acts as the durability
     *  barrier: it stalls to the last completion. */
    void sync();

    /** The device under the cache. */
    hw::Disk &disk() { return _disk; }

    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _misses; }

    /** Simulated time the last ring writeback completes (0 = none). */
    uint64_t flushBarrier() const { return _flushDone; }

  private:
    /** No slot: an uncached block, or the end of the LRU list. */
    static constexpr uint32_t noSlot = ~0u;

    struct Slot
    {
        Buf buf;
        uint32_t prev = noSlot; ///< towards the LRU front
        uint32_t next = noSlot; ///< towards the LRU tail
    };

    /** Hash lookup + LRU maintenance for @p n accesses: a handful of
     *  instrumented kernel memory operations each. */
    void
    chargeLookups(uint64_t n)
    {
        _ctx.chargeKernelWork(10 * n, 5 * n, n);
    }

    /** The slot caching @p block_no, or noSlot (also for a block past
     *  the device, which the miss path hands to the device's check). */
    uint32_t
    slotOf(uint64_t block_no) const
    {
        return block_no < _slotOf.size() ? _slotOf[block_no] : noSlot;
    }

    /** Count a hit on @p slot and move it to the LRU front. */
    void
    touch(uint32_t slot)
    {
        _hits++;
        sim::StatSet::add(_hHits);
        if (slot != _head) {
            unlink(slot);
            pushFront(slot);
        }
    }

    void
    unlink(uint32_t slot)
    {
        Slot &s = _slots[slot];
        (s.prev == noSlot ? _head : _slots[s.prev].next) = s.next;
        (s.next == noSlot ? _tail : _slots[s.next].prev) = s.prev;
    }

    void
    pushFront(uint32_t slot)
    {
        Slot &s = _slots[slot];
        s.prev = noSlot;
        s.next = _head;
        (_head == noSlot ? _tail : _slots[_head].prev) = slot;
        _head = slot;
    }

    /** Count a miss on @p block_no and give it a slot at the LRU front,
     *  evicting the tail first when the cache is full. The buffer holds
     *  whatever its last block left there. */
    Buf &admit(uint64_t block_no);
    void evictIfNeeded();
    void writeback(Buf &buf);
    void ringRead(Buf &buf);

    hw::Disk &_disk;
    sim::SimContext &_ctx;
    uint64_t _flushDone = 0;
    uint64_t _capacity;
    /** Every slot ever used; reserved up front, so it never moves. */
    std::vector<Slot> _slots;
    /** Block number -> slot (noSlot: not cached). */
    std::vector<uint32_t> _slotOf;
    /** Slots off the LRU list, their buffers kept for reuse. */
    std::vector<uint32_t> _spare;
    uint32_t _head = noSlot; // most recent
    uint32_t _tail = noSlot; // least recent
    uint64_t _hits = 0;
    uint64_t _misses = 0;
    sim::StatHandle _hHits;
    sim::StatHandle _hMisses;
    sim::StatHandle _hZeroFills;
    sim::StatHandle _hWritebacks;
};

} // namespace vg::kern

#endif // VG_KERNEL_BCACHE_HH
