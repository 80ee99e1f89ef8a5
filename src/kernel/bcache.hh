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
#include <list>
#include <unordered_map>
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

/** LRU write-back cache. The capacity must be at least 3: Fs::bmap's
 *  double-indirect path keeps three blocks live at once. */
class BufferCache
{
  public:
    BufferCache(hw::Disk &disk, sim::SimContext &ctx,
                uint64_t capacity_blocks = 4096);

    /** Get a block, reading from disk on a miss. The pointer stays
     *  valid until the next cache operation. */
    Buf *get(uint64_t block_no);

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

    /** Drop a block without writeback (e.g. freed block). */
    void invalidate(uint64_t block_no);

    /** The device under the cache. */
    hw::Disk &disk() { return _disk; }

    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _misses; }

    /** Simulated time the last ring writeback completes (0 = none). */
    uint64_t flushBarrier() const { return _flushDone; }

  private:
    /** Hash lookup + LRU maintenance for @p n accesses: a handful of
     *  instrumented kernel memory operations each. */
    void
    chargeLookups(uint64_t n)
    {
        _ctx.chargeKernelWork(10 * n, 5 * n, n);
    }

    void evictIfNeeded();
    void writeback(Buf &buf);
    void ringRead(Buf &buf);

    hw::Disk &_disk;
    sim::SimContext &_ctx;
    uint64_t _flushDone = 0;
    uint64_t _capacity;
    std::list<Buf> _lru; // front = most recent
    std::unordered_map<uint64_t, std::list<Buf>::iterator> _index;
    uint64_t _hits = 0;
    uint64_t _misses = 0;
    sim::StatHandle _hHits;
    sim::StatHandle _hMisses;
    sim::StatHandle _hZeroFills;
    sim::StatHandle _hWritebacks;
};

} // namespace vg::kern

#endif // VG_KERNEL_BCACHE_HH
