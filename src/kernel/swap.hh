/**
 * @file
 * Ghost paging subsystem: the on-disk swap area and the second-chance
 * eviction clock.
 *
 * The swap area is carved from the tail of the disk and sits *behind*
 * the NCQ request queue: an eviction batch is posted as a run of write
 * descriptors and the doorbell rings once per batch, so the CPU never
 * stalls for media latency (the paper's OS-managed swap of ghost pages
 * it can never read, made batched and asynchronous). The OS stores
 * only ciphertext: sealing happened in the VM before the bytes got
 * here, and the slot table records only (pid, va, generation, length)
 * — bookkeeping, not secrets.
 *
 * The clock tracks every *resident* ghost page machine-wide. Victims
 * are picked second-chance: a page whose hardware reference bit is set
 * gets the bit cleared and survives one sweep; unreferenced pages are
 * evicted. Batching only groups the writeback, never the policy.
 */

#ifndef VG_KERNEL_SWAP_HH
#define VG_KERNEL_SWAP_HH

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "hw/disk.hh"

namespace vg::kern
{

/** One swap slot: blocksPerSlot contiguous disk blocks holding a
 *  sealed page's wire bytes, plus untrusted OS bookkeeping. */
struct SwapSlot
{
    uint64_t pid = 0;
    hw::Vaddr va = 0;
    /** Mirror of the VM's swap generation (observability only — the
     *  authoritative copy is VM-trusted state the OS cannot edit). */
    uint64_t gen = 0;
    uint32_t len = 0; ///< sealed wire bytes
    bool used = false;
};

/** The on-disk swap area. */
class SwapArea
{
  public:
    /** A sealed 4 KB page is nonce+mac+page = 4144 wire bytes, so
     *  one slot spans two disk blocks. */
    static constexpr uint64_t blocksPerSlot = 2;

    /** One page headed for the swap area. */
    struct StoreReq
    {
        uint64_t pid = 0;
        hw::Vaddr va = 0;
        uint64_t gen = 0;
        std::vector<uint8_t> wire; ///< sealed bytes, stored as given
    };

    SwapArea(hw::Disk &disk, sim::SimContext &ctx, uint64_t first_block,
             uint64_t num_blocks);

    /**
     * Store a batch of sealed pages. The blocks are posted to the
     * disk's request queue and the doorbell rings once for the whole
     * batch — fire-and-forget, the bytes cross at the doorbell.
     * Each page, in order, takes the lowest free slot.
     * Returns pages stored (all of them, or 0 if the area is out of
     * slots — check freeSlots() first).
     */
    uint64_t storeBatch(std::vector<StoreReq> reqs);

    /**
     * Read back the sealed wire bytes for (pid, va) without freeing the
     * slot; the slot is released only after the VM accepts the page
     * (a failed verification must not lose the ciphertext). Stalls
     * for the disk read — the faulting process needs the bytes.
     *
     * Swap-in clustering: the faulting slot and up to
     * readaheadSlots-1 of the owner's next slots (va order) ride one
     * doorbell; their media latencies overlap in the deep queue, and
     * the neighbours' *sealed bytes* are staged so a later demand read
     * costs no disk stall. Staging is ciphertext-only bookkeeping:
     * nothing is unsealed or mapped until demanded, so pages_loaded /
     * swap-in / fault counts stay demand-driven.
     */
    std::optional<std::vector<uint8_t>> read(uint64_t pid, hw::Vaddr va);

    /** Slots per demand-read cluster (the faulting slot plus up to
     *  this many minus one staged neighbours). */
    static constexpr unsigned readaheadSlots = 8;

    /** Free the slot for (pid, va) (after a successful swap-in). */
    void release(uint64_t pid, hw::Vaddr va);

    /** Drop every slot owned by @p pid (process exit). */
    void releaseAll(uint64_t pid);

    bool contains(uint64_t pid, hw::Vaddr va) const;
    uint64_t countFor(uint64_t pid) const;

    /** First disk block of (pid, va)'s slot; nullopt if absent. The
     *  hostile-OS surface: anyone with the block number can read or
     *  flip bits in the ciphertext via Disk::rawBlock. */
    std::optional<uint64_t> slotBlock(uint64_t pid, hw::Vaddr va) const;

    uint64_t slotCount() const { return _slots.size(); }
    uint64_t usedSlots() const { return _index.size(); }
    uint64_t freeSlots() const { return slotCount() - usedSlots(); }
    uint64_t firstBlock() const { return _firstBlock; }
    /** Pages in the most recent storeBatch() (observability). */
    uint64_t lastBatchPages() const { return _lastBatchPages; }
    const std::vector<SwapSlot> &slots() const { return _slots; }

  private:
    /** Clear @p slot and lower the free-slot hint to it. */
    void freeSlot(uint32_t slot);

    uint64_t slotToBlock(uint32_t slot) const
    {
        return _firstBlock + uint64_t(slot) * blocksPerSlot;
    }

    /** Sealed bytes prefetched by a read cluster, awaiting demand. */
    struct StagedRead
    {
        std::vector<uint8_t> bytes;
        uint64_t readyAt = 0; ///< completion cycle of its disk read
    };

    hw::Disk &_disk;
    sim::SimContext &_ctx;
    uint64_t _firstBlock;
    std::vector<SwapSlot> _slots;
    /** (pid, va) -> slot index. */
    std::map<std::pair<uint64_t, uint64_t>, uint32_t> _index;
    /** (pid, va) -> prefetched ciphertext. */
    std::map<std::pair<uint64_t, uint64_t>, StagedRead> _staged;
    /** Every slot below this one is in use: storeBatch() takes the
     *  lowest free slot, so the area's host footprint tracks its
     *  occupancy. No cost reads a slot number (NCQ latency does not
     *  depend on the block, and read clusters follow va order). */
    uint32_t _lowFree = 0;
    uint64_t _lastBatchPages = 0;

    sim::StatHandle _hPagesStored;
    sim::StatHandle _hPagesLoaded;
    sim::StatHandle _hWriteBatches;
    sim::StatHandle _hReadClusters;
};

/**
 * Second-chance clock over every resident ghost page in the machine.
 * Pure policy: knows nothing about disks or crypto — the caller
 * supplies the test-and-clear of the hardware reference bit.
 */
class GhostClock
{
  public:
    using Page = std::pair<uint64_t, hw::Vaddr>; // (pid, va)

    /** Track a page that just became resident. */
    void insert(uint64_t pid, hw::Vaddr va);

    /** Stop tracking (evicted or freed); idempotent. */
    void remove(uint64_t pid, hw::Vaddr va);

    /** Drop every page of @p pid (process exit). */
    void removePid(uint64_t pid);

    /**
     * Pick up to @p want eviction victims. @p referenced must
     * test-and-clear the page's reference bit (the VM intrinsic);
     * pages that were referenced survive one sweep, everything else is
     * removed from the clock and returned in hand order.
     */
    std::vector<Page>
    pickVictims(uint64_t want,
                const std::function<bool(uint64_t, hw::Vaddr)> &referenced);

    size_t size() const { return _ring.size(); }

    /** Page currently under the hand (observability; nullopt when
     *  the clock is empty). */
    std::optional<Page> handPage() const;

  private:
    void advanceHand();

    std::list<Page> _ring;
    std::map<Page, std::list<Page>::iterator> _pos;
    std::list<Page>::iterator _hand = _ring.end();
};

} // namespace vg::kern

#endif // VG_KERNEL_SWAP_HH
