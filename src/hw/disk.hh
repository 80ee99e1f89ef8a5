/**
 * @file
 * Simulated SSD block device.
 *
 * Stores 4 KB blocks. Data moves between the device and memory only
 * through the request queue: the driver posts descriptors, rings the
 * doorbell and reaps completions. A descriptor names either a kernel
 * host buffer (the buffer cache and swap area hand theirs over) or a
 * physical address (useDma); every DMA descriptor goes through the
 * IOMMU, so one aimed at a ghost, page-table or SVA frame — the way a
 * hostile OS would try to read or corrupt ghost memory through a
 * device — completes with an error and is counted.
 *
 * Latency is charged per request plus per block, modelling the paper's
 * 256 GB SATA SSD.
 */

#ifndef VG_HW_DISK_HH
#define VG_HW_DISK_HH

#include <cstdint>
#include <vector>

#include "hw/iommu.hh"
#include "hw/phys_mem.hh"
#include "hw/ring.hh"
#include "hw/zeroed_store.hh"
#include "sim/context.hh"

namespace vg::hw
{

/** Block-addressed storage device. */
class Disk
{
  public:
    static constexpr uint64_t blockSize = 4096;

    Disk(uint64_t blocks, Iommu &iommu, sim::SimContext &ctx);

    uint64_t numBlocks() const { return _data.size() / blockSize; }

    /** Raw peek for tests and for modelling offline (evil-maid) access:
     *  the OS has full read/write access to persistent storage. */
    uint8_t *rawBlock(uint64_t block);

    // --- Async request queue -------------------------------------------
    /** Post one request descriptor (charges descriptor setup). The
     *  descriptor names a block and either a host buffer or a DMA
     *  address. False when the queue is full. */
    bool submit(const RingDesc &d);

    /** Post @p d, draining a full queue first: doorbell whatever is
     *  posted, reap, and post again. The kernel's one way to queue a
     *  request; a queue still full after the drain panics. */
    void submitDraining(const RingDesc &d);

    /**
     * Ring the request doorbell. Data moves at doorbell time (the
     * simulator is functional); what the device models is *latency*:
     * each request completes at doorbell-time + ssdRequest +
     * ssdPerBlock, independently of its queue neighbours (deep NCQ —
     * flash channels do not serialize distinct requests). DMA
     * descriptors go through the IOMMU; blocked slots complete with
     * error and are counted. Returns the latest completion time.
     */
    uint64_t doorbell();

    /** Drain completions in doorbell order, freeing queue slots. */
    std::vector<RingCompletion> reapAll() { return _queue.reapAll(); }

    IrqLine &irq() { return _irq; }
    const DescRing &queue() const { return _queue; }
    uint64_t ringBlockedDma() const { return _ringBlocked; }

  private:
    void check(uint64_t block) const;

    ZeroedStore _data;
    Iommu &_iommu;
    sim::SimContext &_ctx;
    DescRing _queue;
    IrqLine _irq;
    uint64_t _ringBlocked = 0;
    sim::StatHandle _hRequests;
    sim::StatHandle _hBlocks;
    sim::StatHandle _hRingBlocked;
};

} // namespace vg::hw

#endif // VG_HW_DISK_HH
