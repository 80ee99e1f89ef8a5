/**
 * @file
 * Simulated SSD block device.
 *
 * Stores 4 KB blocks. Two access paths:
 *  - buffered path (readBlock/writeBlock) used by the kernel's buffer
 *    cache, which copies into kernel-heap buffers;
 *  - DMA path (dmaReadBlock/dmaWriteBlock) that moves data directly
 *    to/from simulated physical frames through the IOMMU — the path a
 *    hostile OS would use to try to read ghost frames via a device.
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

    /** Read one block into a kernel buffer (charges device latency). */
    void readBlock(uint64_t block, void *out);

    /** Write one block from a kernel buffer. */
    void writeBlock(uint64_t block, const void *in);

    /** DMA a block into RAM at @p pa; false if the IOMMU blocks it. */
    bool dmaReadBlock(uint64_t block, Paddr pa);

    /** DMA a block out of RAM at @p pa; false if the IOMMU blocks it. */
    bool dmaWriteBlock(uint64_t block, Paddr pa);

    /** Raw peek for tests and for modelling offline (evil-maid) access:
     *  the OS has full read/write access to persistent storage. */
    uint8_t *rawBlock(uint64_t block);

    // --- Async request queue -------------------------------------------
    /** Post one request descriptor (charges descriptor setup). The
     *  descriptor names a block and either a host buffer or a DMA
     *  address. False when the queue is full. */
    bool submit(const RingDesc &d);

    /**
     * Ring the request doorbell. Data moves at submit time (the
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
    void charge(uint64_t blocks);

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
