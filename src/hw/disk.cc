#include "hw/disk.hh"

#include <cstring>

#include "sim/log.hh"

namespace vg::hw
{

namespace
{

uint64_t
diskBytes(uint64_t blocks)
{
    if (blocks == 0)
        sim::fatal("Disk: must have at least one block");
    return blocks * Disk::blockSize;
}

} // namespace

Disk::Disk(uint64_t blocks, Iommu &iommu, sim::SimContext &ctx)
    : _data(diskBytes(blocks)), _iommu(iommu), _ctx(ctx),
      _queue(ringSlots), _irq("disk.irq"),
      _hRequests(ctx.stats().handle("disk.requests")),
      _hBlocks(ctx.stats().handle("disk.blocks")),
      _hRingBlocked(ctx.stats().handle("disk.ring_blocked_dma"))
{
}

void
Disk::check(uint64_t block) const
{
    if (block >= numBlocks())
        sim::panic("Disk: block %lu out of range (%lu blocks)",
                   (unsigned long)block, (unsigned long)numBlocks());
}

uint8_t *
Disk::rawBlock(uint64_t block)
{
    check(block);
    return &_data[block * blockSize];
}

bool
Disk::submit(const RingDesc &d)
{
    check(d.block);
    if (!_queue.post(d))
        return false;
    _ctx.clock().advance(_ctx.costs().ringDescriptor);
    return true;
}

void
Disk::submitDraining(const RingDesc &d)
{
    if (submit(d))
        return;
    // Reaping alone frees nothing posted but never doorbelled.
    doorbell();
    reapAll();
    if (!submit(d))
        sim::panic("Disk: request queue still full after a drain "
                   "(%u of %u slots in flight)",
                   _queue.inFlight(), _queue.size());
}

uint64_t
Disk::doorbell()
{
    _ctx.clock().advance(_ctx.costs().ringDoorbell);
    uint64_t now = _ctx.clock().now();
    uint64_t last = 0;
    _queue.processPosted([&](DescRing::Entry &e) {
        uint8_t *blk = &_data[e.desc.block * blockSize];
        uint64_t n = std::min<uint64_t>(e.desc.len ? e.desc.len
                                                   : blockSize,
                                        blockSize);
        bool ok = true;
        if (e.desc.write) {
            if (e.desc.useDma) {
                uint8_t buf[blockSize];
                ok = _iommu.dmaRead(e.desc.pa, buf, n);
                if (ok)
                    std::memcpy(blk, buf, n);
            } else if (e.desc.host) {
                std::memcpy(blk, e.desc.host, n);
            }
        } else {
            if (e.desc.useDma)
                ok = _iommu.dmaWrite(e.desc.pa, blk, n);
            else if (e.desc.hostOut)
                std::memcpy(e.desc.hostOut, blk, n);
        }
        sim::StatSet::add(_hRequests);
        sim::StatSet::add(_hBlocks);
        if (!ok) {
            e.error = true;
            e.doneAt = now;
            e.state = DescRing::Slot::Done;
            _ringBlocked++;
            sim::StatSet::add(_hRingBlocked);
            return true;
        }
        // Deep NCQ: each request's latency stands alone.
        e.doneAt = now + _ctx.costs().ssdRequest + _ctx.costs().ssdPerBlock;
        e.state = DescRing::Slot::Done;
        last = std::max(last, e.doneAt);
        return true;
    });
    _irq.wireTo(_ctx.activeCpu());
    if (uint64_t at = _queue.earliestDone())
        _irq.raise(at);
    return last;
}

} // namespace vg::hw
