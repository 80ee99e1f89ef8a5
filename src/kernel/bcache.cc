#include "kernel/bcache.hh"

#include <algorithm>

#include "sim/log.hh"

namespace vg::kern
{

BufferCache::BufferCache(hw::Disk &disk, sim::SimContext &ctx,
                         uint64_t capacity_blocks)
    : _disk(disk), _ctx(ctx), _capacity(capacity_blocks),
      _slotOf(disk.numBlocks(), noSlot),
      _hHits(ctx.stats().handle("bcache.hits")),
      _hMisses(ctx.stats().handle("bcache.misses")),
      _hZeroFills(ctx.stats().handle("bcache.zero_fills")),
      _hWritebacks(ctx.stats().handle("bcache.writebacks"))
{
    if (_capacity < 3)
        sim::panic("buffer cache of %llu blocks: bmap needs 3 live",
                   static_cast<unsigned long long>(_capacity));
    // No more blocks than the device holds can ever be cached at once.
    uint64_t slots = std::min(_capacity, disk.numBlocks());
    _slots.reserve(slots);
    _spare.reserve(slots);
}

Buf &
BufferCache::admit(uint64_t block_no)
{
    if (block_no >= _slotOf.size())
        _disk.rawBlock(block_no); // panics: the block is out of range
    _misses++;
    sim::StatSet::add(_hMisses);
    evictIfNeeded();

    uint32_t slot;
    if (_spare.empty()) {
        slot = uint32_t(_slots.size());
        _slots.emplace_back().buf.data.resize(hw::Disk::blockSize);
    } else {
        slot = _spare.back();
        _spare.pop_back();
    }
    pushFront(slot);
    _slotOf[block_no] = slot;
    Buf &buf = _slots[slot].buf;
    buf.blockNo = block_no;
    buf.dirty = false;
    return buf;
}

void
BufferCache::repeatHits(uint64_t n)
{
    chargeLookups(n);
    _hits += n;
    sim::StatSet::add(_hHits, n);
}

void
BufferCache::ringRead(Buf &buf)
{
    hw::RingDesc d;
    d.block = buf.blockNo;
    d.hostOut = buf.data.data();
    d.len = hw::Disk::blockSize;
    _disk.submitDraining(d);
    uint64_t done = _disk.doorbell();
    _disk.reapAll();
    // The caller needs the bytes now: stall to the completion. The
    // win stays with writebacks, which never stall.
    _ctx.clock().advanceTo(done);
}

Buf *
BufferCache::getZeroed(uint64_t block_no)
{
    chargeLookups(1);
    uint32_t slot = slotOf(block_no);
    Buf *buf;
    if (slot != noSlot) {
        touch(slot);
        buf = &_slots[slot].buf;
    } else {
        buf = &admit(block_no);
        sim::StatSet::add(_hZeroFills);
    }
    std::fill(buf->data.begin(), buf->data.end(), 0);
    buf->dirty = true;
    return buf;
}

void
BufferCache::dropAll()
{
    sync();
    for (uint32_t slot = _head; slot != noSlot; slot = _slots[slot].next) {
        _slotOf[_slots[slot].buf.blockNo] = noSlot;
        _spare.push_back(slot);
    }
    _head = _tail = noSlot;
}

void
BufferCache::evictIfNeeded()
{
    while (_slots.size() - _spare.size() >= _capacity) {
        uint32_t slot = _tail;
        Buf &victim = _slots[slot].buf;
        if (victim.dirty)
            writeback(victim);
        _slotOf[victim.blockNo] = noSlot;
        unlink(slot);
        _spare.push_back(slot);
    }
}

void
BufferCache::writeback(Buf &buf)
{
    // Fire-and-forget through the disk request queue: the bytes cross
    // into the device at the doorbell; the CPU does not stall for the
    // media latency. sync() is the barrier.
    hw::RingDesc d;
    d.block = buf.blockNo;
    d.host = buf.data.data();
    d.len = hw::Disk::blockSize;
    d.write = true;
    buf.dirty = false;
    sim::StatSet::add(_hWritebacks);
    _disk.submitDraining(d);
    uint64_t done = _disk.doorbell();
    _disk.reapAll();
    _flushDone = std::max(_flushDone, done);
}

void
BufferCache::sync()
{
    for (uint32_t slot = _head; slot != noSlot; slot = _slots[slot].next) {
        Buf &buf = _slots[slot].buf;
        if (buf.dirty)
            writeback(buf);
    }
    // Durability barrier: an fsync-style caller must not return before
    // the queued writebacks hit the media. Deep NCQ means the whole
    // batch completes one request-latency after the last doorbell.
    _ctx.clock().advanceTo(_flushDone);
}

} // namespace vg::kern
