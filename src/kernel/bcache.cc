#include "kernel/bcache.hh"

#include <algorithm>

#include "sim/log.hh"

namespace vg::kern
{

BufferCache::BufferCache(hw::Disk &disk, sim::SimContext &ctx,
                         uint64_t capacity_blocks)
    : _disk(disk), _ctx(ctx), _capacity(capacity_blocks),
      _hHits(ctx.stats().handle("bcache.hits")),
      _hMisses(ctx.stats().handle("bcache.misses")),
      _hZeroFills(ctx.stats().handle("bcache.zero_fills")),
      _hWritebacks(ctx.stats().handle("bcache.writebacks"))
{
    if (_capacity < 3)
        sim::panic("buffer cache of %llu blocks: bmap needs 3 live",
                   static_cast<unsigned long long>(_capacity));
}

Buf *
BufferCache::get(uint64_t block_no)
{
    chargeLookups(1);
    auto it = _index.find(block_no);
    if (it != _index.end()) {
        _hits++;
        sim::StatSet::add(_hHits);
        _lru.splice(_lru.begin(), _lru, it->second);
        return &*_lru.begin();
    }

    _misses++;
    sim::StatSet::add(_hMisses);
    evictIfNeeded();

    Buf buf;
    buf.blockNo = block_no;
    buf.data.resize(hw::Disk::blockSize);
    _lru.push_front(std::move(buf));
    _index[block_no] = _lru.begin();
    Buf *nb = &*_lru.begin();
    ringRead(*nb);
    return nb;
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
    auto it = _index.find(block_no);
    if (it != _index.end()) {
        _hits++;
        sim::StatSet::add(_hHits);
        _lru.splice(_lru.begin(), _lru, it->second);
        Buf *buf = &*_lru.begin();
        std::fill(buf->data.begin(), buf->data.end(), 0);
        buf->dirty = true;
        return buf;
    }
    _misses++;
    sim::StatSet::add(_hMisses);
    evictIfNeeded();
    Buf buf;
    buf.blockNo = block_no;
    buf.data.assign(hw::Disk::blockSize, 0);
    buf.dirty = true;
    _lru.push_front(std::move(buf));
    _index[block_no] = _lru.begin();
    sim::StatSet::add(_hZeroFills);
    return &*_lru.begin();
}

void
BufferCache::dropAll()
{
    sync();
    _lru.clear();
    _index.clear();
}

void
BufferCache::evictIfNeeded()
{
    while (_lru.size() >= _capacity) {
        Buf &victim = _lru.back();
        if (victim.dirty)
            writeback(victim);
        _index.erase(victim.blockNo);
        _lru.pop_back();
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
    for (Buf &buf : _lru) {
        if (buf.dirty)
            writeback(buf);
    }
    // Durability barrier: an fsync-style caller must not return before
    // the queued writebacks hit the media. Deep NCQ means the whole
    // batch completes one request-latency after the last doorbell.
    _ctx.clock().advanceTo(_flushDone);
}

void
BufferCache::invalidate(uint64_t block_no)
{
    auto it = _index.find(block_no);
    if (it == _index.end())
        return;
    _lru.erase(it->second);
    _index.erase(it);
}

} // namespace vg::kern
