#include "kernel/swap.hh"

#include <algorithm>
#include <cstring>

#include "sim/log.hh"
#include "sva/vm.hh"

namespace vg::kern
{

// storeBatch pads each frame to its slot within the capacity the VM
// gave it, with no reallocation.
static_assert(SwapArea::blocksPerSlot * hw::Disk::blockSize ==
              sva::SvaVm::swapFrameCapacity);

SwapArea::SwapArea(hw::Disk &disk, sim::SimContext &ctx,
                   uint64_t first_block, uint64_t num_blocks)
    : _disk(disk), _ctx(ctx), _firstBlock(first_block),
      _slots(num_blocks / blocksPerSlot),
      _hPagesStored(ctx.stats().handle("swap.pages_stored")),
      _hPagesLoaded(ctx.stats().handle("swap.pages_loaded")),
      _hWriteBatches(ctx.stats().handle("swap.write_batches")),
      _hReadClusters(ctx.stats().handle("swap.read_clusters"))
{
    if (first_block + num_blocks > disk.numBlocks())
        sim::fatal("SwapArea: [%lu, %lu) exceeds the disk",
                   (unsigned long)first_block,
                   (unsigned long)(first_block + num_blocks));
}

uint64_t
SwapArea::storeBatch(std::vector<StoreReq> reqs)
{
    if (reqs.empty())
        return 0;
    if (reqs.size() > freeSlots())
        return 0; // caller must check freeSlots() before evicting

    // Slot assignment. Each request's wire bytes, padded to the slot,
    // are its staging buffer and must survive until the doorbell (the
    // functional copy happens there).
    std::vector<uint32_t> slots;
    slots.reserve(reqs.size());
    for (StoreReq &req : reqs) {
        // Lowest free slot: everything below the hint is in use.
        uint32_t slot = _lowFree;
        while (_slots[slot].used)
            slot++;
        _lowFree = slot + 1;

        _staged.erase({req.pid, req.va}); // fresh data supersedes any
                                          // stale prefetch
        SwapSlot &s = _slots[slot];
        s.pid = req.pid;
        s.va = req.va;
        s.gen = req.gen;
        s.len = uint32_t(req.wire.size());
        s.used = true;
        _index[{req.pid, req.va}] = slot;
        req.wire.resize(blocksPerSlot * hw::Disk::blockSize, 0);
        slots.push_back(slot);
        // Slot-table update: a few kernel memory operations.
        _ctx.chargeKernelWork(8, 4, 0);
    }

    // Batched async writeback: one descriptor per block, one doorbell
    // per batch, no stall — the NCQ queue owns the media latency from
    // here.
    for (size_t i = 0; i < reqs.size(); i++) {
        for (uint64_t b = 0; b < blocksPerSlot; b++) {
            hw::RingDesc d;
            d.block = slotToBlock(slots[i]) + b;
            d.host = reqs[i].wire.data() + b * hw::Disk::blockSize;
            d.len = hw::Disk::blockSize;
            d.write = true;
            _disk.submitDraining(d);
        }
    }
    _disk.doorbell();
    _disk.reapAll();

    _lastBatchPages = reqs.size();
    sim::StatSet::add(_hPagesStored, reqs.size());
    sim::StatSet::add(_hWriteBatches);
    return reqs.size();
}

std::optional<std::vector<uint8_t>>
SwapArea::read(uint64_t pid, hw::Vaddr va)
{
    auto it = _index.find({pid, va});
    if (it == _index.end())
        return std::nullopt;
    const SwapSlot &s = _slots[it->second];

    std::vector<uint8_t> bytes;
    auto staged = _staged.find({pid, va});
    if (staged != _staged.end()) {
        // A previous cluster already pulled this slot off the media —
        // consume the staged ciphertext, stalling only if its disk
        // read has not completed yet.
        _ctx.clock().advanceTo(staged->second.readyAt);
        bytes = std::move(staged->second.bytes);
        _staged.erase(staged);
    } else {
        // Swap-in cluster: the faulting slot plus the owner's next
        // slots (va order, not already staged) ride one doorbell. In
        // the deep queue their latencies overlap, so the neighbours
        // are ready essentially when the demanded slot is.
        struct Target
        {
            hw::Vaddr va;
            uint32_t slot;
            std::vector<uint8_t> buf;
        };
        std::vector<Target> targets;
        targets.push_back({va, it->second, {}});
        for (auto n = std::next(it);
             n != _index.end() && n->first.first == pid &&
             targets.size() < readaheadSlots;
             ++n)
            if (!_staged.count(n->first))
                targets.push_back({n->first.second, n->second, {}});

        for (Target &t : targets) {
            t.buf.resize(blocksPerSlot * hw::Disk::blockSize);
            for (uint64_t b = 0; b < blocksPerSlot; b++) {
                hw::RingDesc d;
                d.block = slotToBlock(t.slot) + b;
                d.hostOut = t.buf.data() + b * hw::Disk::blockSize;
                d.len = hw::Disk::blockSize;
                _disk.submitDraining(d);
            }
        }
        uint64_t done = _disk.doorbell();
        _disk.reapAll();
        _ctx.clock().advanceTo(done);

        bytes = std::move(targets.front().buf);
        for (size_t i = 1; i < targets.size(); i++) {
            _staged[{pid, targets[i].va}] =
                StagedRead{std::move(targets[i].buf), done};
            _ctx.chargeKernelWork(4, 2, 0); // stage-table insert
        }
        if (targets.size() > 1)
            sim::StatSet::add(_hReadClusters);
    }

    bytes.resize(s.len);
    sim::StatSet::add(_hPagesLoaded);
    return bytes;
}

void
SwapArea::release(uint64_t pid, hw::Vaddr va)
{
    auto it = _index.find({pid, va});
    if (it == _index.end())
        return;
    freeSlot(it->second);
    _index.erase(it);
    _staged.erase({pid, va});
    _ctx.chargeKernelWork(6, 3, 0);
}

void
SwapArea::releaseAll(uint64_t pid)
{
    for (auto it = _index.begin(); it != _index.end();) {
        if (it->first.first == pid) {
            freeSlot(it->second);
            it = _index.erase(it);
        } else {
            ++it;
        }
    }
    for (auto it = _staged.begin(); it != _staged.end();) {
        if (it->first.first == pid)
            it = _staged.erase(it);
        else
            ++it;
    }
}

void
SwapArea::freeSlot(uint32_t slot)
{
    _slots[slot] = SwapSlot{};
    _lowFree = std::min(_lowFree, slot);
}

bool
SwapArea::contains(uint64_t pid, hw::Vaddr va) const
{
    return _index.count({pid, va}) != 0;
}

uint64_t
SwapArea::countFor(uint64_t pid) const
{
    uint64_t n = 0;
    for (const auto &[key, slot] : _index)
        n += key.first == pid ? 1 : 0;
    return n;
}

std::optional<uint64_t>
SwapArea::slotBlock(uint64_t pid, hw::Vaddr va) const
{
    auto it = _index.find({pid, va});
    if (it == _index.end())
        return std::nullopt;
    return slotToBlock(it->second);
}

// --------------------------------------------------------------------
// GhostClock
// --------------------------------------------------------------------

void
GhostClock::insert(uint64_t pid, hw::Vaddr va)
{
    Page p{pid, va};
    if (_pos.count(p))
        return;
    // New pages join just behind the hand: the full sweep passes them
    // last, matching the classic clock's insertion point.
    auto it = _ring.insert(
        _hand == _ring.end() ? _ring.end() : _hand, p);
    _pos[p] = it;
    if (_hand == _ring.end())
        _hand = it;
}

void
GhostClock::remove(uint64_t pid, hw::Vaddr va)
{
    auto it = _pos.find({pid, va});
    if (it == _pos.end())
        return;
    if (_hand == it->second)
        advanceHand();
    if (_hand == it->second) // it was the only element
        _hand = _ring.end();
    _ring.erase(it->second);
    _pos.erase(it);
}

void
GhostClock::removePid(uint64_t pid)
{
    for (auto it = _ring.begin(); it != _ring.end();) {
        if (it->first == pid) {
            if (_hand == it)
                advanceHand();
            if (_hand == it)
                _hand = _ring.end();
            _pos.erase(*it);
            it = _ring.erase(it);
        } else {
            ++it;
        }
    }
    if (_ring.empty())
        _hand = _ring.end();
}

void
GhostClock::advanceHand()
{
    if (_ring.empty()) {
        _hand = _ring.end();
        return;
    }
    ++_hand;
    if (_hand == _ring.end())
        _hand = _ring.begin();
}

std::optional<GhostClock::Page>
GhostClock::handPage() const
{
    if (_hand == _ring.end())
        return std::nullopt;
    return *_hand;
}

std::vector<GhostClock::Page>
GhostClock::pickVictims(
    uint64_t want,
    const std::function<bool(uint64_t, hw::Vaddr)> &referenced)
{
    std::vector<Page> victims;
    if (_ring.empty() || want == 0)
        return victims;
    // Two full sweeps bound the scan: the first clears reference bits,
    // so the second meets every surviving page unreferenced.
    size_t scans = 2 * _ring.size();
    while (victims.size() < want && scans-- > 0 && !_ring.empty()) {
        if (_hand == _ring.end())
            _hand = _ring.begin();
        Page p = *_hand;
        if (referenced(p.first, p.second)) {
            advanceHand(); // second chance
            continue;
        }
        auto dead = _hand;
        advanceHand();
        if (_hand == dead)
            _hand = _ring.end();
        _ring.erase(dead);
        _pos.erase(p);
        victims.push_back(p);
    }
    return victims;
}

} // namespace vg::kern
