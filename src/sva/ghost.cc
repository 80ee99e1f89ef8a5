/**
 * @file
 * Ghost memory management (S 3.2) and secure swapping (S 3.3).
 *
 * allocgm(): the OS donates frames (it remains the physical-memory
 * owner); the VM verifies each frame is fully unmapped, zeroes it,
 * types it Ghost (which locks it against kernel loads/stores, MMU
 * mapping, and DMA), and maps it at the requested ghost virtual
 * address in the owning process's tree. freegm() reverses this,
 * zeroing before return so no data leaks.
 *
 * Swapping: the VM encrypts+MACs the page under its own swap key with
 * the (pid, va) bound in as associated data, so the OS can neither
 * read the plaintext, forge contents, nor replay a page into the wrong
 * slot of the wrong process.
 */

#include <cstring>
#include <functional>
#include <set>

#include "sim/log.hh"
#include "sva/vm.hh"

namespace vg::sva
{

crypto::AesKey
SvaVm::swapKey() const
{
    // The key is a pure function of the private key, so derive it once
    // and cache; install()/boot() invalidate when the key changes.
    if (_swapKeyValid)
        return _swapKey;
    crypto::Sha256 h;
    h.update("vg-swap-key", 11);
    std::vector<uint8_t> priv = _privateKey.d.toBytes();
    h.update(priv.data(), priv.size());
    crypto::Digest d = h.final();
    crypto::AesKey key{};
    std::memcpy(key.data(), d.data(), key.size());
    _swapKey = key;
    _swapKeyValid = true;
    _sealKeyGen++;
    return key;
}

namespace
{

/** Associated data binding a swapped page to (pid, va, generation).
 *  The generation is VM-trusted monotonic state: a stale blob from an
 *  earlier swap-out of the same slot carries a dead generation and
 *  fails MAC verification. */
std::vector<uint8_t>
swapAad(uint64_t pid, hw::Vaddr va, uint64_t gen)
{
    std::vector<uint8_t> aad(24);
    std::memcpy(aad.data(), &pid, 8);
    std::memcpy(aad.data() + 8, &va, 8);
    std::memcpy(aad.data() + 16, &gen, 8);
    return aad;
}

} // namespace

bool
SvaVm::mapGhostPage(hw::Frame root, hw::Vaddr va, hw::Frame frame,
                    SvaError *err)
{
    if (_frames[root].type != FrameType::PageTable ||
        _frames[root].level != 4)
        return failOp(err, "ghost map: root is not a declared L4");

    // Walk, creating intermediate tables from OS-donated frames; the
    // created tables belong to SVA and cover only ghost VAs.
    hw::Frame table = root;
    for (int level = 4; level >= 2; level--) {
        uint64_t idx = hw::ptIndex(va, hw::PtLevel(level));
        hw::Paddr slot = table * hw::pageSize + idx * 8;
        hw::Pte entry = _mem.read64(slot);
        if (!(entry & hw::pte::present)) {
            if (!_frameProvider)
                return failOp(err, "ghost map: no frame provider");
            std::optional<hw::Frame> pt = _frameProvider();
            if (!pt)
                return failOp(err, "ghost map: out of frames");
            FrameMeta &meta = _frames[*pt];
            if (meta.type != FrameType::Free || meta.mapCount != 0)
                return failOp(err, "ghost map: donated table frame "
                                   "still in use");
            _mem.zeroFrame(*pt);
            meta.type = FrameType::PageTable;
            meta.level = uint8_t(level - 1);
            _iommu.protectFrame(*pt);
            _mem.write64(slot, hw::pte::make(*pt, true, true, false));
            entry = _mem.read64(slot);
        }
        table = hw::pte::frameNum(entry);
    }

    hw::Paddr slot = table * hw::pageSize +
                     hw::ptIndex(va, hw::PtLevel::L1) * 8;
    if (_mem.read64(slot) & hw::pte::present)
        return failOp(err, "ghost map: va already mapped");
    _mem.write64(slot, hw::pte::make(frame, true, true, true));
    _frames[frame].mapCount++;
    invalidateEverywhere(va);
    return true;
}

bool
SvaVm::attachGhostFrame(uint64_t pid, hw::Frame root, hw::Vaddr va,
                        const uint8_t *contents, const char *op,
                        SvaError *err)
{
    if (!_frameProvider)
        return failOp(err, std::string(op) + ": no frame provider");
    std::optional<hw::Frame> frame = _frameProvider();
    if (!frame)
        return failOp(err, std::string(op) + ": OS out of frames");
    FrameMeta &meta = _frames[*frame];
    // The OS must have removed every mapping to this frame.
    if (meta.type != FrameType::Free || meta.mapCount != 0) {
        return failOp(err, sim::strprintf("%s: frame %lu still %s/%u", op,
                                          (unsigned long)*frame,
                                          frameTypeName(meta.type),
                                          meta.mapCount));
    }
    if (!frameRetypeSafe(*frame, op, err))
        return false;
    if (contents)
        _mem.writeBytes(*frame * hw::pageSize, contents, hw::pageSize);
    else
        _mem.zeroFrame(*frame);
    meta.type = FrameType::Ghost;
    meta.owner = pid;
    _iommu.protectFrame(*frame);
    if (!mapGhostPage(root, va, *frame, err)) {
        returnFrame(*frame); // never strand a frame the OS cannot reclaim
        return false;
    }
    _ghostPages[pid].push_back({*frame, va});
    return true;
}

void
SvaVm::returnFrame(hw::Frame frame)
{
    _mem.zeroFrame(frame); // no data leaks back to the OS
    FrameMeta &meta = _frames[frame];
    meta.type = FrameType::Free;
    meta.owner = 0;
    meta.level = 0;
    _iommu.unprotectFrame(frame);
    if (_frameReceiver)
        _frameReceiver(frame);
}

bool
SvaVm::allocGhostMemory(uint64_t pid, hw::Frame root, hw::Vaddr va,
                        uint64_t npages, SvaError *err)
{
    _ctx.clock().advance(_ctx.costs().ghostAllocCall);
    if (npages == 0)
        return failOp(err, "allocgm: zero pages");
    if (hw::pageOffset(va) != 0)
        return failOp(err, "allocgm: unaligned va");
    if (!hw::isGhostAddr(va) ||
        !hw::isGhostAddr(va + npages * hw::pageSize - 1))
        return failOp(err, "allocgm: range outside the ghost "
                           "partition");

    for (uint64_t i = 0; i < npages; i++) {
        if (!attachGhostFrame(pid, root, va + i * hw::pageSize, nullptr,
                              "allocgm", err)) {
            // All or nothing: hand back what this call already mapped.
            for (uint64_t j = 0; j < i; j++) {
                hw::Vaddr page_va = va + j * hw::pageSize;
                hw::Paddr slot = 0;
                hw::Frame frame = 0;
                SvaError undo;
                if (validateGhostPage(pid, root, page_va, "allocgm", slot,
                                      frame, &undo))
                    detachGhostFrame(pid, page_va, slot, frame, "allocgm",
                                     &undo);
            }
            return false;
        }
        _ctx.clock().advance(_ctx.costs().ghostAllocPerPage);
    }
    sim::StatSet::add(_hGhostAllocated, npages);
    return true;
}

namespace
{

/** Internal leaf-slot walk that permits ghost VAs (VM-private). */
bool
ghostLeafSlot(hw::PhysMem &mem, const FrameTable &frames, hw::Frame root,
              hw::Vaddr va, hw::Paddr &slot)
{
    if (frames[root].type != FrameType::PageTable ||
        frames[root].level != 4)
        return false;
    hw::Frame table = root;
    for (int level = 4; level >= 2; level--) {
        uint64_t idx = hw::ptIndex(va, hw::PtLevel(level));
        hw::Pte entry = mem.read64(table * hw::pageSize + idx * 8);
        if (!(entry & hw::pte::present))
            return false;
        table = hw::pte::frameNum(entry);
    }
    slot = table * hw::pageSize + hw::ptIndex(va, hw::PtLevel::L1) * 8;
    return true;
}

} // namespace

bool
SvaVm::freeGhostMemory(uint64_t pid, hw::Frame root, hw::Vaddr va,
                       uint64_t npages, SvaError *err)
{
    _ctx.clock().advance(_ctx.costs().ghostAllocCall);
    if (!hw::isGhostAddr(va))
        return failOp(err, "freegm: not a ghost address");

    // Validate the whole range before detaching anything: a page that
    // is unmapped, swapped out or foreign frees nothing.
    hw::Paddr slot = 0;
    hw::Frame frame = 0;
    for (uint64_t i = 0; i < npages; i++)
        if (!validateGhostPage(pid, root, va + i * hw::pageSize, "freegm",
                               slot, frame, err))
            return false;
    for (uint64_t i = 0; i < npages; i++) {
        hw::Vaddr page_va = va + i * hw::pageSize;
        if (!validateGhostPage(pid, root, page_va, "freegm", slot, frame,
                               err) ||
            !detachGhostFrame(pid, page_va, slot, frame, "freegm", err))
            return false;
        _ctx.clock().advance(_ctx.costs().ghostAllocPerPage);
    }
    sim::StatSet::add(_hGhostFreed, npages);
    return true;
}

bool
SvaVm::validateGhostPage(uint64_t pid, hw::Frame root, hw::Vaddr va,
                         const char *op, hw::Paddr &slot,
                         hw::Frame &frame, SvaError *err)
{
    if (!ghostLeafSlot(_mem, _frames, root, va, slot))
        return failOp(err, std::string(op) + ": page not mapped");
    hw::Pte entry = _mem.read64(slot);
    frame = hw::pte::frameNum(entry);
    const FrameMeta &meta = _frames[frame];
    if (!(entry & hw::pte::present) || meta.type != FrameType::Ghost ||
        meta.owner != pid)
        return failOp(err, std::string(op) +
                               ": not this process's ghost page");
    return true;
}

bool
SvaVm::detachGhostFrame(uint64_t pid, hw::Vaddr va, hw::Paddr slot,
                        hw::Frame frame, const char *op, SvaError *err)
{
    // Unmap, scrub, and hand the frame back to the OS.
    _mem.write64(slot, 0);
    invalidateEverywhere(va);
    if (!frameRetypeSafe(frame, op, err))
        return false;
    if (_frames[frame].mapCount > 0)
        _frames[frame].mapCount--;
    returnFrame(frame);

    auto &pages = _ghostPages[pid];
    for (auto it = pages.begin(); it != pages.end(); ++it) {
        if (it->second == va) {
            pages.erase(it);
            break;
        }
    }
    return true;
}

std::vector<std::vector<uint8_t>>
SvaVm::swapOutGhostBatch(uint64_t pid, hw::Frame root,
                         const std::vector<hw::Vaddr> &vas,
                         SvaError *err)
{
    // Validate the whole batch up front: a bad va evicts nothing. A
    // repeated va is bad too: it would hand one frame back twice.
    std::vector<hw::Paddr> slots(vas.size());
    std::vector<hw::Frame> framesOf(vas.size());
    std::set<hw::Vaddr> seen;
    for (size_t i = 0; i < vas.size(); i++) {
        if (!seen.insert(vas[i]).second) {
            failOp(err, "swapout: va repeated in the batch");
            return {};
        }
        if (!validateGhostPage(pid, root, vas[i], "swapout", slots[i],
                               framesOf[i], err))
            return {};
    }

    // Read each page to the text offset of its own wire frame under a
    // fresh generation bound into its AAD, in batch order, then seal
    // the whole batch in one call. Setup cost is charged once per
    // batch, the per-byte crypto work once per page.
    _ctx.clock().advance(_ctx.costs().sealSetup);
    std::vector<std::vector<uint8_t>> wires(vas.size());
    std::vector<uint8_t *> frames(vas.size());
    std::vector<std::vector<uint8_t>> aads(vas.size());
    for (size_t i = 0; i < vas.size(); i++) {
        std::vector<uint8_t> &wire = wires[i];
        wire.reserve(swapFrameCapacity);
        wire.resize(crypto::sealedHeaderBytes + hw::pageSize);
        _mem.readBytes(framesOf[i] * hw::pageSize,
                       wire.data() + crypto::sealedHeaderBytes,
                       hw::pageSize);
        uint64_t gen = _nextSwapGen++;
        _swapGens[{pid, vas[i]}] = gen;
        _ctx.chargeAes(hw::pageSize);
        _ctx.chargeSha(hw::pageSize);
        frames[i] = wire.data();
        aads[i] = swapAad(pid, vas[i], gen);
    }
    crypto::sealInPlace(swapKey(), _rng, frames, hw::pageSize, aads);

    for (size_t i = 0; i < vas.size(); i++) {
        if (!detachGhostFrame(pid, vas[i], slots[i], framesOf[i],
                              "swapout", err))
            return {};
        sim::StatSet::add(_hGhostSwappedOut);
    }
    sim::StatSet::add(_hGhostSwapBatches);
    return wires;
}

bool
SvaVm::swapInGhostPage(uint64_t pid, hw::Frame root, hw::Vaddr va,
                       std::vector<uint8_t> wire, SvaError *err)
{
    auto genIt = _swapGens.find({pid, va});
    if (genIt == _swapGens.end())
        return failOp(err, "swapin: no swapped page recorded for this "
                           "slot (replayed to the wrong slot?)");
    if (wire.size() < crypto::sealedHeaderBytes)
        return failOp(err, "swapin: frame shorter than its nonce and MAC");
    size_t text_len = wire.size() - crypto::sealedHeaderBytes;
    _ctx.clock().advance(_ctx.costs().sealSetup);
    _ctx.chargeAes(text_len);
    _ctx.chargeSha(text_len);
    if (!crypto::openInPlace(swapKey(), wire.data(), wire.size(),
                             swapAad(pid, va, genIt->second)) ||
        text_len != hw::pageSize)
        return failOp(err, "swapin: page fails verification (tampered, "
                           "stale, or replayed to the wrong slot)");

    if (!attachGhostFrame(pid, root, va,
                          wire.data() + crypto::sealedHeaderBytes,
                          "swapin", err))
        return false;
    _swapGens.erase(genIt); // slot is live again; the blob is dead
    sim::StatSet::add(_hGhostSwappedIn);
    return true;
}

bool
SvaVm::ghostPageTestClearRef(uint64_t pid, hw::Frame root, hw::Vaddr va)
{
    hw::Paddr slot = 0;
    hw::Frame frame = 0;
    SvaError err;
    if (!validateGhostPage(pid, root, va, "refclear", slot, frame,
                           &err))
        return false;
    hw::Pte entry = _mem.read64(slot);
    if (!(entry & hw::pte::accessed))
        return false;
    _ctx.chargeMmuUpdate();
    _mem.write64(slot, entry & ~hw::pte::accessed);
    invalidateEverywhere(va); // next touch re-walks and re-sets A
    return true;
}

bool
SvaVm::ghostPageReferenced(uint64_t pid, hw::Frame root,
                           hw::Vaddr va) const
{
    hw::Paddr slot = 0;
    if (!ghostLeafSlot(_mem, _frames, root, va, slot))
        return false;
    hw::Pte entry = _mem.read64(slot);
    if (!(entry & hw::pte::present))
        return false;
    const FrameMeta &meta = _frames[hw::pte::frameNum(entry)];
    if (meta.type != FrameType::Ghost || meta.owner != pid)
        return false;
    return (entry & hw::pte::accessed) != 0;
}

uint64_t
SvaVm::swapGeneration(uint64_t pid, hw::Vaddr va) const
{
    auto it = _swapGens.find({pid, va});
    return it == _swapGens.end() ? 0 : it->second;
}

void
SvaVm::releaseGhostMemory(uint64_t pid, hw::Frame root)
{
    // Swapped-out pages die with the process: their generations are
    // dropped, so any blob the OS kept can never verify again.
    for (auto g = _swapGens.begin(); g != _swapGens.end();) {
        if (g->first.first == pid)
            g = _swapGens.erase(g);
        else
            ++g;
    }

    auto it = _ghostPages.find(pid);
    if (it != _ghostPages.end()) {
        // Copy: freeGhostMemory edits the vector.
        std::vector<std::pair<hw::Frame, hw::Vaddr>> pages = it->second;
        for (const auto &[frame, va] : pages) {
            SvaError err;
            freeGhostMemory(pid, root, va, 1, &err);
        }
        _ghostPages.erase(pid);
    }

    // Retire the (now empty) ghost page-table subtree. The 512 GB
    // ghost partition occupies exactly one L4 slot.
    if (!_mem.validFrame(root) ||
        _frames[root].type != FrameType::PageTable ||
        _frames[root].level != 4)
        return;

    // Depth-first: a table's child tables go back before the table.
    std::function<void(hw::Frame, int)> retire = [&](hw::Frame table,
                                                     int level) {
        for (uint64_t i = 0; level > 1 && i < hw::pageSize / 8; i++) {
            hw::Pte entry = _mem.read64(table * hw::pageSize + i * 8);
            hw::Frame child = hw::pte::frameNum(entry);
            if ((entry & hw::pte::present) &&
                _frames[child].type == FrameType::PageTable)
                retire(child, level - 1);
        }
        returnFrame(table);
    };

    uint64_t l4_idx = hw::ptIndex(hw::ghostBase, hw::PtLevel::L4);
    hw::Paddr slot = root * hw::pageSize + l4_idx * 8;
    hw::Pte entry = _mem.read64(slot);
    if (entry & hw::pte::present) {
        hw::Frame l3 = hw::pte::frameNum(entry);
        if (_frames[l3].type == FrameType::PageTable)
            retire(l3, 3);
        _mem.write64(slot, 0);
    }
    flushEverywhere();
}

uint64_t
SvaVm::ghostPageCount(uint64_t pid) const
{
    auto it = _ghostPages.find(pid);
    return it == _ghostPages.end() ? 0 : it->second.size();
}

std::vector<hw::Vaddr>
SvaVm::ghostPagesOf(uint64_t pid) const
{
    std::vector<hw::Vaddr> out;
    auto it = _ghostPages.find(pid);
    if (it == _ghostPages.end())
        return out;
    out.reserve(it->second.size());
    for (const auto &[frame, va] : it->second)
        out.push_back(va);
    return out;
}

} // namespace vg::sva
