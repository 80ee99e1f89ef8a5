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
    if (!_frameProvider)
        return failOp(err, "allocgm: no frame provider");

    for (uint64_t i = 0; i < npages; i++) {
        hw::Vaddr page_va = va + i * hw::pageSize;
        std::optional<hw::Frame> frame = _frameProvider();
        if (!frame)
            return failOp(err, "allocgm: OS out of frames");
        FrameMeta &meta = _frames[*frame];
        // The OS must have removed every mapping to this frame.
        if (meta.type != FrameType::Free || meta.mapCount != 0) {
            return failOp(err, sim::strprintf(
                                   "allocgm: frame %lu still %s/%u",
                                   (unsigned long)*frame,
                                   frameTypeName(meta.type),
                                   meta.mapCount));
        }
        if (!frameRetypeSafe(*frame, "allocgm", err))
            return false;
        _mem.zeroFrame(*frame);
        meta.type = FrameType::Ghost;
        meta.owner = pid;
        _iommu.protectFrame(*frame);
        if (!mapGhostPage(root, page_va, *frame, err))
            return false;
        _ghostPages[pid].push_back({*frame, page_va});
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

    for (uint64_t i = 0; i < npages; i++) {
        hw::Vaddr page_va = va + i * hw::pageSize;
        hw::Paddr slot = 0;
        if (!ghostLeafSlot(_mem, _frames, root, page_va, slot))
            return failOp(err, "freegm: page not mapped");
        hw::Pte entry = _mem.read64(slot);
        if (!(entry & hw::pte::present))
            return failOp(err, "freegm: page not present");
        hw::Frame frame = hw::pte::frameNum(entry);
        FrameMeta &meta = _frames[frame];
        if (meta.type != FrameType::Ghost || meta.owner != pid)
            return failOp(err, "freegm: page is not this process's "
                               "ghost memory");

        _mem.write64(slot, 0);
        invalidateEverywhere(page_va);
        if (!frameRetypeSafe(frame, "freegm", err))
            return false;
        _mem.zeroFrame(frame); // no data leaks back to the OS
        meta.type = FrameType::Free;
        meta.owner = 0;
        if (meta.mapCount > 0)
            meta.mapCount--;
        _iommu.unprotectFrame(frame);
        if (_frameReceiver)
            _frameReceiver(frame);

        auto &pages = _ghostPages[pid];
        for (auto it = pages.begin(); it != pages.end(); ++it) {
            if (it->second == page_va) {
                pages.erase(it);
                break;
            }
        }
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
    FrameMeta &meta = _frames[frame];
    _mem.zeroFrame(frame);
    meta.type = FrameType::Free;
    meta.owner = 0;
    if (meta.mapCount > 0)
        meta.mapCount--;
    _iommu.unprotectFrame(frame);
    if (_frameReceiver)
        _frameReceiver(frame);

    auto &pages = _ghostPages[pid];
    for (auto it = pages.begin(); it != pages.end(); ++it) {
        if (it->second == va) {
            pages.erase(it);
            break;
        }
    }
    sim::StatSet::add(_hGhostSwappedOut);
    return true;
}

std::optional<crypto::SealedBlob>
SvaVm::swapOutGhostPage(uint64_t pid, hw::Frame root, hw::Vaddr va,
                        SvaError *err)
{
    hw::Paddr slot = 0;
    hw::Frame frame = 0;
    if (!validateGhostPage(pid, root, va, "swapout", slot, frame, err))
        return std::nullopt;

    std::vector<uint8_t> plain(hw::pageSize);
    _mem.readBytes(frame * hw::pageSize, plain.data(), plain.size());
    _ctx.clock().advance(_ctx.costs().sealSetup);
    _ctx.chargeAes(plain.size());
    _ctx.chargeSha(plain.size());
    uint64_t gen = _nextSwapGen++;
    _swapGens[{pid, va}] = gen;
    crypto::SealedBlob blob =
        crypto::seal(swapKey(), _rng, plain, swapAad(pid, va, gen));

    if (!detachGhostFrame(pid, va, slot, frame, "swapout", err))
        return std::nullopt;
    return blob;
}

std::vector<crypto::SealedBlob>
SvaVm::swapOutGhostBatch(uint64_t pid, hw::Frame root,
                         const std::vector<hw::Vaddr> &vas,
                         SvaError *err)
{
    // Validate the whole batch up front: a bad va evicts nothing.
    std::vector<hw::Paddr> slots(vas.size());
    std::vector<hw::Frame> framesOf(vas.size());
    for (size_t i = 0; i < vas.size(); i++)
        if (!validateGhostPage(pid, root, vas[i], "swapout", slots[i],
                               framesOf[i], err))
            return {};

    // Gather plaintexts and bind each page's fresh generation into its
    // AAD; seal the lot in one pipelined pass. Setup cost is charged
    // once per batch — the per-byte crypto work is identical to the
    // per-page path, as are the resulting blobs.
    std::vector<crypto::SealInput> batch(vas.size());
    for (size_t i = 0; i < vas.size(); i++) {
        batch[i].plain.resize(hw::pageSize);
        _mem.readBytes(framesOf[i] * hw::pageSize,
                       batch[i].plain.data(), hw::pageSize);
        uint64_t gen = _nextSwapGen++;
        _swapGens[{pid, vas[i]}] = gen;
        batch[i].aad = swapAad(pid, vas[i], gen);
    }
    _ctx.clock().advance(_ctx.costs().sealSetup);
    for (size_t i = 0; i < vas.size(); i++) {
        _ctx.chargeAes(hw::pageSize);
        _ctx.chargeSha(hw::pageSize);
    }
    std::vector<crypto::SealedBlob> blobs = crypto::sealBatch(swapKey(), _rng, batch);

    for (size_t i = 0; i < vas.size(); i++)
        if (!detachGhostFrame(pid, vas[i], slots[i], framesOf[i],
                              "swapout", err))
            return {};
    sim::StatSet::add(_hGhostSwapBatches);
    return blobs;
}

bool
SvaVm::swapInGhostPage(uint64_t pid, hw::Frame root, hw::Vaddr va,
                       const crypto::SealedBlob &blob, SvaError *err)
{
    auto genIt = _swapGens.find({pid, va});
    if (genIt == _swapGens.end())
        return failOp(err, "swapin: no swapped page recorded for this "
                           "slot (replayed to the wrong slot?)");
    bool ok = false;
    _ctx.clock().advance(_ctx.costs().sealSetup);
    _ctx.chargeAes(blob.ciphertext.size());
    _ctx.chargeSha(blob.ciphertext.size());
    std::vector<uint8_t> plain = crypto::unseal(
        swapKey(), blob, ok, swapAad(pid, va, genIt->second));
    if (!ok || plain.size() != hw::pageSize)
        return failOp(err, "swapin: page fails verification (tampered, "
                           "stale, or replayed to the wrong slot)");

    if (!_frameProvider)
        return failOp(err, "swapin: no frame provider");
    std::optional<hw::Frame> frame = _frameProvider();
    if (!frame)
        return failOp(err, "swapin: OS out of frames");
    FrameMeta &meta = _frames[*frame];
    if (meta.type != FrameType::Free || meta.mapCount != 0)
        return failOp(err, "swapin: donated frame still in use");
    if (!frameRetypeSafe(*frame, "swapin", err))
        return false;

    meta.type = FrameType::Ghost;
    meta.owner = pid;
    _iommu.protectFrame(*frame);
    _mem.writeBytes(*frame * hw::pageSize, plain.data(), plain.size());
    if (!mapGhostPage(root, va, *frame, err))
        return false;
    _ghostPages[pid].push_back({*frame, va});
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

    // Depth-first free of a table subtree; tables are VM-owned.
    std::function<void(hw::Frame, int)> free_subtree =
        [&](hw::Frame table, int level) {
            for (uint64_t i = 0; i < hw::pageSize / 8; i++) {
                hw::Pte entry =
                    _mem.read64(table * hw::pageSize + i * 8);
                if (!(entry & hw::pte::present))
                    continue;
                hw::Frame child = hw::pte::frameNum(entry);
                if (level > 2 &&
                    _frames[child].type == FrameType::PageTable)
                    free_subtree(child, level - 1);
                if (_frames[child].type == FrameType::PageTable) {
                    _mem.zeroFrame(child);
                    _frames[child].type = FrameType::Free;
                    _frames[child].level = 0;
                    _iommu.unprotectFrame(child);
                    if (_frameReceiver)
                        _frameReceiver(child);
                }
                _mem.write64(table * hw::pageSize + i * 8, 0);
            }
        };

    uint64_t l4_idx = hw::ptIndex(hw::ghostBase, hw::PtLevel::L4);
    hw::Paddr slot = root * hw::pageSize + l4_idx * 8;
    hw::Pte entry = _mem.read64(slot);
    if (entry & hw::pte::present) {
        hw::Frame l3 = hw::pte::frameNum(entry);
        if (_frames[l3].type == FrameType::PageTable) {
            free_subtree(l3, 3);
            _mem.zeroFrame(l3);
            _frames[l3].type = FrameType::Free;
            _frames[l3].level = 0;
            _iommu.unprotectFrame(l3);
            if (_frameReceiver)
                _frameReceiver(l3);
        }
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
