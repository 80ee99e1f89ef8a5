#include "kernel/kmem.hh"

#include <algorithm>
#include <cstring>

#include "hw/layout.hh"
#include "sim/log.hh"

namespace vg::kern
{

Kmem::Kmem(sim::SimContext &ctx, hw::PhysMem &mem, hw::Mmu &mmu,
           sva::SvaVm &vm)
    : _ctx(ctx), _mem(mem), _mmu(mmu), _vm(vm),
      _hDeflections(ctx.stats().handle("kmem.deflections")),
      _hBlockedStores(ctx.stats().handle("kmem.blocked_stores")),
      _hTlbHits(ctx.stats().handle("mmu.tlb_hits"))
{
    if (ctx.vcpuCount() > 1) {
        _hCpuTlbHits.resize(ctx.vcpuCount());
        for (unsigned c = 0; c < ctx.vcpuCount(); c++) {
            _hCpuTlbHits[c] = ctx.stats().handle(
                "cpu" + std::to_string(c) + ".mmu.tlb_hits");
        }
    }
}

bool
Kmem::resolve(hw::Vaddr va, hw::Access access, hw::Paddr &pa)
{
    if (va == 0)
        return false; // rewritten SVA-internal access: fault

    if (va >= hw::kernelBase) {
        // Kernel half: direct map (kernelBase + pa), wrapped to the
        // installed RAM size so arbitrary masked aliases still read
        // *something* from the kernel's own address space, as the
        // paper observes for deflected rootkit reads.
        pa = (va - hw::kernelBase) % _mem.sizeBytes();
        return true;
    }

    // User (or ghost, when unmasked module-port access) address: walk
    // the current tree with kernel privilege, unless the last-
    // translation cache hits. A hit requires the access to come from
    // the vCPU that filled the cache AND that vCPU's Mmu generation to
    // be unchanged since the fill, which guarantees its TLB still
    // holds this page with this PTE: translate() would have charged
    // exactly one tlbHit. Remote shootdowns bump the owning vCPU's
    // generation, so a stale ghost translation can never be served
    // after a cross-CPU invalidation.
    hw::Mmu &mmu = curMmu();
    unsigned cpu = _ctx.activeCpu();
    if (_tc.valid && _tc.cpu == cpu && _tc.gen == mmu.generation() &&
        _tc.vpage == hw::pageOf(va) &&
        hw::Mmu::allowed(_tc.pte, access, hw::Privilege::Kernel)) {
        _ctx.clock().advance(_ctx.costs().tlbHit);
        sim::StatSet::add(_hTlbHits);
        bumpCpuTlbHits(1);
        pa = _tc.paBase + hw::pageOffset(va);
        return true;
    }

    auto r = mmu.translate(va, access, hw::Privilege::Kernel);
    if (!r.ok)
        return false;
    _tc.valid = true;
    _tc.cpu = cpu;
    _tc.gen = mmu.generation(); // post-walk: counts our own eviction
    _tc.vpage = hw::pageOf(va);
    _tc.paBase = r.paddr - hw::pageOffset(va);
    _tc.pte = r.pte;
    pa = r.paddr;
    return true;
}

bool
Kmem::storePermitted(hw::Paddr pa)
{
    hw::Frame frame = pa >> hw::pageShift;
    if (frame >= _vm.frames().size())
        return false;
    switch (_vm.frames()[frame].type) {
      case sva::FrameType::PageTable:
      case sva::FrameType::Code:
      case sva::FrameType::Ghost:
      case sva::FrameType::SvaInternal:
        return false;
      default:
        return true;
    }
}

bool
Kmem::read(uint64_t va, unsigned bytes, uint64_t &out)
{
    hw::Paddr pa = 0;
    if (!resolve(va, hw::Access::Read, pa))
        return false;
    out = 0;
    switch (bytes) {
      case 1:
        out = _mem.read8(pa);
        break;
      case 2:
        out = _mem.read16(pa);
        break;
      case 4:
        out = _mem.read32(pa);
        break;
      case 8:
        out = _mem.read64(pa);
        break;
      default:
        return false;
    }
    return true;
}

bool
Kmem::write(uint64_t va, unsigned bytes, uint64_t val)
{
    hw::Paddr pa = 0;
    if (!resolve(va, hw::Access::Write, pa))
        return false;
    if (!storePermitted(pa)) {
        sim::StatSet::add(_hBlockedStores);
        return false;
    }
    switch (bytes) {
      case 1:
        _mem.write8(pa, uint8_t(val));
        break;
      case 2:
        _mem.write16(pa, uint16_t(val));
        break;
      case 4:
        _mem.write32(pa, uint32_t(val));
        break;
      case 8:
        _mem.write64(pa, val);
        break;
      default:
        return false;
    }
    return true;
}

bool
Kmem::copyBytewise(uint64_t dst, uint64_t src, uint64_t len)
{
    for (uint64_t off = 0; off < len; off++) {
        uint64_t byte = 0;
        if (!read(src + off, 1, byte))
            return false;
        if (!write(dst + off, 1, byte))
            return false;
    }
    return true;
}

bool
Kmem::copy(uint64_t dst, uint64_t src, uint64_t len)
{
    uint64_t off = 0;
    while (off < len) {
        hw::Vaddr s = src + off;
        hw::Vaddr d = dst + off;
        uint64_t chunk = std::min(
            {len - off, hw::pageSize - hw::pageOffset(s),
             hw::pageSize - hw::pageOffset(d)});

        // The chunk's first byte goes through the real machinery so
        // walks, faults, and the blocked-store bump land in byte-copy
        // order (src read before dst write).
        hw::Paddr spa = 0, dpa = 0;
        if (!resolve(s, hw::Access::Read, spa))
            return false;
        if (!resolve(d, hw::Access::Write, dpa))
            return false;
        if (!storePermitted(dpa)) {
            sim::StatSet::add(_hBlockedStores);
            return false;
        }
        _mem.write8(dpa, _mem.read8(spa));

        uint64_t rest = chunk - 1;
        if (rest > 0) {
            bool sXlat = s < hw::kernelBase;
            bool dXlat = d < hw::kernelBase;
            // The remaining bytes are uniform TLB hits in a byte-at-
            // a-time copy except in two cases, which take the byte
            // loop itself:
            //  - src and dst pages share a direct-mapped TLB set, so
            //    a byte copy walk-thrashes every byte;
            //  - the physical ranges overlap, so a forward byte copy
            //    propagates freshly written bytes.
            bool thrash = sXlat && dXlat &&
                          hw::pageOf(s) != hw::pageOf(d) &&
                          hw::Mmu::tlbIndex(s) == hw::Mmu::tlbIndex(d);
            bool overlap =
                spa < dpa + chunk && dpa < spa + chunk;
            if (thrash || overlap) {
                if (!copyBytewise(d + 1, s + 1, rest))
                    return false;
            } else {
                uint64_t hits =
                    (sXlat ? rest : 0) + (dXlat ? rest : 0);
                if (hits > 0) {
                    _ctx.clock().advance(hits * _ctx.costs().tlbHit);
                    sim::StatSet::add(_hTlbHits, hits);
                    bumpCpuTlbHits(hits);
                }
                uint8_t buf[hw::pageSize];
                _mem.readBytes(spa + 1, buf, rest);
                _mem.writeBytes(dpa + 1, buf, rest);
            }
        }
        off += chunk;
    }
    return true;
}

bool
Kmem::kread(hw::Vaddr va, unsigned bytes, uint64_t &out)
{
    hw::Vaddr masked = hw::sandboxAddress(va);
    if (masked != va) {
        _deflections++;
        sim::StatSet::add(_hDeflections);
    }
    _ctx.chargeKernelWork(2, 1, 0);
    return read(masked, bytes, out);
}

bool
Kmem::kwrite(hw::Vaddr va, unsigned bytes, uint64_t val)
{
    hw::Vaddr masked = hw::sandboxAddress(va);
    if (masked != va) {
        _deflections++;
        sim::StatSet::add(_hDeflections);
    }
    _ctx.chargeKernelWork(2, 1, 0);
    return write(masked, bytes, val);
}

bool
Kmem::copyUser(hw::Vaddr user_va, uint8_t *kbuf, uint64_t len,
               hw::Access access)
{
    _ctx.chargeKernelBulk(len);
    uint64_t off = 0;
    while (off < len) {
        hw::Vaddr va = hw::sandboxAddress(user_va + off);
        if (va != user_va + off) {
            _deflections++;
            sim::StatSet::add(_hDeflections);
        }
        uint64_t chunk = std::min<uint64_t>(
            len - off, hw::pageSize - hw::pageOffset(va));
        hw::Paddr pa = 0;
        if (!resolve(va, access, pa))
            return false;
        if (access == hw::Access::Write) {
            if (!storePermitted(pa)) {
                sim::StatSet::add(_hBlockedStores);
                return false;
            }
            _mem.writeBytes(pa, kbuf + off, chunk);
        } else {
            _mem.readBytes(pa, kbuf + off, chunk);
        }
        off += chunk;
    }
    return true;
}

bool
Kmem::copyIn(hw::Vaddr user_va, void *dst, uint64_t len)
{
    return copyUser(user_va, static_cast<uint8_t *>(dst), len,
                    hw::Access::Read);
}

bool
Kmem::copyOut(hw::Vaddr user_va, const void *src, uint64_t len)
{
    // The write side only reads the kernel buffer.
    return copyUser(user_va,
                    static_cast<uint8_t *>(const_cast<void *>(src)), len,
                    hw::Access::Write);
}

} // namespace vg::kern
