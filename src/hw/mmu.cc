#include "hw/mmu.hh"

#include "sim/log.hh"

namespace vg::hw
{

Mmu::Mmu(PhysMem &mem, sim::SimContext &ctx, unsigned cpu_id)
    : _mem(mem), _ctx(ctx),
      _hTlbHits(ctx.stats().handle("mmu.tlb_hits")),
      _hTlbMisses(ctx.stats().handle("mmu.tlb_misses")),
      _hPermRewalks(ctx.stats().handle("mmu.tlb_perm_rewalks"))
{
    if (ctx.vcpuCount() > 1) {
        std::string p = "cpu" + std::to_string(cpu_id) + ".";
        _hCpuTlbHits = ctx.stats().handle(p + "mmu.tlb_hits");
        _hCpuTlbMisses = ctx.stats().handle(p + "mmu.tlb_misses");
        _hCpuPermRewalks =
            ctx.stats().handle(p + "mmu.tlb_perm_rewalks");
    }
}

void
Mmu::setRoot(Paddr root)
{
    if (pageOffset(root) != 0)
        sim::panic("Mmu::setRoot: unaligned root %#lx",
                   (unsigned long)root);
    _root = root;
    flushTlb();
}

void
Mmu::flushTlb()
{
    for (auto &e : _tlb)
        e.valid = false;
    _generation++;
}

size_t
Mmu::tlbIndex(Vaddr va)
{
    return (va >> pageShift) % tlbEntries;
}

void
Mmu::invalidatePage(Vaddr va)
{
    TlbEntry &e = _tlb[tlbIndex(va)];
    if (e.valid && e.vpage == pageOf(va)) {
        e.valid = false;
        _generation++;
    }
}

bool
Mmu::allowed(Pte e, Access access, Privilege priv)
{
    if (priv == Privilege::User && !(e & pte::user))
        return false;
    if (access == Access::Write && !(e & pte::writable))
        return false;
    if (access == Access::Exec && (e & pte::noExec))
        return false;
    return true;
}

TranslateResult
Mmu::walk(Vaddr va, Access access, Privilege priv, bool charge)
{
    TranslateResult res;
    res.faultVa = va;

    // Canonical-address check: bits 63..47 must all equal bit 47.
    uint64_t upper = va >> 47;
    if (upper != 0 && upper != 0x1ffff) {
        res.fault = FaultKind::NonCanonical;
        return res;
    }

    Paddr table = _root;
    Pte entry = 0;
    Paddr leafSlot = 0;
    for (int level = 4; level >= 1; level--) {
        if (!_mem.valid(table + pageSize - 1)) {
            res.fault = FaultKind::BadPhys;
            return res;
        }
        if (charge)
            _ctx.clock().advance(_ctx.costs().pageWalkPerLevel);
        uint64_t idx = ptIndex(va, static_cast<PtLevel>(level));
        leafSlot = table + idx * 8;
        entry = _mem.read64(leafSlot);
        if (!(entry & pte::present)) {
            res.fault = FaultKind::NotPresent;
            return res;
        }
        table = pte::frameAddr(entry);
    }

    // Reference bit for the ghost eviction clock. Only ghost leaves
    // carry it so the kernel-address fast paths stay byte-identical.
    if (isGhostAddr(va) && !(entry & pte::accessed)) {
        entry |= pte::accessed;
        _mem.write64(leafSlot, entry);
    }

    if (!allowed(entry, access, priv)) {
        res.fault = FaultKind::Protection;
        return res;
    }

    Paddr pa = pte::frameAddr(entry) + pageOffset(va);
    if (!_mem.valid(pa)) {
        res.fault = FaultKind::BadPhys;
        return res;
    }

    res.ok = true;
    res.paddr = pa;
    res.fault = FaultKind::None;
    res.pte = entry;

    TlbEntry &t = _tlb[tlbIndex(va)];
    if (t.valid && (t.vpage != pageOf(va) || t.pte != entry))
        _generation++; // evicting (or rewriting) a live entry
    t.valid = true;
    t.vpage = pageOf(va);
    t.pte = entry;
    return res;
}

TranslateResult
Mmu::translate(Vaddr va, Access access, Privilege priv)
{
    TlbEntry &t = _tlb[tlbIndex(va)];
    if (t.valid && t.vpage == pageOf(va)) {
        if (allowed(t.pte, access, priv)) {
            _ctx.clock().advance(_ctx.costs().tlbHit);
            sim::StatSet::add(_hTlbHits);
            if (_hCpuTlbHits)
                sim::StatSet::add(_hCpuTlbHits);
            TranslateResult res;
            res.ok = true;
            res.paddr = pte::frameAddr(t.pte) + pageOffset(va);
            res.faultVa = va;
            res.pte = t.pte;
            return res;
        }
        // Permission upgrade needed: re-walk (the PTE may have been
        // changed to allow it). Not a TLB miss — the entry is present.
        sim::StatSet::add(_hPermRewalks);
        if (_hCpuPermRewalks)
            sim::StatSet::add(_hCpuPermRewalks);
        return walk(va, access, priv, true);
    }
    sim::StatSet::add(_hTlbMisses);
    if (_hCpuTlbMisses)
        sim::StatSet::add(_hCpuTlbMisses);
    return walk(va, access, priv, true);
}

std::optional<Pte>
Mmu::probe(Vaddr va) const
{
    Paddr table = _root;
    Pte entry = 0;
    for (int level = 4; level >= 1; level--) {
        if (!_mem.valid(table + pageSize - 1))
            return std::nullopt;
        uint64_t idx = ptIndex(va, static_cast<PtLevel>(level));
        entry = _mem.read64(table + idx * 8);
        if (!(entry & pte::present))
            return std::nullopt;
        table = pte::frameAddr(entry);
    }
    return entry;
}

} // namespace vg::hw
