/**
 * @file
 * Simulated MMU with a 4-level page-table walker and a small TLB.
 */

#ifndef VG_HW_MMU_HH
#define VG_HW_MMU_HH

#include <array>
#include <cstdint>
#include <optional>

#include "hw/pagetable.hh"
#include "hw/phys_mem.hh"
#include "sim/context.hh"

namespace vg::hw
{

/** Why a translation failed. */
enum class FaultKind
{
    None,
    NotPresent,
    Protection,
    NonCanonical,
    BadPhys,
};

/** Result of a translation attempt. */
struct TranslateResult
{
    bool ok = false;
    Paddr paddr = 0;
    FaultKind fault = FaultKind::None;
    Vaddr faultVa = 0;
    /** Leaf PTE on success (lets callers cache perms with the paddr). */
    Pte pte = 0;
};

/** The memory-management unit: CR3, TLB, walker. */
class Mmu
{
  public:
    /** @p cpu_id is the owning vCPU; stats gain a per-CPU namespace
     *  (cpuN.mmu.*) on multi-CPU machines. */
    Mmu(PhysMem &mem, sim::SimContext &ctx, unsigned cpu_id = 0);

    /** Load a new root table ("mov cr3"); flushes the TLB. */
    void setRoot(Paddr root);

    Paddr root() const { return _root; }

    /** Translate @p va for @p access at @p priv. Charges TLB/walk
     *  cycles against the simulation clock. */
    TranslateResult translate(Vaddr va, Access access, Privilege priv);

    /** Invalidate one page's TLB entry ("invlpg"). */
    void invalidatePage(Vaddr va);

    /** Flush the whole TLB. */
    void flushTlb();

    /**
     * Walk the tables without charging time or touching the TLB
     * (used by SVA checks and by tests to inspect mappings).
     */
    std::optional<Pte> probe(Vaddr va) const;

    /**
     * Monotonic count of events that may have removed or replaced a
     * TLB entry: CR3 loads, TLB flushes, invlpg of a live entry, and
     * walks that evict a live entry. While the generation is
     * unchanged, any entry a caller observed via translate() is still
     * installed with the same PTE, so translation caches layered above
     * the MMU (see Kmem) stay exact: a cached hit charges the same
     * tlbHit cost the TLB hit would have.
     */
    uint64_t generation() const { return _generation; }

    /**
     * Whether this TLB currently holds a live entry for @p va's page.
     * Used by the shootdown protocol to decide which remote CPUs need
     * an invalidation IPI.
     */
    bool
    tlbHolds(Vaddr va) const
    {
        const TlbEntry &e = _tlb[tlbIndex(va)];
        return e.valid && e.vpage == pageOf(va);
    }

    /**
     * Whether any live TLB entry translates into physical frame
     * @p frame. This is the retype-safety oracle: a frame must not be
     * released or retyped while some TLB can still reach it.
     */
    bool
    tlbReferencesFrame(uint64_t frame) const
    {
        for (const auto &e : _tlb)
            if (e.valid && pte::frameAddr(e.pte) == frame * pageSize)
                return true;
        return false;
    }

    /** Whether any TLB entry at all is live (empty TLBs need no
     *  shootdown on a full flush). */
    bool
    anyValidTlbEntry() const
    {
        for (const auto &e : _tlb)
            if (e.valid)
                return true;
        return false;
    }

    /** Whether PTE @p e permits @p access at @p priv. */
    static bool allowed(Pte e, Access access, Privilege priv);

    static constexpr size_t tlbEntries = 64;

    /** Direct-mapped TLB set for @p va (two live pages sharing a set
     *  evict each other on alternating access). */
    static size_t tlbIndex(Vaddr va);

  private:
    struct TlbEntry
    {
        bool valid = false;
        Vaddr vpage = 0;
        Pte pte = 0;
    };

    TranslateResult walk(Vaddr va, Access access, Privilege priv,
                         bool charge);

    PhysMem &_mem;
    sim::SimContext &_ctx;
    Paddr _root = 0;
    std::array<TlbEntry, tlbEntries> _tlb;
    uint64_t _generation = 0;
    sim::StatHandle _hTlbHits;
    sim::StatHandle _hTlbMisses;
    sim::StatHandle _hPermRewalks;
    // Per-CPU namespaced mirrors; null on single-CPU machines.
    sim::StatHandle _hCpuTlbHits = nullptr;
    sim::StatHandle _hCpuTlbMisses = nullptr;
    sim::StatHandle _hCpuPermRewalks = nullptr;
};

} // namespace vg::hw

#endif // VG_HW_MMU_HH
