/**
 * @file
 * Instrumented kernel memory access.
 *
 * The core FreeBSD-port substitution (see DESIGN.md): the C++ body of
 * the kernel stands in for code the paper compiles through the SVA
 * translator, so every access it makes to simulated memory flows
 * through this layer, which applies the *same* semantics the sandboxing
 * pass enforces on compiled modules:
 *
 *  - operand addresses are passed through sandboxAddress() (ghost
 *    addresses deflect to their masked alias; SVA-internal addresses
 *    collapse to 0 and fault),
 *  - stores are additionally refused when they physically land in
 *    frames the VM owns (page tables, code, ghost, SVA) — modelling
 *    that SVA never hands the kernel writable mappings of those,
 *  - every access charges the cost model (masking cycles under VG).
 *
 * Kmem also implements the cc::MemPort interface, so loaded kernel
 * modules executing on the simulated CPU share exactly this view.
 */

#ifndef VG_KERNEL_KMEM_HH
#define VG_KERNEL_KMEM_HH

#include "compiler/exec.hh"
#include "hw/cpu.hh"
#include "hw/mmu.hh"
#include "hw/phys_mem.hh"
#include "sim/context.hh"
#include "sva/vm.hh"

namespace vg::kern
{

/** The kernel's (instrumented) window onto simulated memory. */
class Kmem : public cc::MemPort
{
  public:
    Kmem(sim::SimContext &ctx, hw::PhysMem &mem, hw::Mmu &mmu,
         sva::SvaVm &vm);

    /** Attach the machine's vCPU set: translations go through the
     *  *active* CPU's MMU and the last-translation cache is keyed on
     *  the owning vCPU (+ that vCPU's generation counter), so remote
     *  shootdowns invalidate it exactly like local ones. */
    void attachCpus(hw::CpuSet &cpus) { _cpus = &cpus; }

    // ----------------------------------------------------------------
    // cc::MemPort — used by kernel-module code on the simulated CPU.
    // The sandboxing of *module* code happens in its own compiled
    // instructions; this port resolves the (already masked) virtual
    // address. Direct (unmasked) ghost accesses can only come from the
    // native path below, never from instrumented module code.
    // ----------------------------------------------------------------
    bool read(uint64_t va, unsigned bytes, uint64_t &out) override;
    bool write(uint64_t va, unsigned bytes, uint64_t val) override;
    bool copy(uint64_t dst, uint64_t src, uint64_t len) override;

    // ----------------------------------------------------------------
    // Native kernel accessors (the C++ kernel body). These apply the
    // sandbox masking themselves, as compiled instrumentation would.
    // ----------------------------------------------------------------

    /** Kernel load; returns 0 and counts a deflection for ghost
     *  operands, faults (returns false) for SVA-internal operands. */
    bool kread(hw::Vaddr va, unsigned bytes, uint64_t &out);

    /** Kernel store with identical masking semantics. */
    bool kwrite(hw::Vaddr va, unsigned bytes, uint64_t val);

    /** copyin()/copyout() between user VAs and kernel buffers, through
     *  the current address space with *kernel* privilege (as on x86
     *  without SMAP) but sandbox-masked. Bulk-charged. */
    bool copyIn(hw::Vaddr user_va, void *dst, uint64_t len);
    bool copyOut(hw::Vaddr user_va, const void *src, uint64_t len);

    /** Number of sandbox deflections observed (attack telemetry). */
    uint64_t deflections() const { return _deflections; }

  private:
    /**
     * Resolve a (pre-masked) virtual address to a physical address.
     * Kernel-half addresses use the direct map; user/ghost addresses
     * walk the current page tables behind a last-translation cache.
     * The cache is cost-identical to the walk: it only hits when the
     * MMU's TLB entry for the page is provably still installed with
     * the same PTE (checked via the Mmu generation counter), so the
     * tlbHit charge and mmu.tlb_hits bump match what Mmu::translate
     * would have done. Any doubt falls back to the real translate().
     */
    bool resolve(hw::Vaddr va, hw::Access access, hw::Paddr &pa);

    /** The one copyin/copyout loop: bulk charge, sandbox masking with
     *  deflection counting, page chunking and resolve(). @p access
     *  Read copies user memory into @p kbuf; Write copies @p kbuf out
     *  and is refused for frames storePermitted() rejects. */
    bool copyUser(hw::Vaddr user_va, uint8_t *kbuf, uint64_t len,
                  hw::Access access);

    /** Byte-at-a-time copy: copy()'s fallback for TLB-set-thrashing
     *  and physically overlapping chunks. */
    bool copyBytewise(uint64_t dst, uint64_t src, uint64_t len);
    /** True if the kernel may store to the frame containing @p pa. */
    bool storePermitted(hw::Paddr pa);

    /** MMU of the currently executing vCPU (construction MMU when no
     *  CPU set is attached). */
    hw::Mmu &
    curMmu()
    {
        return _cpus ? _cpus->active().mmu() : _mmu;
    }

    /** Last successful user/ghost-half translation. Valid only while
     *  the owning vCPU's Mmu generation is unchanged — a shootdown
     *  from *any* CPU bumps the target's generation, so remote
     *  invalidations kill the cache exactly like local ones. */
    struct TransCache
    {
        bool valid = false;
        /** vCPU whose TLB backed the fill (cache hits require the
         *  access to come from the same vCPU). */
        unsigned cpu = 0;
        uint64_t gen = 0;
        hw::Vaddr vpage = 0;
        hw::Paddr paBase = 0;
        hw::Pte pte = 0;
    };

    sim::SimContext &_ctx;
    hw::PhysMem &_mem;
    hw::Mmu &_mmu;
    sva::SvaVm &_vm;
    hw::CpuSet *_cpus = nullptr;
    uint64_t _deflections = 0;
    TransCache _tc;
    sim::StatHandle _hDeflections;
    sim::StatHandle _hBlockedStores;
    /** Same registry slot Mmu bumps; used for the synthetic per-byte
     *  TLB-hit charges of chunked copies. */
    sim::StatHandle _hTlbHits;
    /** Per-CPU mirrors of mmu.tlb_hits (cpuN.mmu.tlb_hits), bumped
     *  with the rollup so per-CPU sums stay exact; empty on
     *  single-CPU machines. */
    std::vector<sim::StatHandle> _hCpuTlbHits;

    /** Bump the active CPU's tlb-hit mirror alongside the rollup. */
    void
    bumpCpuTlbHits(uint64_t n)
    {
        if (!_hCpuTlbHits.empty())
            sim::StatSet::add(_hCpuTlbHits[_ctx.activeCpu()], n);
    }
};

} // namespace vg::kern

#endif // VG_KERNEL_KMEM_HH
