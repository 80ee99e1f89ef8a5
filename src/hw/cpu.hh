/**
 * @file
 * Simulated vCPU and the machine's CPU set.
 *
 * Each vCPU owns the per-processor hardware the paper's design relies
 * on: a private TLB (via its own Mmu front-end over the shared page
 * tables), a local APIC timer driven by its own cycle clock, and a
 * modelled register file that the SVA layer zeroes on kernel entry
 * when interrupt-context protection is active.
 *
 * Only one vCPU executes at a time (the sim is single-threaded); the
 * scheduler marks the running CPU through SimContext::setActiveCpu()
 * and its deterministic pick (Kernel::pickNext) decides who goes
 * next.
 */

#ifndef VG_HW_CPU_HH
#define VG_HW_CPU_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "hw/mmu.hh"
#include "hw/ring.hh"
#include "hw/timer.hh"
#include "sim/context.hh"

namespace vg::hw
{

/** One simulated processor: registers, private TLB, local timer. */
class Cpu
{
  public:
    Cpu(unsigned id, PhysMem &mem, sim::SimContext &ctx)
        : _mmu(mem, ctx, id), _timer(ctx.clockOf(id))
    {}

    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    Mmu &mmu() { return _mmu; }
    Timer &timer() { return _timer; }

    /** Modelled general-purpose register file. The SVA layer zeroes
     *  it on kernel entry so the kernel never sees application
     *  register state (S 4.6). */
    std::array<uint64_t, 16> regs{};
    uint64_t pc = 0;
    uint64_t sp = 0;

    /** Zero the visible register file (kernel-entry scrub). */
    void
    zeroRegs()
    {
        regs.fill(0);
        pc = 0;
        sp = 0;
    }

    /** Wire a device interrupt line into this vCPU. Lines are shared
     *  machine-wide objects; a device re-steers its line to another
     *  vCPU by IrqLine::wireTo() (MSI-X affinity), so a line attached
     *  here is "deliverable" on this CPU only while its affinity
     *  points at it. */
    void attachIrq(IrqLine *line) { _irqs.push_back(line); }

    /** Device lines attached to this vCPU (for the kernel's IRQ scan
     *  and for `vg_lint --dump-rings`). */
    const std::vector<IrqLine *> &irqLines() const { return _irqs; }

  private:
    Mmu _mmu;
    Timer _timer;
    std::vector<IrqLine *> _irqs;
};

/** The machine's vCPUs, sized from SimContext::vcpuCount(). */
class CpuSet
{
  public:
    CpuSet(PhysMem &mem, sim::SimContext &ctx) : _ctx(ctx)
    {
        for (unsigned i = 0; i < ctx.vcpuCount(); i++)
            _cpus.push_back(std::make_unique<Cpu>(i, mem, ctx));
    }

    unsigned count() const { return _cpus.size(); }

    Cpu &operator[](unsigned i) { return *_cpus[i]; }

    /** The vCPU currently marked active in the SimContext. */
    Cpu &active() { return *_cpus[_ctx.activeCpu()]; }

  private:
    sim::SimContext &_ctx;
    std::vector<std::unique_ptr<Cpu>> _cpus;
};

} // namespace vg::hw

#endif // VG_HW_CPU_HH
