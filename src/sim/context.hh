/**
 * @file
 * Aggregated simulation context.
 *
 * A SimContext bundles the per-CPU clocks, statistics, protection
 * configuration and cost model that every layer of the stack shares. It
 * also provides the charging helpers that translate functional events
 * into simulated cycles, so cost policy lives in exactly one place.
 *
 * SMP model: the machine owns one Clock per vCPU and the scheduler
 * marks which vCPU is currently executing via setActiveCpu(); all
 * charging helpers bill the active CPU's clock. With vcpus == 1 this
 * degenerates to the historical single-clock model bit-for-bit.
 */

#ifndef VG_SIM_CONTEXT_HH
#define VG_SIM_CONTEXT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/clock.hh"
#include "sim/config.hh"
#include "sim/costs.hh"
#include "sim/stats.hh"

namespace vg::sim
{

/** Shared simulation state: time, stats, config and cost model. */
class SimContext
{
  public:
    explicit SimContext(VgConfig config = VgConfig::full())
        : _clocks(config.vcpus ? config.vcpus : 1), _config(config)
    {
        // Per-CPU counter namespaces (cpu0.kernel.insts, ...) exist
        // only on multi-CPU machines so single-CPU stat maps stay
        // literally identical to the historical model.
        if (_clocks.size() > 1) {
            _cpuHandles.resize(_clocks.size());
            for (unsigned c = 0; c < _clocks.size(); c++) {
                std::string p = "cpu" + std::to_string(c) + ".";
                auto &h = _cpuHandles[c];
                h[CiKernInsts] = _stats.handle(p + "kernel.insts");
                h[CiKernMemops] = _stats.handle(p + "kernel.memops");
                h[CiKernTransfers] =
                    _stats.handle(p + "kernel.transfers");
                h[CiKernBulkBytes] =
                    _stats.handle(p + "kernel.bulk_bytes");
                h[CiSvaSyscalls] = _stats.handle(p + "sva.syscalls");
                h[CiSvaTraps] = _stats.handle(p + "sva.traps");
                h[CiSvaContextSwitches] =
                    _stats.handle(p + "sva.context_switches");
                h[CiSvaMmuUpdates] =
                    _stats.handle(p + "sva.mmu_updates");
                h[CiUserInsts] = _stats.handle(p + "user.insts");
                h[CiAesBytes] = _stats.handle(p + "crypto.aes_bytes");
                h[CiShaBytes] = _stats.handle(p + "crypto.sha_bytes");
            }
        }
    }

    /** The active (currently executing) vCPU's clock. */
    Clock &clock() { return _clocks[_active]; }

    /** Clock of a specific vCPU. */
    Clock &clockOf(unsigned cpu) { return _clocks[cpu]; }
    const Clock &clockOf(unsigned cpu) const { return _clocks[cpu]; }

    /** Number of vCPUs in the machine. */
    unsigned vcpuCount() const { return _clocks.size(); }

    /** Index of the currently executing vCPU. */
    unsigned activeCpu() const { return _active; }

    /** Mark vCPU @p cpu as the currently executing one. */
    void setActiveCpu(unsigned cpu) { _active = cpu; }

    StatSet &stats() { return _stats; }
    const VgConfig &config() const { return _config; }
    const CostModel &costs() const { return _costs; }

    // --- Charging helpers ---------------------------------------------

    /**
     * Charge a block of kernel computation.
     *
     * @param insts   modelled instruction count (includes the memops)
     * @param memops  discrete loads/stores within those instructions
     * @param xfers   calls/returns/indirect branches executed
     */
    void
    chargeKernelWork(uint64_t insts, uint64_t memops = 0,
                     uint64_t xfers = 0)
    {
        Cycles c = insts * _costs.kernInst;
        if (_config.sandboxMemory)
            c += memops * _costs.sandboxPerMemop;
        if (_config.cfi)
            c += xfers * _costs.cfiPerTransfer;
        clock().advance(c);
        StatSet::add(_hKernInsts, insts);
        StatSet::add(_hKernMemops, memops);
        StatSet::add(_hKernTransfers, xfers);
        bumpCpu(CiKernInsts, insts);
        bumpCpu(CiKernMemops, memops);
        bumpCpu(CiKernTransfers, xfers);
    }

    /** Charge a bulk kernel copy (memcpy/copyin/copyout) of @p bytes. */
    void
    chargeKernelBulk(uint64_t bytes)
    {
        Cycles c = bytes / _costs.bulkBytesPerCycle + 4;
        if (_config.sandboxMemory)
            c += _costs.sandboxPerBulk;
        clock().advance(c);
        StatSet::add(_hKernBulkBytes, bytes);
        bumpCpu(CiKernBulkBytes, bytes);
    }

    /** Charge syscall entry + exit gate cost. */
    void
    chargeSyscallGate()
    {
        Cycles c = _costs.syscallGate;
        if (_config.protectInterruptContext)
            c += _costs.syscallGateVgExtra;
        clock().advance(c);
        StatSet::add(_hSvaSyscalls);
        bumpCpu(CiSvaSyscalls, 1);
    }

    /** Charge trap/interrupt delivery. */
    void
    chargeTrap()
    {
        Cycles c = _costs.trapEntry;
        if (_config.protectInterruptContext)
            c += _costs.trapVgExtra;
        clock().advance(c);
        StatSet::add(_hSvaTraps);
        bumpCpu(CiSvaTraps, 1);
    }

    /** Charge a context switch. */
    void
    chargeContextSwitch()
    {
        Cycles c = _costs.contextSwitch;
        if (_config.protectInterruptContext)
            c += _costs.contextSwitchVgExtra;
        clock().advance(c);
        StatSet::add(_hSvaContextSwitches);
        bumpCpu(CiSvaContextSwitches, 1);
    }

    /** Charge one page-table-entry update. */
    void
    chargeMmuUpdate()
    {
        Cycles c = _costs.mmuUpdate;
        if (_config.mmuChecks)
            c += _costs.mmuUpdateVgExtra;
        clock().advance(c);
        StatSet::add(_hSvaMmuUpdates);
        bumpCpu(CiSvaMmuUpdates, 1);
    }

    /** Charge application-side computation (uninstrumented). */
    void
    chargeUserWork(uint64_t insts)
    {
        clock().advance(insts * _costs.kernInst);
        StatSet::add(_hUserInsts, insts);
        bumpCpu(CiUserInsts, insts);
    }

    /** Charge application-side AES over @p bytes. */
    void
    chargeAes(uint64_t bytes)
    {
        clock().advance(bytes * _costs.aesPerByte);
        StatSet::add(_hAesBytes, bytes);
        bumpCpu(CiAesBytes, bytes);
    }

    /** Charge application-side SHA-256 over @p bytes. */
    void
    chargeSha(uint64_t bytes)
    {
        clock().advance(bytes * _costs.shaPerByte);
        StatSet::add(_hShaBytes, bytes);
        bumpCpu(CiShaBytes, bytes);
    }

  private:
    // Index of each interned rollup counter within a per-CPU namespace.
    enum CounterIdx {
        CiKernInsts,
        CiKernMemops,
        CiKernTransfers,
        CiKernBulkBytes,
        CiSvaSyscalls,
        CiSvaTraps,
        CiSvaContextSwitches,
        CiSvaMmuUpdates,
        CiUserInsts,
        CiAesBytes,
        CiShaBytes,
        CiCount,
    };

    void
    bumpCpu(CounterIdx idx, uint64_t delta)
    {
        if (!_cpuHandles.empty())
            StatSet::add(_cpuHandles[_active][idx], delta);
    }

    std::vector<Clock> _clocks;
    unsigned _active = 0;
    StatSet _stats;
    VgConfig _config;
    CostModel _costs;

    // Interned counters for the per-event charging helpers above; the
    // helpers run on every simulated kernel memory access, so they must
    // not pay a string-keyed map lookup per call.
    StatHandle _hKernInsts = _stats.handle("kernel.insts");
    StatHandle _hKernMemops = _stats.handle("kernel.memops");
    StatHandle _hKernTransfers = _stats.handle("kernel.transfers");
    StatHandle _hKernBulkBytes = _stats.handle("kernel.bulk_bytes");
    StatHandle _hSvaSyscalls = _stats.handle("sva.syscalls");
    StatHandle _hSvaTraps = _stats.handle("sva.traps");
    StatHandle _hSvaContextSwitches =
        _stats.handle("sva.context_switches");
    StatHandle _hSvaMmuUpdates = _stats.handle("sva.mmu_updates");
    StatHandle _hUserInsts = _stats.handle("user.insts");
    StatHandle _hAesBytes = _stats.handle("crypto.aes_bytes");
    StatHandle _hShaBytes = _stats.handle("crypto.sha_bytes");

    // Per-CPU counter handles, [cpu][CounterIdx]; empty when vcpus==1.
    std::vector<std::array<StatHandle, CiCount>> _cpuHandles;
};

} // namespace vg::sim

#endif // VG_SIM_CONTEXT_HH
