/**
 * @file
 * Whole-machine facade: hardware + Virtual Ghost VM + kernel.
 *
 * This is the top-level object examples, tests and benchmarks create.
 * Construction and boot() perform the full paper stack bring-up:
 * TPM-backed VM install/boot, IOMMU wiring, kernel boot (mkfs), and
 * the loopback network pair.
 */

#ifndef VG_KERNEL_SYSTEM_HH
#define VG_KERNEL_SYSTEM_HH

#include <memory>

#include "kernel/kernel.hh"

namespace vg::kern
{

/** The TPM seed every machine gets unless a config names another. */
std::vector<uint8_t> defaultTpmSeed();

/** Machine sizing knobs. */
struct SystemConfig
{
    sim::VgConfig vg = sim::VgConfig::full();
    uint64_t memFrames = 24 * 1024;      ///< 96 MB RAM
    uint64_t diskBlocks = 64 * 1024;     ///< 256 MB SSD
    size_t rsaBits = 384;                ///< VG key size (sim-friendly)
    std::vector<uint8_t> tpmSeed = defaultTpmSeed();
};

/** A booted simulated machine. */
class System
{
  public:
    explicit System(const SystemConfig &config = SystemConfig());

    /** Install (first boot) + boot the whole stack. */
    void boot();

    sim::SimContext &ctx() { return _ctx; }
    hw::PhysMem &mem() { return _mem; }
    /** Boot CPU's MMU (the only MMU when vcpus == 1). */
    hw::Mmu &mmu() { return _cpus[0].mmu(); }
    hw::Iommu &iommu() { return _iommu; }
    hw::Disk &disk() { return _disk; }
    /** Loopback NIC pair (A is the kernel's TX side). */
    hw::Nic &nicA() { return _nicA; }
    hw::Nic &nicB() { return _nicB; }
    sva::SvaVm &vm() { return _vm; }
    Kernel &kernel() { return _kernel; }

    /** Shorthand: spawn + run until all processes exit. */
    int
    runProcess(const std::string &name,
               std::function<int(UserApi &)> main_fn)
    {
        uint64_t pid = _kernel.spawn(name, std::move(main_fn));
        _kernel.run();
        auto it = _kernel.exitCodes().find(pid);
        return it == _kernel.exitCodes().end() ? -1 : it->second;
    }

  private:
    SystemConfig _config;
    sim::SimContext _ctx;
    hw::PhysMem _mem;
    hw::CpuSet _cpus;
    hw::Iommu _iommu;
    hw::Tpm _tpm;
    hw::Disk _disk;
    hw::Nic _nicA;
    hw::Nic _nicB;
    sva::SvaVm _vm;
    Kernel _kernel;
    bool _booted = false;
};

} // namespace vg::kern

#endif // VG_KERNEL_SYSTEM_HH
