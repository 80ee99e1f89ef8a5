#include "kernel/system.hh"

namespace vg::kern
{

// Out of line: GCC 12 at -O3 reports a false -Wmaybe-uninitialized when
// this brace list is inlined into every SystemConfig copy.
std::vector<uint8_t>
defaultTpmSeed()
{
    return {'v', 'g', 't', 'p', 'm'};
}

System::System(const SystemConfig &config)
    : _config(config), _ctx(config.vg), _mem(config.memFrames),
      _cpus(_mem, _ctx), _iommu(_mem, _ctx), _tpm(config.tpmSeed),
      _disk(config.diskBlocks, _iommu, _ctx), _nicA(_iommu, _ctx),
      _nicB(_iommu, _ctx),
      _vm(_ctx, _mem, _cpus[0].mmu(), _iommu, _tpm),
      _kernel(_ctx, _mem, _cpus, _iommu, _tpm, _disk, _nicA, _nicB, _vm)
{
    _vm.attachCpus(_cpus);
    _nicA.connectTo(&_nicB);
    _nicB.connectTo(&_nicA);
}

void
System::boot()
{
    if (_booted)
        return;
    _vm.install(_config.rsaBits);
    _vm.boot();
    _kernel.boot();
    _booted = true;
}

} // namespace vg::kern
