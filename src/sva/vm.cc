#include "sva/vm.hh"

#include <cstring>

#include "crypto/sha256.hh"
#include "sim/log.hh"

namespace vg::sva
{

const char *
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::Free:
        return "free";
      case FrameType::Data:
        return "data";
      case FrameType::Ghost:
        return "ghost";
      case FrameType::PageTable:
        return "pagetable";
      case FrameType::Code:
        return "code";
      case FrameType::SvaInternal:
        return "sva-internal";
    }
    return "?";
}

/** Base of the region where translated module code is placed. */
static constexpr uint64_t kModuleCodeBase = 0xffffff9000000000ull;

SvaVm::SvaVm(sim::SimContext &ctx, hw::PhysMem &mem, hw::Mmu &mmu,
             hw::Iommu &iommu, hw::Tpm &tpm)
    : _ctx(ctx), _mem(mem), _mmu(mmu), _iommu(iommu), _tpm(tpm),
      _frames(mem.numFrames()), _rng(tpm.entropy(32)),
      _nextCodeBase(kModuleCodeBase),
      _hViolations(ctx.stats().handle("sva.violations")),
      _hRemoteInvlpgs(ctx.stats().handle("sva.remote_invlpgs")),
      _hRemoteParks(ctx.stats().handle("sva.remote_parks")),
      _hIcSaves(ctx.stats().handle("sva.ic_saves")),
      _hIcLoads(ctx.stats().handle("sva.ic_loads")),
      _hIpush(ctx.stats().handle("sva.ipush")),
      _hGetKey(ctx.stats().handle("sva.getkey")),
      _hRandomBytes(ctx.stats().handle("sva.random_bytes")),
      _hGhostAllocated(ctx.stats().handle("sva.ghost_pages_allocated")),
      _hGhostFreed(ctx.stats().handle("sva.ghost_pages_freed")),
      _hGhostSwappedOut(
          ctx.stats().handle("sva.ghost_pages_swapped_out")),
      _hGhostSwappedIn(ctx.stats().handle("sva.ghost_pages_swapped_in")),
      _hGhostSwapBatches(ctx.stats().handle("sva.ghost_swap_batches"))
{}

void
SvaVm::attachCpus(hw::CpuSet &cpus)
{
    _cpus = &cpus;
    _cpuState.assign(cpus.count(), VmState{});
    if (cpus.count() > 1) {
        _hCpuShootdowns.resize(cpus.count());
        for (unsigned c = 0; c < cpus.count(); c++) {
            _hCpuShootdowns[c] = _ctx.stats().handle(
                "cpu" + std::to_string(c) + ".sva.shootdowns_rx");
        }
    }
}

void
SvaVm::invalidateEverywhere(hw::Vaddr va)
{
    curMmu().invalidatePage(va);
    if (!_cpus)
        return;
    unsigned self = _ctx.activeCpu();
    for (unsigned c = 0; c < _cpus->count(); c++) {
        if (c == self)
            continue;
        hw::Mmu &m = (*_cpus)[c].mmu();
        if (!m.tlbHolds(va))
            continue;
        m.invalidatePage(va);
        _ctx.clock().advance(_ctx.costs().ipiSend);
        _ctx.clockOf(c).advance(_ctx.costs().ipiReceive);
        sim::StatSet::add(_hRemoteInvlpgs);
        if (c < _hCpuShootdowns.size() && _hCpuShootdowns[c])
            sim::StatSet::add(_hCpuShootdowns[c]);
    }
}

void
SvaVm::flushEverywhere()
{
    curMmu().flushTlb();
    if (!_cpus)
        return;
    unsigned self = _ctx.activeCpu();
    for (unsigned c = 0; c < _cpus->count(); c++) {
        if (c == self)
            continue;
        hw::Mmu &m = (*_cpus)[c].mmu();
        if (!m.anyValidTlbEntry())
            continue;
        m.flushTlb();
        _ctx.clock().advance(_ctx.costs().ipiSend);
        _ctx.clockOf(c).advance(_ctx.costs().ipiReceive);
        sim::StatSet::add(_hRemoteInvlpgs);
        if (c < _hCpuShootdowns.size() && _hCpuShootdowns[c])
            sim::StatSet::add(_hCpuShootdowns[c]);
    }
}

bool
SvaVm::anyTlbHoldsFrame(hw::Frame frame)
{
    if (_cpus) {
        for (unsigned c = 0; c < _cpus->count(); c++)
            if ((*_cpus)[c].mmu().tlbReferencesFrame(frame))
                return true;
        return false;
    }
    return _mmu.tlbReferencesFrame(frame);
}

bool
SvaVm::frameRetypeSafe(hw::Frame frame, const char *op, SvaError *err)
{
    if (!_ctx.config().mmuChecks)
        return true;
    if (!anyTlbHoldsFrame(frame))
        return true;
    return failOp(err, sim::strprintf(
                           "%s: frame %lu may still be reachable "
                           "through a stale TLB translation on some "
                           "CPU; shoot it down first",
                           op, (unsigned long)frame));
}

bool
SvaVm::failOp(SvaError *err, const std::string &message)
{
    _violations++;
    sim::StatSet::add(_hViolations);
    if (err)
        err->message = message;
    return false;
}

// --------------------------------------------------------------------
// Install / boot
// --------------------------------------------------------------------

void
SvaVm::install(size_t rsa_bits)
{
    crypto::CtrDrbg keygen_rng(_tpm.entropy(48));
    _privateKey = crypto::rsaGenerate(keygen_rng, rsa_bits);
    _swapKeyValid = false; // swapKey() derives from the private key
    _publicKey = _privateKey.publicKey();
    _sealedPrivateKey = _tpm.seal(_privateKey.serialize());
    _translationKey = _rng.generate(32);
    _installed = true;
    _ctx.stats().add("sva.installs");
}

void
SvaVm::boot()
{
    if (!_installed)
        sim::fatal("SvaVm::boot before install");
    bool ok = false;
    std::vector<uint8_t> priv = _tpm.unseal(_sealedPrivateKey, ok);
    if (!ok)
        sim::fatal("SvaVm::boot: sealed private key fails to verify "
                   "(tampered persistent state)");
    _privateKey = crypto::RsaPrivateKey::deserialize(priv, ok);
    _swapKeyValid = false;
    if (!ok)
        sim::fatal("SvaVm::boot: corrupt private key");
    _publicKey = _privateKey.publicKey();
    _translator = std::make_unique<cc::Translator>(_translationKey, _ctx);
    _booted = true;
}

// --------------------------------------------------------------------
// Threads / Interrupt Contexts
// --------------------------------------------------------------------

void
SvaVm::registerKernelEntry(uint64_t entry)
{
    _kernelEntries.insert(entry);
}

SvaThread *
SvaVm::newThread(uint64_t pid, uint64_t kernel_entry,
                 uint64_t clone_from_tid, SvaError *err)
{
    if (kernel_entry != 0 &&
        _kernelEntries.find(kernel_entry) == _kernelEntries.end()) {
        failOp(err, sim::strprintf("sva.newstate: %#lx is not a "
                                   "registered kernel entry point",
                                   (unsigned long)kernel_entry));
        return nullptr;
    }

    uint64_t tid = _nextTid++;
    SvaThread &t = _threads[tid];
    t.id = tid;
    t.processId = pid;
    t.kernelEntry = kernel_entry;
    if (clone_from_tid != 0) {
        SvaThread *src = thread(clone_from_tid);
        if (!src) {
            _threads.erase(tid);
            failOp(err, "sva.newstate: clone source does not exist");
            return nullptr;
        }
        t.ic = src->ic;
    }
    _ctx.stats().add("sva.threads_created");
    return &t;
}

SvaThread *
SvaVm::thread(uint64_t tid)
{
    auto it = _threads.find(tid);
    return it == _threads.end() ? nullptr : &it->second;
}

void
SvaVm::releaseIcPoolSlots(SvaThread &t)
{
    for (unsigned cpu : t.icStackPoolCpu) {
        if (cpu < _cpuState.size() && _cpuState[cpu].savedIcInUse > 0)
            _cpuState[cpu].savedIcInUse--;
    }
    t.icStackPoolCpu.clear();
}

void
SvaVm::destroyThread(uint64_t tid)
{
    SvaThread *t = thread(tid);
    if (t)
        releaseIcPoolSlots(*t);
    _threads.erase(tid);
}

bool
SvaVm::icontextSave(uint64_t tid, SvaError *err)
{
    SvaThread *t = thread(tid);
    if (!t)
        return failOp(err, "icontext.save: no such thread");
    // Double-save/load race guard (S 4.6): while the thread's state is
    // live in another CPU's register file, its IC is not the authority
    // and manipulating it from here would fork the register state.
    // The kernel must park the thread first (parkRemoteThread).
    unsigned self = _ctx.activeCpu();
    if (t->liveCpu >= 0 && unsigned(t->liveCpu) != self) {
        return failOp(err, sim::strprintf(
                               "icontext.save: thread %lu is live on "
                               "cpu%d, not cpu%u",
                               (unsigned long)tid, t->liveCpu, self));
    }
    // Saved-IC buffers come from a bounded per-CPU pool inside SVA
    // memory; refusing past the cap stops the kernel driving the VM
    // into unbounded allocation via signal storms.
    VmState &vs = _cpuState[self < _cpuState.size() ? self : 0];
    if (vs.savedIcInUse >= VmState::savedIcPoolSize)
        return failOp(err, "icontext.save: per-CPU saved-IC pool "
                           "exhausted");
    vs.savedIcInUse++;
    t->icStackPoolCpu.push_back(self < _cpuState.size() ? self : 0);
    t->icStack.push_back(t->ic);
    // Copying the IC within VM-internal memory is real work, but it
    // is VM code, not instrumented kernel code.
    _ctx.clock().advance(1300);
    sim::StatSet::add(_hIcSaves);
    return true;
}

bool
SvaVm::icontextLoad(uint64_t tid, SvaError *err)
{
    SvaThread *t = thread(tid);
    if (!t)
        return failOp(err, "icontext.load: no such thread");
    if (t->icStack.empty())
        return failOp(err, "icontext.load: empty IC stack");
    unsigned self = _ctx.activeCpu();
    if (t->liveCpu >= 0 && unsigned(t->liveCpu) != self) {
        return failOp(err, sim::strprintf(
                               "icontext.load: thread %lu is live on "
                               "cpu%d, not cpu%u",
                               (unsigned long)tid, t->liveCpu, self));
    }
    t->ic = t->icStack.back();
    t->icStack.pop_back();
    if (!t->icStackPoolCpu.empty()) {
        unsigned pool = t->icStackPoolCpu.back();
        t->icStackPoolCpu.pop_back();
        if (pool < _cpuState.size() &&
            _cpuState[pool].savedIcInUse > 0)
            _cpuState[pool].savedIcInUse--;
    }
    _ctx.clock().advance(1200);
    sim::StatSet::add(_hIcLoads);
    return true;
}

void
SvaVm::permitFunction(uint64_t pid, uint64_t handler)
{
    _ctx.clock().advance(90); // VM-internal list update
    _permitted[pid].insert(handler);
}

bool
SvaVm::ipushFunction(uint64_t tid, uint64_t handler, uint64_t arg,
                     SvaError *err)
{
    SvaThread *t = thread(tid);
    if (!t)
        return failOp(err, "ipush.function: no such thread");
    // The permit-list check is the Virtual Ghost protection (S 4.6.1);
    // the baseline kernel pushes whatever the OS asks for.
    if (_ctx.config().protectInterruptContext) {
        auto it = _permitted.find(t->processId);
        if (it == _permitted.end() ||
            it->second.find(handler) == it->second.end()) {
            return failOp(
                err, sim::strprintf("ipush.function: %#lx is not a "
                                    "permitted handler for pid %lu",
                                    (unsigned long)handler,
                                    (unsigned long)t->processId));
        }
    }
    t->pushedCalls.push_back({handler, arg});
    sim::StatSet::add(_hIpush);
    _ctx.clock().advance(400);
    return true;
}

bool
SvaVm::reinitIcontext(uint64_t tid, uint64_t pc, uint64_t sp,
                      hw::Frame root, SvaError *err)
{
    SvaThread *t = thread(tid);
    if (!t)
        return failOp(err, "reinit.icontext: no such thread");
    // Old image's ghost memory must become unreachable (S 4.6.2).
    releaseGhostMemory(t->processId, root);
    t->ic = InterruptContext{};
    t->ic.pc = pc;
    t->ic.sp = sp;
    t->ic.userMode = true;
    t->ic.valid = true;
    releaseIcPoolSlots(*t);
    t->icStack.clear();
    t->pushedCalls.clear();
    // Handler registrations belong to the old program text.
    _permitted.erase(t->processId);
    _ctx.stats().add("sva.reinits");
    _ctx.clock().advance(120);
    return true;
}

void
SvaVm::syscallEnter(uint64_t tid)
{
    _ctx.chargeSyscallGate();
    SvaThread *t = thread(tid);
    if (t) {
        t->ic.valid = true;
        t->liveCpu = -1; // state now lives in the saved IC
    }
    unsigned self = _ctx.activeCpu();
    if (self < _cpuState.size())
        _cpuState[self].currentTid = tid;
    // The kernel must never observe application register state: the
    // gate scrubs the CPU's visible register file (S 4.6).
    if (_cpus && _ctx.config().protectInterruptContext)
        _cpus->active().zeroRegs();
}

void
SvaVm::syscallExit(uint64_t tid)
{
    SvaThread *t = thread(tid);
    unsigned self = _ctx.activeCpu();
    if (t) {
        t->liveCpu = static_cast<int>(self);
        // Returning to user mode reloads the register file from the
        // thread's IC on this CPU.
        if (_cpus) {
            hw::Cpu &cpu = _cpus->active();
            cpu.regs = t->ic.regs;
            cpu.pc = t->ic.pc;
            cpu.sp = t->ic.sp;
        }
    }
    // Exit-path cost is folded into chargeSyscallGate().
}

void
SvaVm::noteDispatch(uint64_t tid)
{
    unsigned self = _ctx.activeCpu();
    if (self < _cpuState.size())
        _cpuState[self].currentTid = tid;
    SvaThread *t = thread(tid);
    if (!t)
        return;
    // A thread resumed on a different CPU than it last ran on: its
    // live-state claim migrates (its registers travel via the IC, so
    // there is nothing left on the old CPU). Never fires on
    // single-CPU machines.
    if (t->liveCpu >= 0 && unsigned(t->liveCpu) != self)
        t->liveCpu = static_cast<int>(self);
}

void
SvaVm::parkRemoteThread(uint64_t tid)
{
    SvaThread *t = thread(tid);
    if (!t)
        return;
    unsigned self = _ctx.activeCpu();
    if (t->liveCpu < 0 || unsigned(t->liveCpu) == self)
        return;
    unsigned target = unsigned(t->liveCpu);
    // IPI the owning CPU; its gate saves the live register state into
    // the thread's IC (modelled: the IC already mirrors it) and the
    // thread stops being register-live anywhere.
    _ctx.clock().advance(_ctx.costs().ipiSend);
    if (target < _ctx.vcpuCount())
        _ctx.clockOf(target).advance(_ctx.costs().ipiReceive);
    t->liveCpu = -1;
    if (target < _cpuState.size() &&
        _cpuState[target].currentTid == tid)
        _cpuState[target].currentTid = 0;
    sim::StatSet::add(_hRemoteParks);
}

// --------------------------------------------------------------------
// Keys
// --------------------------------------------------------------------

namespace
{

std::vector<uint8_t>
appSigningPayload(const AppBinary &binary)
{
    std::vector<uint8_t> payload;
    payload.insert(payload.end(), binary.name.begin(), binary.name.end());
    payload.push_back(0);
    payload.insert(payload.end(), binary.codeIdentity.begin(),
                   binary.codeIdentity.end());
    payload.push_back(0);
    payload.insert(payload.end(), binary.keySection.begin(),
                   binary.keySection.end());
    return payload;
}

} // namespace

AppBinary
SvaVm::packageApp(const std::string &name,
                  const std::string &code_identity,
                  const crypto::AesKey &app_key)
{
    if (!_booted)
        sim::fatal("packageApp before boot");
    AppBinary binary;
    binary.name = name;
    binary.codeIdentity = code_identity;
    std::vector<uint8_t> key_bytes(app_key.begin(), app_key.end());
    binary.keySection = crypto::rsaEncrypt(_publicKey, _rng, key_bytes);
    binary.signature = crypto::rsaSign(_privateKey,
                                       appSigningPayload(binary));
    return binary;
}

bool
SvaVm::validateAppBinary(const AppBinary &binary, SvaError *err)
{
    _ctx.clock().advance(_ctx.costs().rsaPubOp);
    if (!crypto::rsaVerify(_publicKey, appSigningPayload(binary),
                           binary.signature)) {
        return failOp(err, "application binary signature invalid: "
                           "refusing to prepare native code (S 4.5)");
    }
    return true;
}

bool
SvaVm::bindProcessToApp(uint64_t pid, const AppBinary &binary,
                        SvaError *err)
{
    if (!validateAppBinary(binary, err))
        return false;
    bool ok = false;
    _ctx.clock().advance(_ctx.costs().rsaPrivOp);
    std::vector<uint8_t> key_bytes =
        crypto::rsaDecrypt(_privateKey, binary.keySection, ok);
    if (!ok || key_bytes.size() != 16)
        return failOp(err, "application key section corrupt");
    crypto::AesKey key{};
    std::memcpy(key.data(), key_bytes.data(), key.size());
    _processKeys[pid] = key;
    _processApp[pid] = binary.name;
    if (!_appCounterIdx.count(binary.name))
        _appCounterIdx[binary.name] = _nextCounterIdx++;
    return true;
}

uint64_t
SvaVm::counterIncrement(uint64_t pid)
{
    auto it = _processApp.find(pid);
    if (it == _processApp.end())
        return 0;
    _ctx.clock().advance(_ctx.costs().getKeyCall);
    return _tpm.monotonicIncrement(_appCounterIdx[it->second]);
}

uint64_t
SvaVm::counterRead(uint64_t pid)
{
    auto it = _processApp.find(pid);
    if (it == _processApp.end())
        return 0;
    _ctx.clock().advance(_ctx.costs().getKeyCall / 2);
    return _tpm.monotonicRead(_appCounterIdx[it->second]);
}

std::optional<crypto::AesKey>
SvaVm::getKey(uint64_t pid)
{
    _ctx.clock().advance(_ctx.costs().getKeyCall);
    auto it = _processKeys.find(pid);
    if (it == _processKeys.end())
        return std::nullopt;
    sim::StatSet::add(_hGetKey);
    return it->second;
}

void
SvaVm::unbindProcess(uint64_t pid)
{
    _processKeys.erase(pid);
    _processApp.erase(pid);
    _permitted.erase(pid);
}

// --------------------------------------------------------------------
// Randomness
// --------------------------------------------------------------------

void
SvaVm::secureRandom(void *out, size_t len)
{
    _ctx.clock().advance(((len + 15) / 16) * _ctx.costs().rngPer16Bytes);
    _rng.generate(out, len);
    sim::StatSet::add(_hRandomBytes, len);
}

// --------------------------------------------------------------------
// Translator
// --------------------------------------------------------------------

cc::TranslateResult
SvaVm::translateKernelModule(const std::string &text)
{
    if (!_booted)
        sim::fatal("translateKernelModule before boot");
    cc::TranslateResult r = _translator->translateText(text,
                                                       _nextCodeBase);
    if (r.ok && !r.fromCache) {
        uint64_t size = r.image->code.size() * cc::mInstBytes;
        _nextCodeBase += (size + hw::pageSize - 1) &
                         ~(hw::pageSize - 1);
        _nextCodeBase += hw::pageSize; // guard page between modules
    }
    return r;
}

bool
SvaVm::verifyImage(const cc::MachineImage &image) const
{
    if (!_booted)
        return false;
    if (!_ctx.config().signedTranslations)
        return true;
    return _translator->verifySignature(image);
}

} // namespace vg::sva
