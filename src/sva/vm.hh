/**
 * @file
 * The Virtual Ghost VM (SVA-OS runtime).
 *
 * This is the paper's primary contribution: a thin hardware abstraction
 * layer that runs at the *same* privilege level as the kernel but is
 * protected from it by compiler instrumentation. It owns:
 *
 *  - the frame-type table backing all MMU checks (S 4.3.2),
 *  - ghost memory management: allocgm/freegm and secure swapping
 *    (S 3.2, S 3.3),
 *  - Interrupt Context save/load/push/reinit and thread state
 *    (S 4.6),
 *  - the key-management chain TPM => VG keypair => application keys
 *    (S 4.4), including application binary signature validation,
 *  - the trusted random number instruction (S 4.7),
 *  - the trusted translator: the only way code enters the kernel
 *    (S 4.2, S 4.5).
 *
 * The kernel talks to hardware exclusively through this API.
 */

#ifndef VG_SVA_VM_HH
#define VG_SVA_VM_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "compiler/translator.hh"
#include "crypto/drbg.hh"
#include "crypto/rsa.hh"
#include "crypto/sealed.hh"
#include "hw/cpu.hh"
#include "hw/disk.hh"
#include "hw/iommu.hh"
#include "hw/mmu.hh"
#include "hw/phys_mem.hh"
#include "hw/tpm.hh"
#include "sva/frame_meta.hh"
#include "sva/icontext.hh"

namespace vg::sva
{

/** A signed application binary (S 4.4/S 4.5): the object format is
 *  extended with an encrypted application-key section, and the whole
 *  binary is signed at install time. */
struct AppBinary
{
    std::string name;
    /** Stand-in for the program text the loader hashes. */
    std::string codeIdentity;
    /** Application AES key, RSA-encrypted to the VG public key. */
    std::vector<uint8_t> keySection;
    /** VG signature over name || identity || keySection. */
    std::vector<uint8_t> signature;
};

/** Outcome and diagnostics of a checked SVA-OS operation. */
struct SvaError
{
    std::string message;
};

/**
 * Per-CPU SVA VM state (S 4.6 keeps one interrupt-context area per
 * processor): which thread's state the CPU currently carries, and a
 * bounded pool of saved-IC buffers inside SVA memory that
 * sva.icontext.save draws from.
 */
struct VmState
{
    /** Thread currently executing on this CPU (0 = idle). */
    uint64_t currentTid = 0;

    /** Saved-IC buffers from this CPU's pool currently in use. */
    uint64_t savedIcInUse = 0;

    /** Pool capacity per CPU (fixed allocation in SVA memory). */
    static constexpr uint64_t savedIcPoolSize = 64;
};

/** The Virtual Ghost virtual machine. */
class SvaVm
{
  public:
    SvaVm(sim::SimContext &ctx, hw::PhysMem &mem, hw::Mmu &mmu,
          hw::Iommu &iommu, hw::Tpm &tpm);

    /**
     * Attach the machine's vCPU set. Afterwards every MMU-facing
     * intrinsic drives the *active* CPU's MMU and cross-CPU TLB
     * shootdowns become real. Without attachment (single-MMU rigs,
     * historical tests) the VM drives the MMU passed at construction
     * and behaves exactly as the single-CPU model always has.
     */
    void attachCpus(hw::CpuSet &cpus);

    /** MMU of the currently executing vCPU (construction MMU when no
     *  CPU set is attached). */
    hw::Mmu &
    curMmu()
    {
        return _cpus ? _cpus->active().mmu() : _mmu;
    }

    /** True if any vCPU's TLB may still hold a translation into
     *  @p frame — the retype-safety oracle. */
    bool anyTlbHoldsFrame(hw::Frame frame);

    /** Per-CPU VM state (valid indices: [0, vCPU count)). */
    const VmState &vmState(unsigned cpu) const { return _cpuState[cpu]; }

    // ----------------------------------------------------------------
    // Install / boot (S 4.4)
    // ----------------------------------------------------------------

    /** First-boot installation: generate the VG RSA key pair and seal
     *  the private key under the TPM storage key. @p rsa_bits is kept
     *  small by default so simulations stay fast. */
    void install(size_t rsa_bits = 512);

    /** Boot: unseal the private key and initialize the translator. */
    void boot();

    const crypto::RsaPublicKey &publicKey() const { return _publicKey; }

    // ----------------------------------------------------------------
    // Frame accounting
    // ----------------------------------------------------------------

    FrameTable &frames() { return _frames; }

    /** The OS supplies/receives frames for ghost allocation through
     *  these callbacks (the OS stays the owner of physical memory). */
    void setFrameProvider(std::function<std::optional<hw::Frame>()> p)
    {
        _frameProvider = std::move(p);
    }
    void setFrameReceiver(std::function<void(hw::Frame)> r)
    {
        _frameReceiver = std::move(r);
    }

    // ----------------------------------------------------------------
    // MMU intrinsics (S 4.3.2) — every one is checked
    // ----------------------------------------------------------------

    /** Declare @p frame as a page-table page of @p level (1..4).
     *  Zeroes it and locks it against direct kernel writes. */
    bool declarePtPage(hw::Frame frame, int level, SvaError *err);

    /** Return a page-table page to ordinary use (must be unlinked). */
    bool undeclarePtPage(hw::Frame frame, SvaError *err);

    /** Link page-table page @p child under @p parent at the slot
     *  covering @p va. Parent must be level @p parent_level. */
    bool installTable(hw::Frame parent, int parent_level, hw::Vaddr va,
                      hw::Frame child, SvaError *err);

    /** Unlink and retire the (empty) child table under @p parent at
     *  the slot covering @p va; the child frame returns to Free and
     *  can be reclaimed by the OS. */
    bool uninstallTable(hw::Frame parent, int parent_level,
                        hw::Vaddr va, SvaError *err);

    /** Install a leaf mapping va -> target in the tree rooted at
     *  @p root. Rejected for ghost VAs, ghost/SVA/PT/code target
     *  frames (code may map read-only+exec via @p exec_only). */
    bool mapPage(hw::Frame root, hw::Vaddr va, hw::Frame target,
                 bool writable, bool user, bool no_exec, SvaError *err);

    /** Remove a leaf mapping. Rejected for ghost VAs. */
    bool unmapPage(hw::Frame root, hw::Vaddr va, SvaError *err);

    /** Change protections on an existing leaf. Code pages can never
     *  become writable. */
    bool protectPage(hw::Frame root, hw::Vaddr va, bool writable,
                     bool no_exec, SvaError *err);

    /** Load a new address-space root ("mov cr3"), checked. */
    bool loadRoot(hw::Frame root, SvaError *err);

    // ----------------------------------------------------------------
    // Ghost memory (S 3.2, Table 1; S 3.3 swapping)
    // ----------------------------------------------------------------

    /** allocgm(): map @p npages zeroed ghost frames at @p va for the
     *  process owning @p root. All or nothing: on failure the pages
     *  this call already mapped go back to the OS. */
    bool allocGhostMemory(uint64_t pid, hw::Frame root, hw::Vaddr va,
                          uint64_t npages, SvaError *err);

    /** freegm(): unmap, zero, and return the frames to the OS. The
     *  whole range is validated first: if any page is not @p pid's
     *  resident ghost page (unmapped, swapped out, foreign), nothing
     *  is freed. */
    bool freeGhostMemory(uint64_t pid, hw::Frame root, hw::Vaddr va,
                         uint64_t npages, SvaError *err);

    /** Capacity of a swap-out frame: its wire bytes rounded up to
     *  whole disk blocks, the size of the swap slot that holds it, so
     *  the slot's zero tail is added in place. */
    static constexpr uint64_t swapFrameCapacity =
        (crypto::sealedHeaderBytes + hw::pageSize + hw::Disk::blockSize - 1) /
        hw::Disk::blockSize * hw::Disk::blockSize;

    /**
     * The swap-out intrinsic: validate every page in @p vas, read each
     * one straight into the text of its own sealed wire frame, seal
     * the batch there in one N-frame crypto::sealInPlace (one key
     * setup, MACs several lanes at a time), then unmap/scrub/return
     * the frames. Frames are
     * returned in input order and are bit-identical to swapping each
     * page out on its own; the fixed seal setup cost is charged once
     * per batch. A single page is a batch of one.
     * Returns an empty vector (with @p err set) if any page fails
     * validation or a va repeats — no page is evicted and no
     * generation is consumed in that case.
     */
    std::vector<std::vector<uint8_t>>
    swapOutGhostBatch(uint64_t pid, hw::Frame root,
                      const std::vector<hw::Vaddr> &vas, SvaError *err);

    /** Verify and restore a swapped ghost page from its sealed wire
     *  frame, opened in place. A frame shorter than the nonce and MAC
     *  is refused before any cost is charged. */
    bool swapInGhostPage(uint64_t pid, hw::Frame root, hw::Vaddr va,
                         std::vector<uint8_t> wire, SvaError *err);

    /**
     * Second-chance reference bit (sva.ghost.refclear): atomically
     * test and clear the hardware-set accessed bit on @p pid's ghost
     * page at @p va. Returns true if the page was referenced since the
     * last clear (the eviction clock gives it a second chance).
     * Clearing invalidates the translation everywhere so the next
     * touch re-walks and re-sets the bit.
     */
    bool ghostPageTestClearRef(uint64_t pid, hw::Frame root,
                               hw::Vaddr va);

    /** Read-only probe of the reference bit (observability; no charge,
     *  no state change). */
    bool ghostPageReferenced(uint64_t pid, hw::Frame root,
                             hw::Vaddr va) const;

    /** Swap generation bound into the AAD of @p pid's page at @p va
     *  while it is swapped out; 0 when the slot holds no swapped page.
     *  Monotonic across the machine, so a stale blob from an earlier
     *  swap-out of the same page carries a dead generation and fails
     *  MAC verification. */
    uint64_t swapGeneration(uint64_t pid, hw::Vaddr va) const;

    /** How many times the swap key has been (re)derived — advances
     *  when the key chain rotates via install()/boot(). */
    uint64_t sealKeyGeneration() const { return _sealKeyGen; }

    /** Release every ghost frame owned by @p pid (process exit /
     *  execve reinit). The frames are zeroed and returned to the OS. */
    void releaseGhostMemory(uint64_t pid, hw::Frame root);

    /** Ghost pages currently owned by @p pid. */
    uint64_t ghostPageCount(uint64_t pid) const;

    /** Virtual addresses of @p pid's resident ghost pages (the OS
     *  sees only addresses, never contents — it needs them to pick
     *  swap victims). */
    std::vector<hw::Vaddr> ghostPagesOf(uint64_t pid) const;

    // ----------------------------------------------------------------
    // Interrupt Context and thread state (S 4.6)
    // ----------------------------------------------------------------

    /** sva.newstate(): create a thread whose kernel continuation is
     *  @p kernel_entry; the new IC is cloned from @p clone_from if
     *  nonzero. Kernel entry points must be pre-registered. */
    SvaThread *newThread(uint64_t pid, uint64_t kernel_entry,
                         uint64_t clone_from_tid, SvaError *err);

    /** Register a permissible kernel-continuation entry point. */
    void registerKernelEntry(uint64_t entry);

    SvaThread *thread(uint64_t tid);

    /** Destroy a thread's SVA state. */
    void destroyThread(uint64_t tid);

    /** sva.icontext.save(): push a copy of the live IC. */
    bool icontextSave(uint64_t tid, SvaError *err);

    /** sva.icontext.load(): pop the saved IC back (sigreturn). */
    bool icontextLoad(uint64_t tid, SvaError *err);

    /** sva.permitFunction(): application registers a valid handler. */
    void permitFunction(uint64_t pid, uint64_t handler);

    /** sva.ipush.function(): make the interrupted thread run
     *  @p handler on resume — only if registered (S 4.6.1). */
    bool ipushFunction(uint64_t tid, uint64_t handler, uint64_t arg,
                       SvaError *err);

    /** sva.reinit.icontext(): execve path — reset IC to a fresh image
     *  and drop the old image's ghost memory (S 4.6.2). */
    bool reinitIcontext(uint64_t tid, uint64_t pc, uint64_t sp,
                        hw::Frame root, SvaError *err);

    /** Syscall/trap gate: save IC into SVA memory and zero registers
     *  (cost-accounted; S 4.6). */
    void syscallEnter(uint64_t tid);
    void syscallExit(uint64_t tid);

    /** Scheduler notification: thread @p tid was dispatched on the
     *  active vCPU. Updates per-CPU current-thread tracking and
     *  migrates the thread's live-CPU claim if it was resumed on a
     *  different processor than it last ran on. */
    void noteDispatch(uint64_t tid);

    /**
     * Park a thread that is live on a *remote* CPU so its IC can be
     * manipulated from this one (signal delivery to a running
     * thread). Models the IPI: charges the initiator and the target
     * CPU, and moves the thread's state fully into its saved IC.
     * No-op if the thread is not live elsewhere.
     */
    void parkRemoteThread(uint64_t tid);

    // ----------------------------------------------------------------
    // Keys (S 4.4)
    // ----------------------------------------------------------------

    /** Trusted install tool: package an application with its key. */
    AppBinary packageApp(const std::string &name,
                         const std::string &code_identity,
                         const crypto::AesKey &app_key);

    /** Loader-side validation; false => refuse to start the app. */
    bool validateAppBinary(const AppBinary &binary, SvaError *err);

    /** Associate a validated binary with a process (exec time). */
    bool bindProcessToApp(uint64_t pid, const AppBinary &binary,
                          SvaError *err);

    /** sva.getKey(): the application retrieves its key. */
    std::optional<crypto::AesKey> getKey(uint64_t pid);

    /** Drop a process's key binding (exit). */
    void unbindProcess(uint64_t pid);

    /**
     * Rollback protection (paper S 10 future work): each application
     * (by binary name) owns a TPM monotonic counter the OS cannot
     * rewind. Applications bind fresh file versions to the counter
     * so replayed old ciphertexts fail verification.
     */
    uint64_t counterIncrement(uint64_t pid);

    /** Current counter value for @p pid's application (0 if none). */
    uint64_t counterRead(uint64_t pid);

    // ----------------------------------------------------------------
    // Trusted randomness (S 4.7)
    // ----------------------------------------------------------------

    void secureRandom(void *out, size_t len);

    // ----------------------------------------------------------------
    // Translator (S 4.2 / S 4.5)
    // ----------------------------------------------------------------

    /** Translate a kernel module shipped as VIR text; assigns a code
     *  base in the module code region. */
    cc::TranslateResult translateKernelModule(const std::string &text);

    /** Refuse-unsigned check used before any execution. */
    bool verifyImage(const cc::MachineImage &image) const;

    /** The trusted translator. Exposed so tests can install
     *  fault-injection hooks (Translator::setPostLayoutHook) and prove
     *  the mcode verifier gates module loading. */
    cc::Translator &translator() { return *_translator; }

    /** Count of rejected checked operations (attack telemetry). */
    uint64_t violationCount() const { return _violations; }

  private:
    bool failOp(SvaError *err, const std::string &message);
    bool walkToLeafSlot(hw::Frame root, hw::Vaddr va, hw::Paddr &slot,
                        SvaError *err);
    bool mapGhostPage(hw::Frame root, hw::Vaddr va, hw::Frame frame,
                      SvaError *err);
    crypto::AesKey swapKey() const;

    /** Resolve @p va to its leaf slot + frame and check it really is
     *  @p pid's resident ghost page. */
    bool validateGhostPage(uint64_t pid, hw::Frame root, hw::Vaddr va,
                           const char *op, hw::Paddr &slot,
                           hw::Frame &frame, SvaError *err);

    /** The one way a ghost frame enters a process (allocgm and
     *  swap-in): take a frame from the OS, check it is free and
     *  unreachable, fill it with the page at @p contents (zeroes when
     *  null), type it Ghost, lock it against DMA, map it at @p va and
     *  record it. A frame that passes the checks but cannot be mapped
     *  goes back to the OS. */
    bool attachGhostFrame(uint64_t pid, hw::Frame root, hw::Vaddr va,
                          const uint8_t *contents, const char *op,
                          SvaError *err);

    /** The one way a ghost frame leaves a process (freegm, swap-out,
     *  allocgm roll-back): unmap, shootdown, scrub, and hand @p frame
     *  back to the OS. */
    bool detachGhostFrame(uint64_t pid, hw::Vaddr va, hw::Paddr slot,
                          hw::Frame frame, const char *op,
                          SvaError *err);

    /** Scrub a VM-held frame (ghost page or ghost page table), retype
     *  it Free, unlock it for DMA and give it to the frame receiver. */
    void returnFrame(hw::Frame frame);

    /**
     * TLB shootdown (sva.invlpg.remote): invalidate @p va on the
     * active CPU and on every remote CPU whose TLB holds the page.
     * Remote invalidations charge an IPI send on the initiator's
     * clock and an IPI receive on each target's clock. Degenerates to
     * a local invlpg on single-CPU machines.
     */
    void invalidateEverywhere(hw::Vaddr va);

    /** Full-TLB analogue of invalidateEverywhere() (used when a whole
     *  address-space region is being retired). Remote CPUs with an
     *  empty TLB need no IPI. */
    void flushEverywhere();

    /** Refuse a frame release/retype while some vCPU's TLB may still
     *  reach the frame (returns false and records a violation via
     *  failOp). Correct intrinsic sequences always invalidate first,
     *  so this is a backstop against stale-TLB retype attacks. */
    bool frameRetypeSafe(hw::Frame frame, const char *op,
                         SvaError *err);

    /** Return every pool slot held by @p t's saved-IC stack. */
    void releaseIcPoolSlots(SvaThread &t);

    sim::SimContext &_ctx;
    /** Cached swap key; derived once per private key (see swapKey()). */
    mutable crypto::AesKey _swapKey{};
    mutable bool _swapKeyValid = false;
    hw::PhysMem &_mem;
    hw::Mmu &_mmu;
    hw::Iommu &_iommu;
    hw::Tpm &_tpm;

    /** Machine vCPU set; null on single-MMU rigs (see attachCpus). */
    hw::CpuSet *_cpus = nullptr;
    /** Per-CPU VM state, sized at attach (one entry unattached). */
    std::vector<VmState> _cpuState{VmState{}};

    FrameTable _frames;
    crypto::CtrDrbg _rng;

    crypto::RsaPublicKey _publicKey;
    crypto::RsaPrivateKey _privateKey;
    std::vector<uint8_t> _sealedPrivateKey; ///< TPM-sealed wire bytes
    bool _installed = false;
    bool _booted = false;

    std::vector<uint8_t> _translationKey;
    std::unique_ptr<cc::Translator> _translator;
    uint64_t _nextCodeBase;

    std::function<std::optional<hw::Frame>()> _frameProvider;
    std::function<void(hw::Frame)> _frameReceiver;

    std::map<uint64_t, SvaThread> _threads;
    uint64_t _nextTid = 1;
    std::set<uint64_t> _kernelEntries;
    std::map<uint64_t, std::set<uint64_t>> _permitted; // pid -> fns
    std::map<uint64_t, crypto::AesKey> _processKeys;   // pid -> key
    std::map<uint64_t, std::string> _processApp;       // pid -> name
    std::map<std::string, uint32_t> _appCounterIdx;    // name -> TPM idx
    uint32_t _nextCounterIdx = 1;
    std::map<uint64_t, std::vector<std::pair<hw::Frame, hw::Vaddr>>>
        _ghostPages; // pid -> (frame, va)

    /** Swap generation per swapped-out (pid, va); entries exist only
     *  while the page is out. Trusted state: the OS cannot rewind it,
     *  so replaying an older blob of the same slot fails MAC. */
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> _swapGens;
    uint64_t _nextSwapGen = 1;

    /** Count of swap-key derivations (key-chain rotation telemetry). */
    mutable uint64_t _sealKeyGen = 0;

    uint64_t _violations = 0;

    sim::StatHandle _hViolations;
    sim::StatHandle _hRemoteInvlpgs;
    sim::StatHandle _hRemoteParks;
    /** Per-CPU shootdowns *received*; empty on single-CPU machines. */
    std::vector<sim::StatHandle> _hCpuShootdowns;
    sim::StatHandle _hIcSaves;
    sim::StatHandle _hIcLoads;
    sim::StatHandle _hIpush;
    sim::StatHandle _hGetKey;
    sim::StatHandle _hRandomBytes;
    sim::StatHandle _hGhostAllocated;
    sim::StatHandle _hGhostFreed;
    sim::StatHandle _hGhostSwappedOut;
    sim::StatHandle _hGhostSwappedIn;
    sim::StatHandle _hGhostSwapBatches;
};

} // namespace vg::sva

#endif // VG_SVA_VM_HH
