/**
 * @file
 * The mini-FreeBSD kernel.
 *
 * A monolithic kernel ported to the SVA-OS API: every MMU update,
 * Interrupt Context manipulation and module load goes through the
 * Virtual Ghost VM, and all of its memory traffic is cost-accounted
 * through Kmem with sandbox-masking semantics.
 *
 * Execution model: each simulated process runs on its own stackful
 * fiber (kernel/fiber.hh). The scheduler loop in run() switches into
 * one fiber at a time and gets the baton back when that process
 * blocks, yields, is preempted or exits, so simulated time stays
 * coherent without any host locking.
 */

#ifndef VG_KERNEL_KERNEL_HH
#define VG_KERNEL_KERNEL_HH

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "hw/cpu.hh"
#include "hw/nic.hh"
#include "hw/timer.hh"
#include "kernel/bcache.hh"
#include "kernel/fs.hh"
#include "kernel/kalloc.hh"
#include "kernel/kmem.hh"
#include "kernel/proc.hh"
#include "kernel/swap.hh"
#include "sva/vm.hh"

namespace vg::kern
{

/** Syscall numbers (subset of FreeBSD's table). */
enum class Sys : int
{
    getpid = 20,
    open = 5,
    close = 6,
    read = 3,
    write = 4,
    lseek = 19,
    unlink = 10,
    mkdir = 136,
    stat = 188,
    fsync = 95,
    mmap = 477,
    munmap = 73,
    fork = 2,
    execve = 59,
    exit = 1,
    wait4 = 7,
    kill = 37,
    sigaction = 416,
    sigreturn = 417,
    select = 93,
    socket = 97,
    bind = 104,
    listen = 106,
    accept = 30,
    connect = 98,
    getrandom = 563,
    sendfile = 393,
};

/**
 * Established-connection registry. Every connected socket pair gets a
 * connection id at handshake time; the id indexes an O(1) hash table
 * (accept adopts by id, close erases by id) and ids are recycled
 * through a LIFO free-list so the id space — and the table — stay
 * dense under thousands of churn-heavy connections. No per-accept or
 * per-close scan of the connection population ever happens.
 */
struct ConnTable
{
    /** id -> server-side endpoint of the established connection. */
    std::unordered_map<uint64_t, std::weak_ptr<Socket>> conns;

    /** Recycled ids, reused LIFO before nextId grows. */
    std::vector<uint64_t> freeIds;

    uint64_t nextId = 1;

    /** High-water mark of concurrently established connections. */
    uint64_t peak = 0;

    uint64_t size() const { return conns.size(); }
};

/** Loaded kernel module state. */
struct KernelModule
{
    std::string name;
    std::shared_ptr<const cc::MachineImage> image;
    std::unique_ptr<cc::Executor> executor;
};

class Kernel;

/** Thrown by UserApi::exit() and the kill path to unwind a process's
 *  fiber stack to its exit path. */
struct ProcessExit
{
    int code;
};

/**
 * The system-call and runtime interface handed to application code.
 * Application functions receive a UserApi bound to their process; all
 * kernel interaction flows through it. Every system call runs inside
 * syscall(), the single SVA gate; the user-memory, ghost-memory, key,
 * randomness and compute helpers are application-side work and do not
 * cross it.
 */
class UserApi
{
  public:
    UserApi(Kernel &kernel, Process &proc)
        : _kernel(kernel), _proc(proc)
    {}

    uint64_t pid() const { return _proc.pid; }

    /** The null syscall (gate + trivial body). */
    int getpid();

    // --- files --------------------------------------------------------
    int open(const std::string &path, bool create = false);
    int close(int fd);
    /** read()/write() move data between the file and *user memory*. */
    int64_t read(int fd, hw::Vaddr buf, uint64_t len);
    int64_t write(int fd, hw::Vaddr buf, uint64_t len);
    int64_t lseek(int fd, int64_t off, int whence);
    int unlink(const std::string &path);
    int mkdir(const std::string &path);
    int stat(const std::string &path, FileStat &out);
    int fsync(int fd);

    // --- memory -------------------------------------------------------
    /** Anonymous demand-zero mapping; returns the va (0 on failure). */
    hw::Vaddr mmap(uint64_t len);

    /** File-backed mapping of @p len bytes of @p fd from offset 0;
     *  pages fault in from the filesystem on first touch. */
    hw::Vaddr mmapFile(int fd, uint64_t len);

    int munmap(hw::Vaddr va, uint64_t len);

    /** User-privilege access to user memory (page faults handled). */
    bool peek(hw::Vaddr va, unsigned bytes, uint64_t &out);
    bool poke(hw::Vaddr va, unsigned bytes, uint64_t val);
    bool copyToUser(hw::Vaddr va, const void *src, uint64_t len);
    bool copyFromUser(hw::Vaddr va, void *dst, uint64_t len);

    // --- ghost memory (Table 1) ----------------------------------------
    /** allocgm() wrapper: map npages of ghost memory; returns va. */
    hw::Vaddr allocGhost(uint64_t npages);
    bool freeGhost(hw::Vaddr va, uint64_t npages);
    bool ghostWrite(hw::Vaddr va, const void *src, uint64_t len);
    bool ghostRead(hw::Vaddr va, void *dst, uint64_t len);

    /** sva.getKey(): the application key, delivered by the VM. */
    std::optional<crypto::AesKey> getKey();

    /** Trusted randomness (sva instruction, S 4.7). */
    void secureRandom(void *out, size_t len);

    /** The OS's /dev/random — under a hostile kernel this may be
     *  rigged; under VG config it is routed to the VM generator. */
    void osRandom(void *out, size_t len);

    // --- processes ------------------------------------------------------
    /** fork(): copies the address space; the child runs child_main. */
    uint64_t fork(std::function<int(UserApi &)> child_main);

    /** execve(): replace the program image. A ghosting application
     *  passes its signed binary, which the VM validates before the
     *  new image may run (S 4.5); pass nullptr for an ordinary app. */
    int execve(const sva::AppBinary *binary,
               std::function<int(UserApi &)> new_main);

    [[noreturn]] void exit(int code);
    int waitpid(uint64_t pid, int &status);
    int kill(uint64_t pid, int signum);

    /** signal()/sigaction(): register a handler. A ghosting app sets
     *  @p permit_with_sva, which registers the handler token with
     *  sva.permitFunction first (S 4.6.1); a non-ghosting app leaves
     *  it unregistered. */
    uint64_t installSignalHandler(int signum,
                                  std::function<void(int)> handler,
                                  bool permit_with_sva);

    // --- sockets ---------------------------------------------------------
    int socket();
    int bind(int fd, uint16_t port);
    int listen(int fd);
    int accept(int fd);
    int connect(uint16_t port);
    /** Host-buffer variants (zero user-page staging) for servers that
     *  keep data in traditional memory. */
    int64_t sendHost(int fd, const void *buf, uint64_t len);
    int64_t recvHost(int fd, void *buf, uint64_t len);

    /** Host-buffer file read (zero user-page staging), the file-side
     *  twin of recvHost. */
    int64_t readHost(int fd, void *buf, uint64_t len);

    /** sendfile(): stream @p len bytes of @p in_fd (from its current
     *  offset) straight from the buffer cache onto @p out_fd's
     *  socket. With the sandbox/IOMMU proof in force the bcache block
     *  is handed to the NIC ring without the intermediate kmem copy;
     *  otherwise the copy is charged. */
    int64_t sendfile(int out_fd, int in_fd, uint64_t len);

    int select(const std::vector<int> &read_fds, uint64_t timeout_us);

    // --- misc -------------------------------------------------------------
    /** Burn user-mode compute (advances simulated time, may preempt). */
    void compute(uint64_t insts);

    /** Yield the CPU voluntarily. */
    void yield();

    Kernel &kernel() { return _kernel; }
    Process &proc() { return _proc; }

  private:
    /** The syscall gate: sysEnter(), @p body, sysExit(); returns what
     *  @p body returns. Every gated entry point goes through here. */
    template <class F>
    auto syscall(F &&body);

    /** Syscall prologue: gate cost + dispatcher work. */
    void sysEnter();

    /** Syscall epilogue: gate exit, pending signal delivery,
     *  preemption, kill handling. */
    void sysExit();

    Kernel &_kernel;
    Process &_proc;
};

/** The kernel proper. */
class Kernel
{
    friend class UserApi;

  public:
    /** Interrupt-coalescing holdoff in simulated microseconds: after a
     *  device IRQ is taken on a vCPU, further completions that come
     *  due within this window are reaped by the still-running bottom
     *  half (softirq charge only) instead of raising a fresh
     *  interrupt. */
    static constexpr unsigned irqHoldoffUs = 16;

    /** Maximum pages per ghost-swap eviction batch. Evictions are
     *  sealed with one scatter-gather AES-CTR + pipelined-HMAC batch
     *  (key schedule and MAC-state setup amortised across the batch)
     *  and written back through the disk's ring with one doorbell. */
    static constexpr unsigned evictBatchPages = 32;

    Kernel(sim::SimContext &ctx, hw::PhysMem &mem, hw::CpuSet &cpus,
           hw::Iommu &iommu, hw::Tpm &tpm, hw::Disk &disk,
           hw::Nic &nic_a, hw::Nic &nic_b, sva::SvaVm &vm);

    /** Boot: wire SVA callbacks, mkfs, init console. */
    void boot();

    /** Create a Runnable process; returns its pid. */
    uint64_t spawn(const std::string &name,
                   std::function<int(UserApi &)> main_fn);

    /** Run the scheduler until no process is Runnable or Blocked:
     *  service softirqs, then dispatch pickNext()'s choice or, when
     *  nothing is runnable, idleAdvance() the clocks. */
    void run();

    /** Load an (untrusted) kernel module shipped as VIR text.
     *  Returns false (with @p err) if translation or the signature
     *  check refuses it. */
    bool loadModule(const std::string &name, const std::string &text,
                    std::string *err);

    /** Let a module replace a syscall handler (the rootkit uses this
     *  for read(); S 7). The handler VIR function receives the same
     *  arguments as the native handler. */
    bool interposeSyscall(Sys sys, const std::string &module_name,
                          const std::string &function_name);

    /** Invoke a function in a loaded module from kernel context (how
     *  a module's load-time init / ioctl entry points run). */
    cc::ExecResult callModuleFunction(const std::string &module_name,
                                      const std::string &function_name,
                                      const std::vector<uint64_t> &args);

    Fs &fs() { return *_fs; }
    sva::SvaVm &vm() { return _vm; }
    Kmem &kmem() { return *_kmem; }
    sim::SimContext &ctx() { return _ctx; }
    hw::Console &console() { return _console; }
    /** The process with @p pid, or null once waitpid has reaped it
     *  (or if it never existed). */
    Process *process(uint64_t pid);

    /** Exit codes of every process that has exited, reaped or not
     *  (pid -> code). */
    const std::map<uint64_t, int> &exitCodes() const
    {
        return _exitCodes;
    }

    /** Rig the OS /dev/random (hostile-kernel Iago experiments). */
    void setRngRigged(bool rigged) { _rngRigged = rigged; }

    /** Flush and empty the buffer cache (cold-cache experiments). */
    void dropCaches() { _bcache->dropAll(); }

    /**
     * Memory-pressure path (S 3.3): swap up to @p max_pages of
     * @p pid's ghost memory out. The VM encrypts+MACs each page; the
     * OS stores only ciphertext in the disk's swap area and gets the
     * frames back. Pages are sealed in batches and written back
     * through the disk's request queue with one doorbell per batch.
     * Returns pages swapped.
     */
    uint64_t swapOutGhost(uint64_t pid, uint64_t max_pages);

    /** Swap a ghost page back in on demand (ghost fault path).
     *  Returns false if it was never swapped or fails verification. */
    bool swapInGhost(uint64_t pid, hw::Vaddr page_va);

    /** Number of ghost pages currently swapped out for @p pid. */
    uint64_t swappedGhostPages(uint64_t pid) const;

    /**
     * Frame-pressure relief: pick up to @p want_pages second-chance
     * clock victims across every process and swap them out in
     * batches. Returns pages actually reclaimed.
     */
    uint64_t reclaimGhostFrames(uint64_t want_pages);

    /** Reclaim until at least @p need frames (plus a fixed headroom)
     *  are free; no-op when the allocator already has them. */
    void ensureGhostHeadroom(uint64_t need);

    /** Hostile-OS view of a swapped page: read its sealed wire bytes
     *  back from the swap area (the OS sees bytes, never plaintext). */
    std::optional<std::vector<uint8_t>> readSwappedBlob(uint64_t pid,
                                                        hw::Vaddr page_va);

    /** First disk block of (pid, va)'s swap slot — the surface a
     *  hostile OS tampers with via Disk::rawBlock. */
    std::optional<uint64_t> swapSlotBlock(uint64_t pid,
                                          hw::Vaddr page_va) const;

    /** The swap area (null before boot). */
    SwapArea *swapArea() { return _swap.get(); }

    /** The second-chance eviction clock over resident ghost pages. */
    const GhostClock &ghostClock() const { return _ghostClock; }

    /** Free frames remaining in the kernel allocator. */
    uint64_t freeFrames() const { return _frames->freeCount(); }

    /** Resolve a user access through @p proc's tables, demand-zero
     *  faulting as needed (the user-mode memory path). */
    bool handleUserAccess(Process &proc, hw::Vaddr va,
                          hw::Access access, hw::Paddr &pa);

    // --- connection table ----------------------------------------------
    /** Register an established connection: assign @p server_sock a
     *  connection id (recycled from the free-list when possible) and
     *  insert it into the hash table. Returns the id. */
    uint64_t connRegister(const std::shared_ptr<Socket> &server_sock);

    /** Drop @p sock's registration (no-op if it was never registered
     *  or its peer already tore the connection down). */
    void connUnregister(Socket &sock);

    /** O(1) lookup of a registered connection by id. */
    std::shared_ptr<Socket> connLookup(uint64_t conn_id);

    /** Exit-path reap: unregister every still-registered socket in
     *  @p proc's fd table (close() normally does this; exit without
     *  close must not leak registry slots). */
    void connReapProcess(Process &proc);

    /** The live registry (vg_lint --dump-fleet, fleet LB telemetry). */
    const ConnTable &connTable() const { return _connTable; }

    /** Enqueue a bottom-half wakeup of @p channel on @p cpu's
     *  completion queue; the scheduler delivers it at the top of its
     *  next iteration. */
    void postSoftirq(unsigned cpu, const void *channel);

    /** Cycle of the last device interrupt taken on @p cpu (the
     *  coalescing holdoff anchor; 0 if none yet). */
    uint64_t lastIrqAt(unsigned cpu) const
    {
        return _lastIrqAt[cpu % _lastIrqAt.size()];
    }

    /** Processes whose fiber stack is still mapped. A stack is released
     *  as soon as its process has run its exit path. */
    uint64_t liveFiberStacks() const;

  private:
    // --- scheduling ---------------------------------------------------
    /** Create a Runnable process for spawn or fork: pid, home CPU,
     *  SVA thread, address space (a copy-on-write copy of @p parent's
     *  when forking), then the fiber it runs on. */
    Process &newProcess(const std::string &name,
                        std::function<int(UserApi &)> main_fn,
                        Process *parent);
    /** A process's whole life on its fiber: main, then the exit path. */
    void processMain(Process &proc);
    /** Dispatch @p proc and run it until it hands the baton back;
     *  unmaps its stack once it has exited. */
    void switchTo(Process &proc);
    /** On @p proc's fiber: hand the baton to the scheduler; returns
     *  when @p proc is dispatched again. */
    void backToScheduler(Process &proc);
    /** Sleep on @p channel until a wakeup, or until simulated time
     *  @p wake_time when it is nonzero. */
    void blockCurrent(Process &proc, const void *channel,
                      uint64_t wake_time = 0);
    /** Make every process blocked on @p channel runnable, stamped with
     *  the waker's clock; returns how many woke. */
    unsigned wakeup(const void *channel);
    /** The one wake primitive: clear @p proc's waits and make it
     *  Runnable no earlier than @p stamp. */
    void makeRunnable(Process &proc, uint64_t stamp);
    /** Drain @p cpu's completion queue (bottom half: IRQ trap at most
     *  once per coalescing window, softirq dispatch per batch,
     *  wakeups). */
    void serviceSoftirqs(unsigned cpu);
    /** Add Runnable @p proc to its home CPU's run queue, in pid
     *  order. */
    void enqueue(Process &proc);
    /** Take @p proc off its home CPU's run queue; panics when it is
     *  not there. */
    void dequeue(Process &proc);
    /** The scheduler's pick: let idle CPUs pull work off the per-CPU
     *  run queues, then take the next vCPU with work round-robin and
     *  its next process. Null if none is runnable. */
    Process *pickNext();
    /** Nothing runnable: advance every clock to the earliest timed
     *  wake and release the sleepers due on their home CPU. Returns
     *  false when no process is Blocked, i.e. the run is over. */
    bool idleAdvance();
    void yieldCurrent(Process &proc);
    /** Take the timer preemption if the active vCPU's quantum ran out. */
    void preemptIfDue(Process &proc);
    void deliverPushedCalls(Process &proc);
    void executeUserContextCode(Process &proc, uint64_t code_addr,
                                uint64_t arg);
    void setupModuleExterns();

    // --- VM helpers -----------------------------------------------------
    bool ensureTables(Process &proc, hw::Vaddr va);
    bool materializePage(Process &proc, hw::Vaddr va);
    bool copyOnWrite(Process &proc, hw::Vaddr page);
    void buildAddressSpace(Process &proc);
    void teardownAddressSpace(Process &proc);
    void copyAddressSpace(Process &parent, Process &child);
    /** Unmap @p proc's materialized user pages in [lo, hi) and free
     *  the frames no other mapping holds. */
    void releaseUserPages(Process &proc, hw::Vaddr lo = 0,
                          hw::Vaddr hi = ~hw::Vaddr(0));

    /** Copy @p len bytes between @p buf and @p proc's user memory at
     *  @p va with user privilege (Access::Read fills @p buf,
     *  Access::Write stores it). Every page is translated and
     *  demand-faulted on its own, so the copy fails at the first page
     *  that cannot be mapped. */
    bool userCopy(Process &proc, hw::Vaddr va, void *buf, uint64_t len,
                  hw::Access access);

    /** The same over @p proc's ghost memory: a page that does not
     *  translate traps and is swapped back in, once, before the copy
     *  gives up. */
    bool ghostCopy(Process &proc, hw::Vaddr va, void *buf, uint64_t len,
                   hw::Access access);

    // --- syscall internals ---------------------------------------------
    int64_t doRead(Process &proc, int fd, hw::Vaddr buf, uint64_t len);
    int64_t doWrite(Process &proc, int fd, hw::Vaddr buf, uint64_t len);
    std::shared_ptr<OpenFile> file(Process &proc, int fd);
    /** The socket behind @p fd, or null if @p fd is not a socket. */
    std::shared_ptr<Socket> socketOf(Process &proc, int fd);
    int64_t socketSend(Process &proc, Socket &sock, const uint8_t *data,
                       uint64_t len);
    /** Ring-based transmit behind socketSend (and so doSendfile):
     *  posts one length-only descriptor per segment, rings the
     *  doorbell once per batch, queues peer segments carrying the
     *  payload with completion-time readyAt stamps and arms the RX
     *  softirq. Returns bytes actually segmented (stops at
     *  window-full). */
    uint64_t ringTransmit(const std::shared_ptr<Socket> &peer,
                          const uint8_t *data, uint64_t len);
    int64_t socketRecv(Process &proc, Socket &sock, uint8_t *data,
                       uint64_t len);
    int64_t doSendfile(Process &proc, int out_fd, int in_fd,
                       uint64_t len);
    void postSignal(Process &target, int signum);

    /** Run @p sys's module interposition on @p args if one is
     *  installed and return its result; nullopt means no hook, so the
     *  native handler runs. */
    std::optional<int64_t>
    moduleDispatch(Sys sys, std::initializer_list<uint64_t> args);

    /** Seal + evict @p pages of @p pid in batches of up to
     *  evictBatchPages and store them in the swap area.
     *  Victim set and order are caller-decided. */
    uint64_t swapOutPages(uint64_t pid, Process &proc,
                          std::vector<hw::Vaddr> pages);

    /** Residency-tracking hooks for the eviction clock. */
    void noteGhostAlloc(uint64_t pid, hw::Vaddr va, uint64_t npages);
    void noteGhostFree(uint64_t pid, hw::Vaddr va, uint64_t npages);
    /** The process's ghost memory dies (exit, execve): drop its clock
     *  entries and swap slots. */
    void dropGhostTracking(uint64_t pid);

    /** MMU of the vCPU the current process is executing on. */
    hw::Mmu &curMmu() { return _cpus.active().mmu(); }

    /** Preemption timer of the active vCPU. */
    hw::Timer &curTimer() { return _cpus.active().timer(); }

    sim::SimContext &_ctx;
    hw::PhysMem &_mem;
    hw::CpuSet &_cpus;
    hw::Iommu &_iommu;
    hw::Tpm &_tpm;
    hw::Disk &_disk;
    hw::Nic &_nicA;
    hw::Nic &_nicB;
    sva::SvaVm &_vm;
    hw::Console _console;

    std::unique_ptr<FrameAllocator> _frames;
    std::unique_ptr<Kmem> _kmem;
    std::unique_ptr<BufferCache> _bcache;
    std::unique_ptr<Fs> _fs;

    std::map<uint64_t, std::unique_ptr<Process>> _procs;
    std::map<uint64_t, int> _exitCodes;
    uint64_t _nextPid = 1;
    /** Round-robin home-CPU assignment for new processes. */
    unsigned _nextCpuAssign = 0;
    /** Per-CPU run queues: the Runnable processes homed on each vCPU,
     *  the running one included, in pid order. Kept at every state
     *  change (newProcess, makeRunnable from Blocked, blockCurrent,
     *  exit) and by idle balancing, never rebuilt. */
    std::vector<std::vector<Process *>> _runQueues;
    /** pickNext's rotation: the vCPU to try first, and each vCPU's
     *  dispatch count into its run queue. Reset by run(). */
    unsigned _cpuCursor = 0;
    std::vector<uint64_t> _queueCursors;

    std::map<uint16_t, std::shared_ptr<Socket>> _listeners;

    /** Established-connection registry (O(1) accept/close). */
    ConnTable _connTable;

    /** Per-CPU softirq completion queues (channels to wake, in post
     *  order) and the cycle each CPU last took a device interrupt
     *  (coalescing anchor). */
    std::vector<std::vector<const void *>> _softirq;
    std::vector<uint64_t> _lastIrqAt;

    /** On-disk swap area for sealed ghost pages (carved from the disk
     *  tail at boot) and the machine-wide eviction clock. */
    std::unique_ptr<SwapArea> _swap;
    GhostClock _ghostClock;

    std::map<std::string, KernelModule> _modules;

    /** One interposed syscall handler, resolved at registration time
     *  so the per-syscall dispatch does no string-keyed lookups. */
    struct Interposition
    {
        std::string moduleName;
        std::string functionName;
        KernelModule *module = nullptr;   ///< into _modules (stable)
        const cc::FuncInfo *fn = nullptr; ///< into the module image
    };
    std::map<int, Interposition> _interposed;
    cc::ExternTable _moduleExterns;

    bool _rngRigged = false;
    uint64_t _osRngState = 0x123456789abcdefull;

    // Hot-path counters, interned once at construction.
    sim::StatHandle _hPageFaults;
    sim::StatHandle _hPagesMaterialized;
    sim::StatHandle _hCowFaults;
    sim::StatHandle _hFilePageIns;
    sim::StatHandle _hProcessExits;
    sim::StatHandle _hSpawns;
    sim::StatHandle _hForks;
    sim::StatHandle _hExecs;
    sim::StatHandle _hSignalsDelivered;
    sim::StatHandle _hNetBytesSent;
    sim::StatHandle _hDeviceIrqs;
    sim::StatHandle _hIrqsCoalesced;
    sim::StatHandle _hSoftirqWakes;
    sim::StatHandle _hZeroCopySends;
    sim::StatHandle _hGhostFaults;
    sim::StatHandle _hGhostReclaimed;
    sim::StatHandle _hConnInserts;
    sim::StatHandle _hConnErases;
    sim::StatHandle _hConnLookups;
    sim::StatHandle _hConnPeak;

    friend struct ModuleExternBinder;
};

} // namespace vg::kern

#endif // VG_KERNEL_KERNEL_HH
