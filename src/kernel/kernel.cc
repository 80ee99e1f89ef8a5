#include "kernel/kernel.hh"

#include <algorithm>
#include <cstring>

#include "sim/log.hh"

namespace vg::kern
{

Kernel::Kernel(sim::SimContext &ctx, hw::PhysMem &mem, hw::CpuSet &cpus,
               hw::Iommu &iommu, hw::Tpm &tpm, hw::Disk &disk,
               hw::Nic &nic_a, hw::Nic &nic_b, sva::SvaVm &vm)
    : _ctx(ctx), _mem(mem), _cpus(cpus), _iommu(iommu), _tpm(tpm),
      _disk(disk), _nicA(nic_a), _nicB(nic_b), _vm(vm),
      _hPageFaults(ctx.stats().handle("kernel.page_faults")),
      _hPagesMaterialized(
          ctx.stats().handle("kernel.pages_materialized")),
      _hCowFaults(ctx.stats().handle("kernel.cow_faults")),
      _hFilePageIns(ctx.stats().handle("kernel.file_page_ins")),
      _hProcessExits(ctx.stats().handle("kernel.process_exits")),
      _hSpawns(ctx.stats().handle("kernel.spawns")),
      _hForks(ctx.stats().handle("kernel.forks")),
      _hExecs(ctx.stats().handle("kernel.execs")),
      _hSignalsDelivered(
          ctx.stats().handle("kernel.signals_delivered")),
      _hNetBytesSent(ctx.stats().handle("net.bytes_sent")),
      _hDeviceIrqs(ctx.stats().handle("kernel.device_irqs")),
      _hIrqsCoalesced(ctx.stats().handle("kernel.irqs_coalesced")),
      _hSoftirqWakes(ctx.stats().handle("kernel.softirq_wakes")),
      _hZeroCopySends(ctx.stats().handle("kernel.zero_copy_sends")),
      _hGhostFaults(ctx.stats().handle("kernel.ghost_faults")),
      _hGhostReclaimed(ctx.stats().handle("kernel.ghost_reclaimed")),
      _hConnInserts(ctx.stats().handle("kernel.conn_table_inserts")),
      _hConnErases(ctx.stats().handle("kernel.conn_table_erases")),
      _hConnLookups(ctx.stats().handle("kernel.conn_table_lookups")),
      _hConnPeak(ctx.stats().handle("kernel.conn_table_peak"))
{
    _softirq.resize(ctx.vcpuCount());
    _lastIrqAt.assign(ctx.vcpuCount(), 0);
    _runQueues.resize(ctx.vcpuCount());
}

void
Kernel::boot()
{
    // Frame 0 is never handed out (null catcher); the rest go to the
    // kernel allocator.
    _frames = std::make_unique<FrameAllocator>(1, _mem.numFrames() - 1,
                                               _ctx);
    _kmem = std::make_unique<Kmem>(_ctx, _mem, _cpus[0].mmu(), _vm);
    _kmem->attachCpus(_cpus);
    _bcache = std::make_unique<BufferCache>(_disk, _ctx);
    // The swap area is carved from the disk tail; the filesystem gets
    // the rest. Swap blocks bypass the buffer cache — they sit behind
    // the disk's request queue directly.
    uint64_t swap_blocks = _disk.numBlocks() / 8;
    _fs = std::make_unique<Fs>(*_bcache, _ctx,
                               _disk.numBlocks() - swap_blocks);
    _fs->mkfs();
    _swap = std::make_unique<SwapArea>(
        _disk, _ctx, _disk.numBlocks() - swap_blocks, swap_blocks);

    // Ghost memory frames are donated from / returned to our allocator.
    _vm.setFrameProvider([this]() { return _frames->alloc(); });
    _vm.setFrameReceiver([this](hw::Frame f) { _frames->free(f); });

    // The generic kernel-thread entry point handed to sva.newstate.
    _vm.registerKernelEntry(0xffffff8000100000ull);

    // Preemption quantum: 10 ms, armed on every vCPU's local timer.
    // Device interrupt lines are attached to every vCPU; MSI-X
    // affinity (IrqLine::wireTo) decides where a given raise lands.
    for (unsigned c = 0; c < _cpus.count(); c++) {
        _cpus[c].timer().setInterval(
            sim::Cycles(10000 * sim::Clock::cyclesPerUsec));
        _cpus[c].attachIrq(&_nicA.irq());
        _cpus[c].attachIrq(&_nicB.irq());
        _cpus[c].attachIrq(&_disk.irq());
    }

    setupModuleExterns();
    _ctx.stats().add("kernel.boots");
}

Process *
Kernel::process(uint64_t pid)
{
    auto it = _procs.find(pid);
    return it == _procs.end() ? nullptr : it->second.get();
}

// --------------------------------------------------------------------
// Connection table
// --------------------------------------------------------------------

uint64_t
Kernel::connRegister(const std::shared_ptr<Socket> &server_sock)
{
    // Hash insert + free-list pop: O(1) regardless of how many
    // connections the machine is carrying.
    _ctx.chargeKernelWork(30, 12, 2);
    uint64_t id;
    if (!_connTable.freeIds.empty()) {
        id = _connTable.freeIds.back();
        _connTable.freeIds.pop_back();
    } else {
        id = _connTable.nextId++;
    }
    server_sock->connId = id;
    _connTable.conns.emplace(id, server_sock);
    sim::StatSet::add(_hConnInserts);
    if (_connTable.conns.size() > _connTable.peak) {
        _connTable.peak = _connTable.conns.size();
        *_hConnPeak = _connTable.peak;
    }
    return id;
}

void
Kernel::connUnregister(Socket &sock)
{
    if (sock.connId == 0)
        return;
    _ctx.chargeKernelWork(25, 10, 2);
    auto it = _connTable.conns.find(sock.connId);
    // Erase only the entry this endpoint owns: ids are recycled, so a
    // stale id could otherwise tear down someone else's registration.
    if (it != _connTable.conns.end() &&
        it->second.lock().get() == &sock) {
        _connTable.conns.erase(it);
        _connTable.freeIds.push_back(sock.connId);
        sim::StatSet::add(_hConnErases);
    }
    sock.connId = 0;
}

std::shared_ptr<Socket>
Kernel::connLookup(uint64_t conn_id)
{
    _ctx.chargeKernelWork(20, 8, 1);
    sim::StatSet::add(_hConnLookups);
    auto it = _connTable.conns.find(conn_id);
    return it == _connTable.conns.end() ? nullptr : it->second.lock();
}

void
Kernel::connReapProcess(Process &proc)
{
    for (auto &[fd, of] : proc.fds)
        if (of && of->kind == OpenFile::Kind::Socket && of->sock)
            connUnregister(*of->sock);
}

// --------------------------------------------------------------------
// Address spaces
// --------------------------------------------------------------------

void
Kernel::buildAddressSpace(Process &proc)
{
    auto root = _frames->alloc();
    if (!root)
        sim::fatal("out of frames building address space");
    sva::SvaError err;
    if (!_vm.declarePtPage(*root, 4, &err))
        sim::panic("declare root failed: %s", err.message.c_str());
    proc.rootFrame = *root;
}

bool
Kernel::ensureTables(Process &proc, hw::Vaddr va)
{
    hw::Frame table = proc.rootFrame;
    for (int level = 4; level >= 2; level--) {
        uint64_t idx = hw::ptIndex(va, hw::PtLevel(level));
        hw::Pte entry = _mem.read64(table * hw::pageSize + idx * 8);
        _ctx.chargeKernelWork(4, 2, 0);
        if (entry & hw::pte::present) {
            table = hw::pte::frameNum(entry);
            continue;
        }
        auto child = _frames->alloc();
        if (!child)
            return false;
        sva::SvaError err;
        if (!_vm.declarePtPage(*child, level - 1, &err) ||
            !_vm.installTable(table, level, va, *child, &err)) {
            sim::panic("ensureTables: %s", err.message.c_str());
        }
        proc.ptLinks.push_back({table, level, va, *child});
        table = *child;
    }
    return true;
}

bool
Kernel::materializePage(Process &proc, hw::Vaddr va)
{
    hw::Vaddr page = hw::pageOf(va);

    // Must fall inside a reserved area.
    const VmArea *hit = nullptr;
    for (const auto &[start, area] : proc.areas) {
        if (page >= area.start &&
            page < area.start + area.npages * hw::pageSize) {
            hit = &area;
            break;
        }
    }
    if (!hit)
        return false;

    if (!ensureTables(proc, page))
        return false;
    auto frame = _frames->alloc();
    if (!frame)
        return false;

    if (hit->backingIno != 0) {
        // File-backed fault: page in from the filesystem (buffer
        // cache / device charges apply).
        _mem.zeroFrame(*frame);
        uint8_t page_buf[hw::pageSize];
        uint64_t off = hit->backingOff + (page - hit->start);
        _ctx.chargeKernelWork(800, 350, 70); // vnode pager
        int64_t n = _fs->read(hit->backingIno, off, page_buf,
                              hw::pageSize);
        if (n > 0)
            _mem.writeBytes(*frame * hw::pageSize, page_buf,
                            uint64_t(n));
        sim::StatSet::add(_hFilePageIns);
    } else {
        // Demand-zero: the kernel zeroes the page before mapping.
        _mem.zeroFrame(*frame);
    }
    _ctx.chargeKernelBulk(hw::pageSize);

    sva::SvaError err;
    if (!_vm.mapPage(proc.rootFrame, page, *frame, true, true, true,
                     &err)) {
        _frames->free(*frame);
        return false;
    }
    proc.userPages[page] = {*frame, false};
    sim::StatSet::add(_hPagesMaterialized);
    return true;
}

bool
Kernel::copyOnWrite(Process &proc, hw::Vaddr page)
{
    auto it = proc.userPages.find(page);
    if (it == proc.userPages.end() || !it->second.cow)
        return false;

    _ctx.chargeTrap();
    _ctx.chargeKernelWork(180, 75, 18); // fault decode + vm_object walk
    sim::StatSet::add(_hCowFaults);
    sva::SvaError err;

    hw::Frame old_frame = it->second.frame;
    if (_vm.frames()[old_frame].mapCount > 1) {
        // Shared: copy into a private frame.
        auto fresh = _frames->alloc();
        if (!fresh)
            return false;
        _mem.writeBytes(*fresh * hw::pageSize, _mem.framePtr(old_frame),
                        hw::pageSize);
        _ctx.chargeKernelBulk(hw::pageSize);
        if (!_vm.mapPage(proc.rootFrame, page, *fresh, true, true,
                         true, &err)) {
            _frames->free(*fresh);
            return false;
        }
        it->second = {*fresh, false};
    } else {
        // Sole owner left: just upgrade the protection.
        if (!_vm.protectPage(proc.rootFrame, page, true, true, &err))
            return false;
        it->second.cow = false;
    }
    return true;
}

bool
Kernel::handleUserAccess(Process &proc, hw::Vaddr va, hw::Access access,
                         hw::Paddr &pa)
{
    for (int attempt = 0; attempt < 3; attempt++) {
        auto r = curMmu().translate(va, access, hw::Privilege::User);
        if (r.ok) {
            pa = r.paddr;
            return true;
        }
        if (attempt == 2)
            return false;
        if (r.fault == hw::FaultKind::NotPresent) {
            // Page-fault path: trap into the kernel, demand-zero or
            // page in from the backing file.
            _ctx.chargeTrap();
            _ctx.chargeKernelWork(120, 45, 12); // decode + vm lookup
            sim::StatSet::add(_hPageFaults);
            if (!materializePage(proc, va))
                return false;
        } else if (r.fault == hw::FaultKind::Protection &&
                   access == hw::Access::Write) {
            if (!copyOnWrite(proc, hw::pageOf(va)))
                return false;
        } else {
            return false;
        }
    }
    return false;
}

void
Kernel::releaseUserPages(Process &proc, hw::Vaddr lo, hw::Vaddr hi)
{
    sva::SvaError err;
    auto first = proc.userPages.lower_bound(lo);
    auto last = proc.userPages.lower_bound(hi);
    for (auto it = first; it != last; ++it) {
        if (_vm.unmapPage(proc.rootFrame, it->first, &err) &&
            _vm.frames()[it->second.frame].mapCount == 0)
            _frames->free(it->second.frame);
    }
    proc.userPages.erase(first, last);
}

void
Kernel::teardownAddressSpace(Process &proc)
{
    sva::SvaError err;
    dropGhostTracking(proc.pid);
    _vm.releaseGhostMemory(proc.pid, proc.rootFrame);
    releaseUserPages(proc);
    // Retire page-table pages child-level first (reverse creation).
    for (auto it = proc.ptLinks.rbegin(); it != proc.ptLinks.rend();
         ++it) {
        if (_vm.uninstallTable(it->parent, it->parentLevel, it->va,
                               &err))
            _frames->free(it->child);
    }
    proc.ptLinks.clear();
    if (proc.rootFrame) {
        if (_vm.undeclarePtPage(proc.rootFrame, &err))
            _frames->free(proc.rootFrame);
        proc.rootFrame = 0;
    }
}

void
Kernel::copyAddressSpace(Process &parent, Process &child)
{
    child.areas = parent.areas;
    child.mmapCursor = parent.mmapCursor;
    sva::SvaError err;
    for (auto &[va, page] : parent.userPages) {
        // Copy-on-write sharing, as FreeBSD's fork does: both sides
        // lose write permission; the first writer gets a private
        // copy. All the work is page-table manipulation — discrete,
        // instrumented kernel memory operations.
        _ctx.chargeKernelWork(220, 95, 22); // vm_map/vm_object entry
        if (!ensureTables(child, va))
            sim::panic("fork: out of frames for tables");
        if (!_vm.protectPage(parent.rootFrame, va, false, true, &err))
            sim::panic("fork: protect failed: %s",
                       err.message.c_str());
        page.cow = true;
        if (!_vm.mapPage(child.rootFrame, va, page.frame, false, true,
                         true, &err))
            sim::panic("fork: mapPage failed: %s", err.message.c_str());
        child.userPages[va] = {page.frame, true};
    }
}

// --------------------------------------------------------------------
// Scheduling (baton passing between process fibers)
// --------------------------------------------------------------------

uint64_t
Kernel::spawn(const std::string &name,
              std::function<int(UserApi &)> main_fn)
{
    uint64_t pid = newProcess(name, std::move(main_fn), nullptr).pid;
    sim::StatSet::add(_hSpawns);
    return pid;
}

Process &
Kernel::newProcess(const std::string &name,
                   std::function<int(UserApi &)> main_fn, Process *parent)
{
    auto owner = std::make_unique<Process>();
    Process &p = *owner;
    p.pid = _nextPid++;
    p.name = name;
    p.mainFn = std::move(main_fn);
    p.cpu = _nextCpuAssign++ % _ctx.vcpuCount();
    if (parent) {
        p.parent = parent->pid;
        p.sigHandlers = parent->sigHandlers;
        p.handlerFns = parent->handlerFns;
        p.nextHandlerToken = parent->nextHandlerToken;
        p.fds = parent->fds; // shared open-file descriptions
        p.nextFd = parent->nextFd;
    }

    sva::SvaError err;
    sva::SvaThread *t = _vm.newThread(p.pid, 0xffffff8000100000ull,
                                      parent ? parent->tid : 0, &err);
    if (!t)
        sim::panic("%s: %s", parent ? "fork" : "spawn",
                   err.message.c_str());
    p.tid = t->id;

    buildAddressSpace(p);
    if (parent)
        copyAddressSpace(*parent, p);
    p.fiber = std::make_unique<Fiber>([this, &p]() { processMain(p); });

    _procs[p.pid] = std::move(owner);
    enqueue(p);
    return p;
}

void
Kernel::processMain(Process &proc)
{
    UserApi api(*this, proc);
    int code = 0;
    try {
        code = proc.mainFn ? proc.mainFn(api) : 0;
    } catch (const ProcessExit &e) {
        code = e.code;
    }
    // Exit path: still on the process's own stack, holding the baton.
    teardownAddressSpace(proc);
    _vm.unbindProcess(proc.pid);
    _vm.destroyThread(proc.tid);
    connReapProcess(proc);
    proc.fds.clear();
    dequeue(proc);
    proc.state = ProcState::Zombie;
    _exitCodes[proc.pid] = code;
    proc.exitCode = code;
    sim::StatSet::add(_hProcessExits);
    wakeup(reinterpret_cast<const void *>(uintptr_t(proc.pid)));
}

uint64_t
Kernel::liveFiberStacks() const
{
    uint64_t live = 0;
    for (const auto &[pid, proc] : _procs)
        live += proc->fiber ? 1 : 0;
    return live;
}

void
Kernel::switchTo(Process &proc)
{
    // Execute on the process's home vCPU. Causality: this CPU cannot
    // resume the process before the waker (possibly on another CPU)
    // produced the wakeup, so its clock catches up to the wake stamp.
    _ctx.setActiveCpu(proc.cpu);
    if (proc.readyStamp)
        _ctx.clockOf(proc.cpu).advanceTo(sim::Cycles(proc.readyStamp));
    proc.readyStamp = 0;
    _ctx.chargeContextSwitch();
    sva::SvaError err;
    if (proc.rootFrame)
        _vm.loadRoot(proc.rootFrame, &err);
    _vm.noteDispatch(proc.tid);
    proc.fiber->resume();
    // The process blocked, yielded or exited. An exited process ran its
    // whole exit path on its own stack, so nothing there is live any
    // more: the stack goes now, before waitpid reaps the Zombie.
    if (proc.fiber->finished())
        proc.fiber.reset();
}

void
Kernel::backToScheduler(Process &proc)
{
    // Hand the baton to the scheduler; returns once dispatched again.
    proc.fiber->suspend();
}

void
Kernel::blockCurrent(Process &proc, const void *channel,
                     uint64_t wake_time)
{
    dequeue(proc);
    proc.state = ProcState::Blocked;
    proc.waitChannel = channel;
    proc.wakeTime = wake_time;
    backToScheduler(proc);
    proc.wakeTime = 0;
    // A fatal signal aborts the sleep and unwinds to the exit path
    // (RAII cleans up kernel state on the way out).
    if (proc.killRequested)
        throw ProcessExit{137};
}

void
Kernel::makeRunnable(Process &proc, uint64_t stamp)
{
    if (proc.state == ProcState::Blocked)
        enqueue(proc);
    proc.state = ProcState::Runnable;
    proc.waitChannel = nullptr;
    proc.multiWait.clear();
    proc.wakeTime = 0;
    proc.readyStamp = std::max(proc.readyStamp, stamp);
}

unsigned
Kernel::wakeup(const void *channel)
{
    unsigned woke = 0;
    for (auto &[pid, proc] : _procs) {
        if (proc->state != ProcState::Blocked)
            continue;
        bool hit = proc->waitChannel == channel;
        for (const void *c : proc->multiWait)
            hit = hit || c == channel;
        if (hit) {
            // Stamp the waker's clock: the sleeper's CPU must not
            // observe the wakeup earlier than it was produced.
            makeRunnable(*proc, _ctx.clock().now());
            woke++;
        }
    }
    return woke;
}

void
Kernel::postSoftirq(unsigned cpu, const void *channel)
{
    _softirq[cpu % _softirq.size()].push_back(channel);
}

void
Kernel::serviceSoftirqs(unsigned cpu)
{
    std::vector<const void *> &q = _softirq[cpu];
    if (q.empty())
        return;
    uint64_t now = _ctx.clockOf(cpu).now();

    // Deliver eagerly, in post order. An idle vCPU's local clock can
    // sit arbitrarily far behind the completion time, so gating on it
    // would hold every sleeper hostage to the busiest CPU; waking
    // early is safe because a reader re-checks its segment's arrival
    // time and puts itself back to sleep until then.
    std::vector<const void *> due;
    due.swap(q);

    unsigned prev_cpu = _ctx.activeCpu();
    _ctx.setActiveCpu(cpu);
    unsigned woke = 0;
    const void *last = nullptr;
    for (const void *ch : due) {
        if (ch == last)
            continue; // adjacent completions for one queue
        woke += wakeup(ch);
        last = ch;
    }
    if (woke > 0) {
        // NAPI discipline: the interrupt is armed only while someone
        // is blocked on the queue. Within the coalescing holdoff the
        // still-running bottom half reaps further completions without
        // a fresh trap.
        uint64_t window =
            uint64_t(double(irqHoldoffUs) * sim::Clock::cyclesPerUsec);
        if (_lastIrqAt[cpu] == 0 || now - _lastIrqAt[cpu] > window) {
            _ctx.chargeTrap();
            sim::StatSet::add(_hDeviceIrqs);
        } else {
            sim::StatSet::add(_hIrqsCoalesced);
        }
        _lastIrqAt[cpu] = now;
        _ctx.clockOf(cpu).advance(_ctx.costs().softirqDispatch);
        sim::StatSet::add(_hSoftirqWakes, woke);
    }
    _ctx.setActiveCpu(prev_cpu);
    // The bottom half has drained this CPU's queues: acknowledge
    // device lines steered here whose completions were due.
    for (hw::IrqLine *line : _cpus[cpu].irqLines())
        if (line->pending() && line->cpu() == cpu &&
            line->pendingAt() <= now)
            line->ack();
}

void
Kernel::yieldCurrent(Process &proc)
{
    proc.state = ProcState::Runnable;
    backToScheduler(proc);
}

namespace
{

/** Where @p pid sits, or would sit, in the pid-ordered run queue @p q. */
std::vector<Process *>::iterator
queueSlot(std::vector<Process *> &q, uint64_t pid)
{
    return std::lower_bound(
        q.begin(), q.end(), pid,
        [](const Process *p, uint64_t v) { return p->pid < v; });
}

} // namespace

void
Kernel::enqueue(Process &proc)
{
    std::vector<Process *> &q = _runQueues[proc.cpu % _runQueues.size()];
    q.insert(queueSlot(q, proc.pid), &proc);
}

void
Kernel::dequeue(Process &proc)
{
    std::vector<Process *> &q = _runQueues[proc.cpu % _runQueues.size()];
    auto at = queueSlot(q, proc.pid);
    if (at == q.end() || *at != &proc)
        sim::panic("scheduler: pid %llu is not on cpu %u's run queue",
                   (unsigned long long)proc.pid, proc.cpu);
    q.erase(at);
}

Process *
Kernel::pickNext()
{
    unsigned ncpus = _ctx.vcpuCount();
    std::vector<std::vector<Process *>> &queues = _runQueues;

    // Idle balancing: an idle CPU pulls the youngest process off the
    // longest queue holding at least two. Deterministic (idle CPUs
    // scanned in index order, ties to the lowest donor), so runs stay
    // bit-reproducible.
    for (unsigned c = 0; c < ncpus; c++) {
        if (!queues[c].empty())
            continue;
        unsigned busiest = c;
        size_t best = 1;
        for (unsigned o = 0; o < ncpus; o++) {
            if (queues[o].size() > best) {
                busiest = o;
                best = queues[o].size();
            }
        }
        if (busiest == c)
            continue;
        Process *mig = queues[busiest].back();
        queues[busiest].pop_back();
        mig->cpu = c;
        queues[c].push_back(mig);
        _ctx.stats().add("kernel.migrations");
    }

    // Round-robin over the vCPUs with work, starting at the cursor, so
    // every CPU with work gets a turn before any CPU gets two; each
    // CPU rotates through its own queue.
    for (unsigned i = 0; i < ncpus; i++) {
        unsigned cpu = (_cpuCursor + i) % ncpus;
        std::vector<Process *> &q = queues[cpu];
        if (q.empty())
            continue;
        _cpuCursor = (cpu + 1) % ncpus;
        return q[_queueCursors[cpu]++ % q.size()];
    }
    return nullptr;
}

bool
Kernel::idleAdvance()
{
    // Everyone blocked: advance every vCPU's clock to the earliest
    // timed wake (never backwards), then release the sleepers that are
    // due on their home CPU.
    bool any_blocked = false;
    uint64_t min_wake = 0;
    for (auto &[pid, proc] : _procs) {
        if (proc->state != ProcState::Blocked)
            continue;
        any_blocked = true;
        if (proc->wakeTime != 0 &&
            (min_wake == 0 || proc->wakeTime < min_wake))
            min_wake = proc->wakeTime;
    }
    if (!any_blocked)
        return false;
    if (min_wake == 0)
        sim::panic("scheduler: all processes blocked (deadlock)");
    unsigned ncpus = _ctx.vcpuCount();
    for (unsigned c = 0; c < ncpus; c++)
        _ctx.clockOf(c).advanceTo(sim::Cycles(min_wake));
    for (auto &[pid, proc] : _procs)
        if (proc->state == ProcState::Blocked && proc->wakeTime != 0 &&
            proc->wakeTime <= _ctx.clockOf(proc->cpu % ncpus).now())
            makeRunnable(*proc, 0);
    return true;
}

void
Kernel::run()
{
    unsigned ncpus = _ctx.vcpuCount();
    _cpuCursor = 0;
    _queueCursors.assign(ncpus, 0);
    while (true) {
        // Run bottom halves on every vCPU first so their wakeups are
        // visible to the pick. Delivery order is CPU-index order, then
        // post order.
        for (unsigned c = 0; c < ncpus; c++)
            serviceSoftirqs(c);
        if (Process *p = pickNext())
            switchTo(*p);
        else if (!idleAdvance())
            break;
    }
}

// --------------------------------------------------------------------
// Modules
// --------------------------------------------------------------------

bool
Kernel::loadModule(const std::string &name, const std::string &text,
                   std::string *err)
{
    cc::TranslateResult tr = _vm.translateKernelModule(text);
    if (!tr.ok) {
        if (err)
            *err = tr.error;
        return false;
    }
    // The VM refuses to execute unsigned translations; check up front.
    if (!_vm.verifyImage(*tr.image)) {
        if (err)
            *err = "image signature verification failed";
        return false;
    }

    KernelModule module;
    module.name = name;
    module.image = tr.image;
    // Module stacks live in the kernel half.
    uint64_t stack_base = 0xffffffb000000000ull;
    module.executor = std::make_unique<cc::Executor>(
        *module.image, *_kmem, _moduleExterns, _ctx, stack_base,
        1 << 20);
    _modules[name] = std::move(module);
    _ctx.stats().add("kernel.modules_loaded");
    return true;
}

bool
Kernel::interposeSyscall(Sys sys, const std::string &module_name,
                         const std::string &function_name)
{
    auto it = _modules.find(module_name);
    if (it == _modules.end())
        return false;
    auto fit = it->second.image->functions.find(function_name);
    if (fit == it->second.image->functions.end())
        return false;
    // Resolve module and function once; moduleDispatch then runs the
    // handler with no string-keyed lookup on the syscall path.
    _interposed[int(sys)] = {module_name, function_name, &it->second,
                             &fit->second};
    _ctx.stats().add("kernel.syscalls_interposed");
    return true;
}

uint64_t
Kernel::swapOutPages(uint64_t pid, Process &proc,
                     std::vector<hw::Vaddr> pages)
{
    if (!_swap)
        return 0;
    // Never seal a page the swap area cannot hold: the victims are
    // clamped *before* eviction so nothing is lost.
    if (pages.size() > _swap->freeSlots())
        pages.resize(_swap->freeSlots());

    uint64_t swapped = 0;
    for (size_t i = 0; i < pages.size(); i += evictBatchPages) {
        std::vector<hw::Vaddr> chunk(
            pages.begin() + i,
            pages.begin() +
                std::min<size_t>(pages.size(), i + evictBatchPages));
        sva::SvaError err;
        std::vector<std::vector<uint8_t>> wires =
            _vm.swapOutGhostBatch(pid, proc.rootFrame, chunk, &err);
        if (wires.empty())
            continue; // refused: the VM evicted nothing
        std::vector<SwapArea::StoreReq> reqs(chunk.size());
        for (size_t j = 0; j < chunk.size(); j++)
            reqs[j] = {pid, chunk[j], _vm.swapGeneration(pid, chunk[j]),
                       std::move(wires[j])};
        _swap->storeBatch(std::move(reqs));
        for (hw::Vaddr va : chunk)
            _ghostClock.remove(pid, va);
        swapped += chunk.size();
    }
    _ctx.stats().add("kernel.ghost_swapouts", swapped);
    return swapped;
}

uint64_t
Kernel::swapOutGhost(uint64_t pid, uint64_t max_pages)
{
    Process *proc = process(pid);
    if (!proc)
        return 0;
    std::vector<hw::Vaddr> pages = _vm.ghostPagesOf(pid);
    if (pages.size() > max_pages)
        pages.resize(max_pages);
    return swapOutPages(pid, *proc, std::move(pages));
}

uint64_t
Kernel::reclaimGhostFrames(uint64_t want_pages)
{
    if (!_swap || _ghostClock.size() == 0)
        return 0;
    want_pages = std::min(want_pages, _swap->freeSlots());
    std::vector<GhostClock::Page> victims = _ghostClock.pickVictims(
        want_pages, [this](uint64_t pid, hw::Vaddr va) {
            Process *p = process(pid);
            return p && _vm.ghostPageTestClearRef(pid, p->rootFrame,
                                                  va);
        });
    // Contiguous same-pid runs swap out together (one batch shares
    // one address space); victim order is preserved.
    uint64_t reclaimed = 0;
    size_t i = 0;
    while (i < victims.size()) {
        size_t j = i;
        while (j < victims.size() &&
               victims[j].first == victims[i].first)
            j++;
        Process *p = process(victims[i].first);
        if (p) {
            std::vector<hw::Vaddr> vas;
            vas.reserve(j - i);
            for (size_t k = i; k < j; k++)
                vas.push_back(victims[k].second);
            reclaimed +=
                swapOutPages(victims[i].first, *p, std::move(vas));
        }
        i = j;
    }
    sim::StatSet::add(_hGhostReclaimed, reclaimed);
    return reclaimed;
}

/** Frames kept free beyond the immediate need: swap-in and ghost
 *  mapping may consume a few extra frames for page tables. */
static constexpr uint64_t kGhostHeadroom = 16;

void
Kernel::ensureGhostHeadroom(uint64_t need)
{
    if (!_swap)
        return;
    uint64_t want = need + kGhostHeadroom;
    uint64_t have = _frames->freeCount();
    if (have >= want)
        return;
    reclaimGhostFrames(want - have);
}

bool
Kernel::swapInGhost(uint64_t pid, hw::Vaddr page_va)
{
    Process *proc = process(pid);
    if (!proc || !_swap || !_swap->contains(pid, page_va))
        return false;
    sim::StatSet::add(_hGhostFaults);
    // The restore needs a frame; under pressure the clock makes room
    // first (the faulting page is non-resident, never its own victim).
    ensureGhostHeadroom(1);
    std::optional<std::vector<uint8_t>> wire = _swap->read(pid, page_va);
    if (!wire)
        return false;
    sva::SvaError err;
    if (!_vm.swapInGhostPage(pid, proc->rootFrame, page_va,
                             std::move(*wire), &err)) {
        // Created on the first refusal, so a clean run's stat map
        // has no such key.
        _ctx.stats().add("kernel.ghost_swapins_refused");
        sim::warn("ghost swap-in refused: %s", err.message.c_str());
        return false;
    }
    _swap->release(pid, page_va);
    _ghostClock.insert(pid, page_va);
    _ctx.stats().add("kernel.ghost_swapins");
    return true;
}

uint64_t
Kernel::swappedGhostPages(uint64_t pid) const
{
    return _swap ? _swap->countFor(pid) : 0;
}

std::optional<std::vector<uint8_t>>
Kernel::readSwappedBlob(uint64_t pid, hw::Vaddr page_va)
{
    if (!_swap)
        return std::nullopt;
    return _swap->read(pid, page_va);
}

std::optional<uint64_t>
Kernel::swapSlotBlock(uint64_t pid, hw::Vaddr page_va) const
{
    if (!_swap)
        return std::nullopt;
    return _swap->slotBlock(pid, page_va);
}

void
Kernel::noteGhostAlloc(uint64_t pid, hw::Vaddr va, uint64_t npages)
{
    for (uint64_t i = 0; i < npages; i++)
        _ghostClock.insert(pid, va + i * hw::pageSize);
}

void
Kernel::noteGhostFree(uint64_t pid, hw::Vaddr va, uint64_t npages)
{
    for (uint64_t i = 0; i < npages; i++)
        _ghostClock.remove(pid, va + i * hw::pageSize);
}

void
Kernel::dropGhostTracking(uint64_t pid)
{
    _ghostClock.removePid(pid);
    if (_swap)
        _swap->releaseAll(pid);
}

cc::ExecResult
Kernel::callModuleFunction(const std::string &module_name,
                           const std::string &function_name,
                           const std::vector<uint64_t> &args)
{
    auto it = _modules.find(module_name);
    if (it == _modules.end()) {
        cc::ExecResult r;
        r.fault = cc::ExecFault::BadCallTarget;
        r.detail = "no such module " + module_name;
        return r;
    }
    return it->second.executor->call(function_name, args);
}

std::optional<int64_t>
Kernel::moduleDispatch(Sys sys, std::initializer_list<uint64_t> args)
{
    auto it = _interposed.find(int(sys));
    if (it == _interposed.end())
        return std::nullopt;
    cc::ExecResult r =
        it->second.module->executor->call(*it->second.fn, args);
    if (!r.ok) {
        // A faulting handler terminates the kernel thread servicing
        // the syscall (S 4.5); the syscall itself fails.
        _ctx.stats().add("kernel.module_faults");
        return -1;
    }
    return int64_t(r.value);
}

} // namespace vg::kern
