/**
 * @file
 * System-call implementations (UserApi) and the signal-delivery and
 * user-context-execution paths.
 *
 * Every gated UserApi entry runs its body inside UserApi::syscall(),
 * the one SVA gate (Interrupt Context saved into VM memory, registers
 * zeroed — cost-accounted). read, write and sendfile first consult
 * module interpositions, so a loaded rootkit can replace handlers
 * exactly as in S 7 of the paper.
 */

#include <cstring>

#include "kernel/kernel.hh"
#include "sim/log.hh"

namespace vg::kern
{

namespace
{

/** Signal numbers we model. */
constexpr int sigKill = 9;
constexpr int sigTerm = 15;

} // namespace

// --------------------------------------------------------------------
// Gate
// --------------------------------------------------------------------

void
UserApi::sysEnter()
{
    _kernel._vm.syscallEnter(_proc.tid);
    // Trap decode, syscall-table indirection, argument fetch.
    _kernel._ctx.chargeKernelWork(26, 9, 3);
}

void
UserApi::sysExit()
{
    _kernel._vm.syscallExit(_proc.tid);
    _kernel.deliverPushedCalls(_proc);

    if (_proc.killRequested)
        exit(137);

    _kernel.preemptIfDue(_proc);
}

template <class F>
auto
UserApi::syscall(F &&body)
{
    sysEnter();
    auto r = body();
    sysExit();
    return r;
}

void
Kernel::preemptIfDue(Process &proc)
{
    if (curTimer().due()) {
        curTimer().acknowledge();
        _ctx.chargeTrap();
        yieldCurrent(proc);
    }
}

void
Kernel::deliverPushedCalls(Process &proc)
{
    sva::SvaThread *t = _vm.thread(proc.tid);
    if (!t)
        return;
    while (!t->pushedCalls.empty()) {
        sva::PushedCall call = t->pushedCalls.front();
        t->pushedCalls.erase(t->pushedCalls.begin());

        // Kernel-side dispatch bookkeeping (sendsig()-style frame
        // setup) is instrumented kernel work.
        _ctx.chargeKernelWork(300, 120, 25);
        auto fn = proc.handlerFns.find(call.handler);
        if (fn != proc.handlerFns.end()) {
            // Legitimate handler: runs as application code.
            fn->second(int(call.arg));
        } else {
            // The OS pushed something that is not a registered
            // handler — only reachable on the baseline kernel.
            executeUserContextCode(proc, call.handler, call.arg);
        }
        // sigreturn(): restore the saved Interrupt Context.
        sva::SvaError err;
        _vm.icontextLoad(proc.tid, &err);
        sim::StatSet::add(_hSignalsDelivered);
    }
}

namespace
{

/** MemPort that accesses memory with *user* privilege through a
 *  process's address space — how injected "user context" exploit code
 *  sees memory. Ghost pages are user-accessible by design; the
 *  protection against this path is that VG never lets it run. */
class UserPort : public cc::MemPort
{
  public:
    UserPort(Kernel &kernel, Process &proc) : _api(kernel, proc) {}

    bool
    read(uint64_t va, unsigned bytes, uint64_t &out) override
    {
        return _api.peek(va, bytes, out);
    }

    bool
    write(uint64_t va, unsigned bytes, uint64_t val) override
    {
        return _api.poke(va, bytes, val);
    }

    bool
    copy(uint64_t dst, uint64_t src, uint64_t len) override
    {
        for (uint64_t i = 0; i < len; i++) {
            uint64_t b = 0;
            if (!read(src + i, 1, b) || !write(dst + i, 1, b))
                return false;
        }
        return true;
    }

  private:
    UserApi _api;
};

} // namespace

void
Kernel::executeUserContextCode(Process &proc, uint64_t code_addr,
                               uint64_t arg)
{
    // The extern table must be fully populated before the Executor is
    // constructed: extern callees are interned at predecode time.
    UserPort port(*this, proc);
    cc::ExternTable externs;
    externs.fns["u_write"] =
        [this, &proc](const std::vector<uint64_t> &args) {
            if (args.size() < 3)
                return uint64_t(0);
            int64_t n = doWrite(proc, int(args[0]), args[1],
                                args[2]);
            return uint64_t(n);
        };
    externs.fns["u_log"] =
        [this](const std::vector<uint64_t> &args) {
            _console.write(sim::strprintf(
                "[user-exploit] value=%#lx\n",
                args.empty() ? 0ul : (unsigned long)args[0]));
            return uint64_t(0);
        };

    // Find the module image containing this address.
    for (auto &[name, module] : _modules) {
        if (!module.image->contains(code_addr))
            continue;
        cc::Executor exec(*module.image, port, externs, _ctx,
                          0xffffffb800000000ull, 1 << 20);
        exec.callAddr(code_addr, {arg});
        _ctx.stats().add("kernel.user_context_injections");
        return;
    }
    _ctx.stats().add("kernel.unresolvable_handlers");
}

// --------------------------------------------------------------------
// Files
// --------------------------------------------------------------------

std::shared_ptr<OpenFile>
Kernel::file(Process &proc, int fd)
{
    _ctx.chargeKernelWork(8, 4, 1); // fd table lookup
    auto it = proc.fds.find(fd);
    return it == proc.fds.end() ? nullptr : it->second;
}

std::shared_ptr<Socket>
Kernel::socketOf(Process &proc, int fd)
{
    auto of = file(proc, fd);
    return of && of->kind == OpenFile::Kind::Socket ? of->sock : nullptr;
}

int
UserApi::open(const std::string &path, bool create)
{
    return syscall([&] {
        Kernel &k = _kernel;
        k._ctx.chargeKernelWork(140, 70, 16); // vnode locks, name cache
        Ino ino = 0;
        FsStatus s = k._fs->lookup(path, ino);
        if (s == FsStatus::NotFound && create)
            s = k._fs->create(path, ino);
        if (s != FsStatus::Ok)
            return -1;
        return _proc.addFd(ino);
    });
}

int
UserApi::close(int fd)
{
    return syscall([&] {
        _kernel._ctx.chargeKernelWork(60, 24, 8);
        auto it = _proc.fds.find(fd);
        if (it == _proc.fds.end())
            return -1;
        auto of = it->second;
        if (of->kind == OpenFile::Kind::Socket && of->sock) {
            // Tear down the connection.
            if (auto peer = of->sock->peer.lock()) {
                peer->peerClosed = true;
                _kernel.wakeup(peer.get());
            }
            if (of->sock->state == Socket::State::Listening)
                _kernel._listeners.erase(of->sock->localPort);
            _kernel.connUnregister(*of->sock);
            of->sock->state = Socket::State::Closed;
        }
        _proc.fds.erase(it);
        return 0;
    });
}

int64_t
Kernel::doRead(Process &proc, int fd, hw::Vaddr buf, uint64_t len)
{
    auto of = file(proc, fd);
    if (!of)
        return -1;
    if (of->kind == OpenFile::Kind::Socket) {
        std::vector<uint8_t> tmp(len);
        int64_t n = socketRecv(proc, *of->sock, tmp.data(), len);
        if (n > 0 && !_kmem->copyOut(buf, tmp.data(), uint64_t(n)))
            return -1;
        return n;
    }
    std::vector<uint8_t> &stage = proc.fileStage;
    stage.resize(std::max<size_t>(stage.size(), len));
    int64_t n = _fs->read(of->ino, of->offset, stage.data(), len);
    if (n < 0)
        return -1;
    of->offset += uint64_t(n);
    if (n > 0 && !_kmem->copyOut(buf, stage.data(), uint64_t(n)))
        return -1;
    return n;
}

int64_t
Kernel::doWrite(Process &proc, int fd, hw::Vaddr buf, uint64_t len)
{
    auto of = file(proc, fd);
    if (!of)
        return -1;
    if (of->kind == OpenFile::Kind::Socket) {
        std::vector<uint8_t> tmp(len);
        if (!_kmem->copyIn(buf, tmp.data(), len))
            return -1;
        return socketSend(proc, *of->sock, tmp.data(), len);
    }
    std::vector<uint8_t> &stage = proc.fileStage;
    stage.resize(std::max<size_t>(stage.size(), len));
    if (!_kmem->copyIn(buf, stage.data(), len))
        return -1;
    int64_t n = _fs->write(of->ino, of->offset, stage.data(), len);
    if (n > 0)
        of->offset += uint64_t(n);
    return n;
}

int64_t
UserApi::read(int fd, hw::Vaddr buf, uint64_t len)
{
    return syscall([&] {
        // Page in the destination before the kernel writes it (the
        // real kernel faults during copyout; we front-load it).
        for (hw::Vaddr va = hw::pageOf(buf); va < buf + len;
             va += hw::pageSize) {
            hw::Paddr pa;
            _kernel.handleUserAccess(_proc, va, hw::Access::Write, pa);
        }
        if (auto hooked = _kernel.moduleDispatch(
                Sys::read, {uint64_t(fd), buf, len, _proc.pid}))
            return *hooked;
        return _kernel.doRead(_proc, fd, buf, len);
    });
}

int64_t
UserApi::write(int fd, hw::Vaddr buf, uint64_t len)
{
    return syscall([&] {
        if (auto hooked = _kernel.moduleDispatch(
                Sys::write, {uint64_t(fd), buf, len, _proc.pid}))
            return *hooked;
        return _kernel.doWrite(_proc, fd, buf, len);
    });
}

int64_t
UserApi::lseek(int fd, int64_t off, int whence)
{
    return syscall([&]() -> int64_t {
        _kernel._ctx.chargeKernelWork(30, 12, 4);
        auto of = _kernel.file(_proc, fd);
        if (!of || of->kind != OpenFile::Kind::File)
            return -1;
        FileStat st;
        _kernel._fs->stat(of->ino, st);
        int64_t base = whence == 0   ? 0
                       : whence == 1 ? int64_t(of->offset)
                                     : int64_t(st.size);
        int64_t pos = base + off;
        if (pos < 0)
            return -1;
        of->offset = uint64_t(pos);
        return pos;
    });
}

int
UserApi::unlink(const std::string &path)
{
    return syscall([&] {
        _kernel._ctx.chargeKernelWork(120, 48, 12);
        return _kernel._fs->unlink(path) == FsStatus::Ok ? 0 : -1;
    });
}

int
UserApi::mkdir(const std::string &path)
{
    return syscall([&] {
        _kernel._ctx.chargeKernelWork(110, 44, 12);
        Ino ino = 0;
        return _kernel._fs->mkdir(path, ino) == FsStatus::Ok ? 0 : -1;
    });
}

int
UserApi::stat(const std::string &path, FileStat &out)
{
    return syscall([&] {
        _kernel._ctx.chargeKernelWork(90, 36, 10);
        Ino ino = 0;
        FsStatus s = _kernel._fs->lookup(path, ino);
        if (s == FsStatus::Ok)
            s = _kernel._fs->stat(ino, out);
        return s == FsStatus::Ok ? 0 : -1;
    });
}

int
UserApi::fsync(int fd)
{
    return syscall([&] {
        _kernel._ctx.chargeKernelWork(50, 20, 6);
        if (!_kernel.file(_proc, fd))
            return -1;
        _kernel._fs->sync();
        return 0;
    });
}

// --------------------------------------------------------------------
// Memory
// --------------------------------------------------------------------

hw::Vaddr
UserApi::mmap(uint64_t len)
{
    return syscall([&]() -> hw::Vaddr {
        _kernel._ctx.chargeKernelWork(160, 88, 21); // vm_map entry insert
        uint64_t npages = (len + hw::pageSize - 1) / hw::pageSize;
        return npages > 0 ? _proc.reserveArea(npages) : 0;
    });
}

hw::Vaddr
UserApi::mmapFile(int fd, uint64_t len)
{
    return syscall([&]() -> hw::Vaddr {
        _kernel._ctx.chargeKernelWork(200, 80, 20); // vnode pager setup
        auto of = _kernel.file(_proc, fd);
        uint64_t npages = (len + hw::pageSize - 1) / hw::pageSize;
        if (!of || of->kind != OpenFile::Kind::File || npages == 0)
            return 0;
        return _proc.reserveArea(npages, of->ino);
    });
}

int
UserApi::munmap(hw::Vaddr va, uint64_t len)
{
    return syscall([&] {
        _kernel._ctx.chargeKernelWork(120, 48, 12);
        auto it = _proc.areas.find(va);
        uint64_t npages = (len + hw::pageSize - 1) / hw::pageSize;
        if (it == _proc.areas.end() || it->second.npages != npages)
            return -1;
        _kernel.releaseUserPages(_proc, va, va + npages * hw::pageSize);
        _proc.areas.erase(it);
        return 0;
    });
}

bool
Kernel::userCopy(Process &proc, hw::Vaddr va, void *buf, uint64_t len,
                 hw::Access access)
{
    uint8_t *bytes = static_cast<uint8_t *>(buf);
    for (uint64_t off = 0; off < len;) {
        hw::Paddr pa = 0;
        if (!handleUserAccess(proc, va + off, access, pa))
            return false;
        uint64_t chunk = std::min<uint64_t>(
            len - off, hw::pageSize - hw::pageOffset(va + off));
        if (access == hw::Access::Write)
            _mem.writeBytes(pa, bytes + off, chunk);
        else
            _mem.readBytes(pa, bytes + off, chunk);
        off += chunk;
    }
    return true;
}

bool
UserApi::peek(hw::Vaddr va, unsigned bytes, uint64_t &out)
{
    uint8_t b[8] = {};
    if (!_kernel.userCopy(_proc, va, b, std::min(bytes, 8u),
                          hw::Access::Read))
        return false;
    out = 0;
    for (unsigned i = 0; i < 8; i++)
        out |= uint64_t(b[i]) << (8 * i);
    return true;
}

bool
UserApi::poke(hw::Vaddr va, unsigned bytes, uint64_t val)
{
    uint8_t b[8];
    for (unsigned i = 0; i < 8; i++)
        b[i] = uint8_t(val >> (8 * i));
    return _kernel.userCopy(_proc, va, b, std::min(bytes, 8u),
                            hw::Access::Write);
}

bool
UserApi::copyToUser(hw::Vaddr va, const void *src, uint64_t len)
{
    if (!_kernel.userCopy(_proc, va, const_cast<void *>(src), len,
                          hw::Access::Write))
        return false;
    _kernel._ctx.chargeUserWork(len / 16 + 1);
    return true;
}

bool
UserApi::copyFromUser(hw::Vaddr va, void *dst, uint64_t len)
{
    if (!_kernel.userCopy(_proc, va, dst, len, hw::Access::Read))
        return false;
    _kernel._ctx.chargeUserWork(len / 16 + 1);
    return true;
}

// --------------------------------------------------------------------
// Ghost memory
// --------------------------------------------------------------------

hw::Vaddr
UserApi::allocGhost(uint64_t npages)
{
    // allocgm is a VM call but still crosses the gate.
    return syscall([&]() -> hw::Vaddr {
        hw::Vaddr va = _proc.ghostCursor;
        // Frame pressure: make room (plus page-table headroom) before
        // the VM starts pulling frames from the allocator.
        _kernel.ensureGhostHeadroom(npages + npages / 512 + 3);
        sva::SvaError err;
        if (!_kernel._vm.allocGhostMemory(_proc.pid, _proc.rootFrame, va,
                                          npages, &err))
            return 0;
        _proc.ghostCursor += npages * hw::pageSize;
        _kernel.noteGhostAlloc(_proc.pid, va, npages);
        return va;
    });
}

bool
UserApi::freeGhost(hw::Vaddr va, uint64_t npages)
{
    return syscall([&] {
        sva::SvaError err;
        bool ok = _kernel._vm.freeGhostMemory(_proc.pid, _proc.rootFrame,
                                              va, npages, &err);
        if (ok)
            _kernel.noteGhostFree(_proc.pid, va, npages);
        return ok;
    });
}

bool
Kernel::ghostCopy(Process &proc, hw::Vaddr va, void *buf, uint64_t len,
                  hw::Access access)
{
    // Application-side access: user privilege; a fault on a
    // swapped-out ghost page goes to the OS, which asks the VM to
    // verify and restore it (S 3.3).
    uint8_t *bytes = static_cast<uint8_t *>(buf);
    for (uint64_t off = 0; off < len;) {
        auto r = curMmu().translate(va + off, access, hw::Privilege::User);
        if (!r.ok) {
            _ctx.chargeTrap();
            if (!swapInGhost(proc.pid, hw::pageOf(va + off)))
                return false;
            r = curMmu().translate(va + off, access, hw::Privilege::User);
        }
        if (!r.ok)
            return false;
        uint64_t chunk = std::min<uint64_t>(
            len - off, hw::pageSize - hw::pageOffset(va + off));
        if (access == hw::Access::Write)
            _mem.writeBytes(r.paddr, bytes + off, chunk);
        else
            _mem.readBytes(r.paddr, bytes + off, chunk);
        off += chunk;
    }
    return true;
}

bool
UserApi::ghostWrite(hw::Vaddr va, const void *src, uint64_t len)
{
    if (!_kernel.ghostCopy(_proc, va, const_cast<void *>(src), len,
                           hw::Access::Write))
        return false;
    _kernel._ctx.chargeUserWork(len / 16 + 1);
    return true;
}

bool
UserApi::ghostRead(hw::Vaddr va, void *dst, uint64_t len)
{
    if (!_kernel.ghostCopy(_proc, va, dst, len, hw::Access::Read))
        return false;
    _kernel._ctx.chargeUserWork(len / 16 + 1);
    return true;
}

std::optional<crypto::AesKey>
UserApi::getKey()
{
    return _kernel._vm.getKey(_proc.pid);
}

void
UserApi::secureRandom(void *out, size_t len)
{
    _kernel._vm.secureRandom(out, len);
}

void
UserApi::osRandom(void *out, size_t len)
{
    syscall([&] {
        Kernel &k = _kernel;
        k._ctx.chargeKernelWork(40, 16, 4);
        uint8_t *p = static_cast<uint8_t *>(out);
        if (k._ctx.config().secureRng) {
            // VG routes randomness requests to the trusted generator.
            k._vm.secureRandom(out, len);
        } else if (k._rngRigged) {
            // Hostile kernel: predictable bytes (Iago attack on
            // /dev/random, S 2.2.5).
            std::memset(p, 0x41, len);
        } else {
            for (size_t i = 0; i < len; i++) {
                k._osRngState = k._osRngState * 6364136223846793005ull +
                                1442695040888963407ull;
                p[i] = uint8_t(k._osRngState >> 33);
            }
        }
        return 0; // osRandom() itself has no result
    });
}

// --------------------------------------------------------------------
// Processes
// --------------------------------------------------------------------

uint64_t
UserApi::fork(std::function<int(UserApi &)> child_main)
{
    return syscall([&] {
        Kernel &k = _kernel;
        // proc-table entry, uarea, fd table duplication.
        k._ctx.chargeKernelWork(2200, 900, 180);

        Process &child =
            k.newProcess(_proc.name + "+", std::move(child_main), &_proc);
        sim::StatSet::add(k._hForks);
        return child.pid;
    });
}

int
UserApi::execve(const sva::AppBinary *binary,
                std::function<int(UserApi &)> new_main)
{
    bool loaded = syscall([&] {
        Kernel &k = _kernel;
        // Image load: vnode lookup, ELF headers, argument copy.
        k._ctx.chargeKernelWork(5200, 2500, 500);
        // Map a fresh text+stack image (demand-paged) — charge the
        // copy of the program image from the buffer cache.
        k._ctx.chargeKernelBulk(32 * 1024);

        sva::SvaError err;
        // Validation failure prevents startup (S 4.4).
        if (binary && !k._vm.bindProcessToApp(_proc.pid, *binary, &err))
            return false;

        // Reset the address space and Interrupt Context. The old
        // image's ghost memory dies here: clock entries and swap slots
        // go with it.
        k.dropGhostTracking(_proc.pid);
        k._vm.reinitIcontext(_proc.tid, 0x400000, 0x7fffffff0000ull,
                             _proc.rootFrame, &err);
        k.releaseUserPages(_proc);
        _proc.areas.clear();
        _proc.mmapCursor = 0x0000100000000000ull;
        _proc.ghostCursor = hw::ghostBase;
        _proc.sigHandlers.clear();
        _proc.handlerFns.clear();
        sim::StatSet::add(k._hExecs);
        return true;
    });
    if (!loaded)
        return -1;

    // Run the new image; when it finishes, the process exits.
    exit(new_main(*this));
}

void
UserApi::exit(int code)
{
    _kernel._ctx.chargeKernelWork(400, 160, 40);
    throw ProcessExit{code};
}

int
UserApi::waitpid(uint64_t pid, int &status)
{
    return syscall([&] {
        Kernel &k = _kernel;
        k._ctx.chargeKernelWork(80, 32, 10);
        while (true) {
            Process *child = k.process(pid);
            if (!child)
                return -1;
            if (child->state == ProcState::Zombie) {
                // Reap: the pid is gone once its status is collected.
                status = child->exitCode;
                k._procs.erase(pid);
                return 0;
            }
            k.blockCurrent(_proc,
                           reinterpret_cast<const void *>(uintptr_t(pid)));
        }
    });
}

void
Kernel::postSignal(Process &target, int signum)
{
    auto handler = target.sigHandlers.find(signum);
    if (handler != target.sigHandlers.end()) {
        sva::SvaError err;
        // If the victim's register state lives in another vCPU's
        // register file, park it (IPI) before touching its IC —
        // icontextSave refuses to manipulate state it does not hold.
        _vm.parkRemoteThread(target.tid);
        _vm.icontextSave(target.tid, &err);
        if (!_vm.ipushFunction(target.tid, handler->second,
                               uint64_t(signum), &err)) {
            // Refused by the VM: undo the save; the signal is dropped
            // and the victim continues untouched (S 7).
            _vm.icontextLoad(target.tid, &err);
            _ctx.stats().add("kernel.signals_refused");
        }
    } else if (signum == sigKill || signum == sigTerm) {
        target.killRequested = true;
        // Abort whatever sleep the victim is in.
        if (target.state == ProcState::Blocked)
            makeRunnable(target, 0);
    }
    wakeup(&target);
    wakeup(reinterpret_cast<const void *>(uintptr_t(target.pid)));
}

int
UserApi::kill(uint64_t pid, int signum)
{
    return syscall([&] {
        _kernel._ctx.chargeKernelWork(90, 36, 10);
        Process *target = _kernel.process(pid);
        if (!target || !target->alive())
            return -1;
        _kernel.postSignal(*target, signum);
        return 0;
    });
}

uint64_t
UserApi::installSignalHandler(int signum,
                              std::function<void(int)> handler,
                              bool permit_with_sva)
{
    return syscall([&] {
        _kernel._ctx.chargeKernelWork(70, 18, 5); // sigaction bookkeeping
        uint64_t token = _proc.nextHandlerToken;
        _proc.nextHandlerToken += 0x100;
        _proc.handlerFns[token] = std::move(handler);
        _proc.sigHandlers[signum] = token;
        if (permit_with_sva)
            _kernel._vm.permitFunction(_proc.pid, token);
        return token;
    });
}

// --------------------------------------------------------------------
// Sockets
// --------------------------------------------------------------------

namespace
{

/** Socket receive buffer cap (flow-control window). */
constexpr uint64_t sockWindow = 256 * 1024;

} // namespace

int
UserApi::socket()
{
    return syscall([&] {
        _kernel._ctx.chargeKernelWork(120, 48, 14);
        return _proc.addFd(0, std::make_shared<Socket>());
    });
}

int
UserApi::bind(int fd, uint16_t port)
{
    return syscall([&] {
        _kernel._ctx.chargeKernelWork(60, 24, 8);
        auto sock = _kernel.socketOf(_proc, fd);
        if (!sock)
            return -1;
        sock->localPort = port;
        return 0;
    });
}

int
UserApi::listen(int fd)
{
    return syscall([&] {
        _kernel._ctx.chargeKernelWork(60, 24, 8);
        auto sock = _kernel.socketOf(_proc, fd);
        if (!sock || sock->localPort == 0)
            return -1;
        sock->state = Socket::State::Listening;
        _kernel._listeners[sock->localPort] = sock;
        return 0;
    });
}

int
UserApi::accept(int fd)
{
    return syscall([&] {
        Kernel &k = _kernel;
        k._ctx.chargeKernelWork(150, 60, 16);
        auto lsock = k.socketOf(_proc, fd);
        if (!lsock || lsock->state != Socket::State::Listening)
            return -1;
        while (lsock->acceptQueue.empty())
            k.blockCurrent(_proc, lsock.get());
        auto conn = lsock->acceptQueue.front();
        lsock->acceptQueue.pop_front();
        // Adopt the established connection by id — an O(1) hash
        // lookup, independent of how many connections are live.
        if (conn->connId != 0) {
            if (auto adopted = k.connLookup(conn->connId))
                conn = adopted;
        }
        return _proc.addFd(0, std::move(conn));
    });
}

int
UserApi::connect(uint16_t port)
{
    return syscall([&] {
        Kernel &k = _kernel;
        k._ctx.chargeKernelWork(400, 160, 40); // handshake processing
        auto it = k._listeners.find(port);
        if (it == k._listeners.end() ||
            it->second->state != Socket::State::Listening)
            return -1;
        // Model the three-way handshake on the wire; each leg is a
        // synchronous round trip, so the client waits it out.
        for (int leg = 0; leg < 3; leg++) {
            hw::Nic &tx = leg % 2 == 0 ? k._nicA : k._nicB;
            hw::Nic &rx = leg % 2 == 0 ? k._nicB : k._nicA;
            uint64_t ready = tx.send(std::vector<uint8_t>(64, 0));
            rx.receive();
            k._ctx.clock().advanceTo(ready);
        }

        auto client = std::make_shared<Socket>();
        auto server = std::make_shared<Socket>();
        client->state = Socket::State::Connected;
        server->state = Socket::State::Connected;
        client->peer = server;
        server->peer = client;
        server->localPort = port;
        // Register the established connection: O(1) hash insert with
        // a free-listed id, no scan of the connection population.
        k.connRegister(server);
        client->connId = server->connId;
        it->second->acceptQueue.push_back(server);
        k.wakeup(it->second.get());
        return _proc.addFd(0, std::move(client));
    });
}

uint64_t
Kernel::ringTransmit(const std::shared_ptr<Socket> &peer,
                     const uint8_t *data, uint64_t len)
{
    // Post a descriptor per segment (at most one MTU less headers) for
    // as much of @p len as the peer window and the TX ring allow, then
    // cross the device boundary once for the whole batch.
    std::vector<uint64_t> chunks;
    uint64_t queued = 0;
    uint64_t win = peer->pendingBytes;
    while (queued < len && win < sockWindow) {
        uint64_t chunk = std::min<uint64_t>(
            {len - queued, hw::Nic::mtu - 64, sockWindow - win});
        hw::RingDesc d;
        d.len = uint32_t(chunk + 64);
        d.cookie = reinterpret_cast<uint64_t>(peer.get());
        if (!_nicA.txPost(d))
            break; // ring full: flush this batch, then continue
        chunks.push_back(chunk);
        queued += chunk;
        win += chunk;
    }
    if (chunks.empty())
        return 0;
    _nicA.txDoorbell();
    std::vector<hw::RingCompletion> comps = _nicA.txReapAll();

    uint64_t sent = 0;
    unsigned steer = peer->irqSteer;
    for (size_t i = 0; i < chunks.size() && i < comps.size(); i++) {
        uint64_t ready_at = comps[i].doneAt;
        _nicB.receive();
        _ctx.chargeKernelWork(240, 96, 24);
        Segment seg;
        seg.data.assign(data + sent, data + sent + chunks[i]);
        seg.readyAt = ready_at;
        peer->rxBuf.push_back(std::move(seg));
        peer->pendingBytes += chunks[i];
        sent += chunks[i];
        // RX interrupt: steered at the consumer's vCPU (flow
        // steering); the bottom half there wakes a reader that went
        // to sleep on the queue. A reader that is awake (or wakes via
        // the send-side notify below) reaps inline, NAPI-style, and
        // the IRQ is acked without a trap charge.
        _nicB.irq().wireTo(steer);
        _nicB.irq().raise(ready_at);
        postSoftirq(steer, peer.get());
    }
    return sent;
}

int64_t
Kernel::socketSend(Process &proc, Socket &sock, const uint8_t *data,
                   uint64_t len)
{
    if (sock.state != Socket::State::Connected)
        return -1;
    auto peer = sock.peer.lock();
    if (!peer || peer->peerClosed)
        return -1;

    uint64_t sent = 0;
    while (sent < len) {
        // Flow control: block while the peer's window is full.
        while (peer->pendingBytes >= sockWindow) {
            if (sock.peerClosed)
                return int64_t(sent);
            blockCurrent(proc, &sock);
        }
        sent += ringTransmit(peer, data + sent, len - sent);
    }
    sim::StatSet::add(_hNetBytesSent, len);
    return int64_t(sent);
}

int64_t
Kernel::socketRecv(Process &proc, Socket &sock, uint8_t *data,
                   uint64_t len)
{
    if (sock.state != Socket::State::Connected)
        return -1;
    // Steer RX completions at this reader's home vCPU so the softirq
    // bottom half (and its wake) lands on the CPU that will run us.
    sock.irqSteer = proc.cpu;
    while (true) {
        if (!sock.rxBuf.empty()) {
            // If the head segment is still on the wire, sleep until
            // it lands (other processes run meanwhile). The block is
            // timed, not left to the softirq wake: the segment's softirq
            // may have already fired on another vCPU's (earlier) clock.
            uint64_t ready_at = sock.rxBuf.front().readyAt;
            if (ready_at <= _ctx.clock().now())
                break;
            blockCurrent(proc, &sock, ready_at);
            continue;
        }
        if (sock.peerClosed)
            return 0; // EOF
        if (proc.killRequested)
            return -1;
        // Empty buffer: any future send posts a softirq at this
        // socket's channel, so an untimed block cannot be lost.
        blockCurrent(proc, &sock);
    }

    uint64_t n = 0;
    while (n < len && !sock.rxBuf.empty()) {
        Segment &seg = sock.rxBuf.front();
        if (seg.readyAt > _ctx.clock().now())
            break; // later segments still in flight
        uint64_t avail = seg.data.size() - seg.offset;
        uint64_t take = std::min(len - n, avail);
        std::memcpy(data + n, seg.data.data() + seg.offset, take);
        seg.offset += take;
        n += take;
        sock.pendingBytes -= take;
        if (seg.offset == seg.data.size())
            sock.rxBuf.pop_front();
    }
    _ctx.chargeKernelWork(120, 48, 12);
    // Window opened: wake a blocked sender.
    if (auto peer = sock.peer.lock())
        wakeup(peer.get());
    return int64_t(n);
}


int64_t
UserApi::sendHost(int fd, const void *buf, uint64_t len)
{
    return syscall([&]() -> int64_t {
        _kernel._ctx.chargeKernelBulk(len); // copyin from "user"
        auto sock = _kernel.socketOf(_proc, fd);
        if (!sock)
            return -1;
        return _kernel.socketSend(_proc, *sock,
                                  static_cast<const uint8_t *>(buf), len);
    });
}

int64_t
UserApi::recvHost(int fd, void *buf, uint64_t len)
{
    return syscall([&]() -> int64_t {
        auto sock = _kernel.socketOf(_proc, fd);
        if (!sock)
            return -1;
        int64_t n = _kernel.socketRecv(_proc, *sock,
                                       static_cast<uint8_t *>(buf), len);
        if (n > 0)
            _kernel._ctx.chargeKernelBulk(uint64_t(n));
        return n;
    });
}

int64_t
UserApi::readHost(int fd, void *buf, uint64_t len)
{
    return syscall([&]() -> int64_t {
        Kernel &k = _kernel;
        auto of = k.file(_proc, fd);
        if (!of)
            return -1;
        int64_t n;
        if (of->kind == OpenFile::Kind::Socket) {
            n = k.socketRecv(_proc, *of->sock, static_cast<uint8_t *>(buf),
                             len);
        } else {
            n = k._fs->read(of->ino, of->offset, buf, len);
            if (n >= 0)
                of->offset += uint64_t(n);
        }
        if (n > 0)
            k._ctx.chargeKernelBulk(uint64_t(n)); // copyout
        return n < 0 ? -1 : n;
    });
}

int64_t
Kernel::doSendfile(Process &proc, int out_fd, int in_fd, uint64_t len)
{
    auto out = socketOf(proc, out_fd);
    auto in = file(proc, in_fd);
    if (!out || !in || in->kind != OpenFile::Kind::File)
        return -1;

    // Zero-copy proof obligation: skipping the staging copy is safe
    // when kernel memory accesses are already sandboxed away from ghost
    // frames, or when no sandbox is in force at all (native). Without a
    // proof, the staging copy is charged. Either way the ring
    // descriptors carry lengths and the payload travels in the socket
    // segment.
    const sim::VgConfig &cfg = _ctx.config();
    bool zero_copy = !cfg.sandboxMemory || cfg.verifyMcode;

    std::vector<uint8_t> scratch(64 * 1024);
    uint64_t sent = 0;
    while (sent < len) {
        uint64_t want = std::min<uint64_t>(len - sent, scratch.size());
        int64_t got = _fs->read(in->ino, in->offset, scratch.data(),
                                want);
        if (got < 0)
            return sent ? int64_t(sent) : -1;
        if (got == 0)
            break; // EOF
        in->offset += uint64_t(got);
        _ctx.chargeKernelWork(90, 36, 9); // splice bookkeeping
        if (zero_copy)
            sim::StatSet::add(_hZeroCopySends);
        else
            _ctx.chargeKernelBulk(uint64_t(got)); // staging copy
        int64_t n = socketSend(proc, *out, scratch.data(), uint64_t(got));
        if (n < 0)
            return sent ? int64_t(sent) : -1;
        sent += uint64_t(n);
        if (uint64_t(n) < uint64_t(got))
            break;
    }
    return int64_t(sent);
}

int64_t
UserApi::sendfile(int out_fd, int in_fd, uint64_t len)
{
    return syscall([&] {
        if (auto hooked = _kernel.moduleDispatch(
                Sys::sendfile,
                {uint64_t(out_fd), uint64_t(in_fd), len, _proc.pid}))
            return *hooked;
        return _kernel.doSendfile(_proc, out_fd, in_fd, len);
    });
}

int
UserApi::select(const std::vector<int> &read_fds, uint64_t timeout_us)
{
    return syscall([&] {
        Kernel &k = _kernel;
        uint64_t deadline =
            k._ctx.clock().now() +
            sim::Cycles(double(timeout_us) * sim::Clock::cyclesPerUsec);
        while (true) {
            int ready = 0;
            std::vector<const void *> channels;
            for (int fd : read_fds) {
                // Per-descriptor poll work: this is what LMBench's
                // select benchmark measures.
                k._ctx.chargeKernelWork(28, 6, 1);
                auto of = k.file(_proc, fd);
                if (!of)
                    continue;
                if (of->kind == OpenFile::Kind::File) {
                    ready++;
                } else if (of->sock) {
                    if (of->sock->readReady())
                        ready++;
                    else
                        channels.push_back(of->sock.get());
                }
            }
            if (ready > 0 || timeout_us == 0 ||
                k._ctx.clock().now() >= deadline)
                return ready;
            _proc.multiWait = channels;
            k.blockCurrent(_proc, nullptr, deadline);
            _proc.multiWait.clear();
        }
    });
}

// --------------------------------------------------------------------
// Misc
// --------------------------------------------------------------------

int
UserApi::getpid()
{
    return syscall([&] {
        // The null syscall: the gate plus a trivial body.
        _kernel._ctx.chargeKernelWork(6, 2, 1);
        return int(_proc.pid);
    });
}

void
UserApi::compute(uint64_t insts)
{
    _kernel._ctx.chargeUserWork(insts);
    _kernel.preemptIfDue(_proc);
}

void
UserApi::yield()
{
    _kernel.yieldCurrent(_proc);
}

} // namespace vg::kern
