/**
 * @file
 * Process, open-file and socket structures for the mini-FreeBSD kernel.
 */

#ifndef VG_KERNEL_PROC_HH
#define VG_KERNEL_PROC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hw/layout.hh"
#include "kernel/fiber.hh"
#include "kernel/fs.hh"

namespace vg::kern
{

class UserApi;

/** Process lifecycle states. A process is created Runnable (and
 *  stays so while it runs); waitpid erases a Zombie from the process
 *  table. */
enum class ProcState
{
    Runnable,
    Blocked,
    Zombie,
};

/** One in-flight or delivered stream segment. A segment becomes
 *  readable once simulated time reaches readyAt (the wire is modelled
 *  as a pipelined link: senders only spend CPU time; receivers wait
 *  for arrival, overlapping other work meanwhile). */
struct Segment
{
    std::vector<uint8_t> data;
    uint64_t offset = 0;  ///< bytes already consumed
    uint64_t readyAt = 0; ///< simulated arrival time (cycles)
};

/** A TCP-lite socket endpoint. */
struct Socket
{
    enum class State
    {
        Closed,
        Listening,
        Connected,
    };

    State state = State::Closed;
    uint16_t localPort = 0;

    /** Connection-table id (nonzero once the established connection is
     *  registered; ids are recycled through a free-list so the table
     *  stays dense under thousands of churn-heavy connections). */
    uint64_t connId = 0;

    /** Pending connections on a listening socket. */
    std::deque<std::shared_ptr<Socket>> acceptQueue;

    /** Received / in-flight stream segments. */
    std::deque<Segment> rxBuf;

    /** Bytes buffered (including in flight) for flow control. */
    uint64_t pendingBytes = 0;

    /** Connected peer (weak to break the cycle). */
    std::weak_ptr<Socket> peer;

    /** Flow steering (aRFS): the vCPU whose softirq queue should take
     *  RX-completion bottom halves for this socket. The reader sets it
     *  to its home CPU before blocking so wakes land locally. */
    unsigned irqSteer = 0;

    bool peerClosed = false;

    bool
    readReady() const
    {
        if (state == State::Listening)
            return !acceptQueue.empty();
        return !rxBuf.empty() || peerClosed;
    }
};

/** An open file description (shared across fds after fork/dup). */
struct OpenFile
{
    enum class Kind
    {
        File,
        Socket,
    };

    Kind kind = Kind::File;
    Ino ino = 0;
    uint64_t offset = 0;
    std::shared_ptr<Socket> sock;
};

/** A contiguous user address-space reservation. */
struct VmArea
{
    hw::Vaddr start = 0;
    uint64_t npages = 0;
    /** File backing (mmap of a file); 0 = anonymous demand-zero. */
    Ino backingIno = 0;
    uint64_t backingOff = 0;
};

/** Record of one installTable() so teardown can retire the chain. */
struct TableLink
{
    hw::Frame parent = 0;
    int parentLevel = 0;
    hw::Vaddr va = 0;
    hw::Frame child = 0;
};

/** One process. */
class Process
{
  public:
    uint64_t pid = 0;
    uint64_t tid = 0; ///< SVA thread id
    uint64_t parent = 0;
    std::string name;
    ProcState state{ProcState::Runnable};
    int exitCode = 0;
    bool killRequested = false;

    /** Home vCPU: the CPU this process is dispatched on (idle
     *  balancing may migrate it). Always 0 on single-CPU machines. */
    unsigned cpu = 0;

    /** Causal wake stamp: the waker's clock when this process became
     *  Runnable. The home CPU's clock advances to at least this value
     *  before the process resumes (no-op when vcpus == 1). */
    uint64_t readyStamp = 0;

    /** Address-space root (L4) frame and owned table links. */
    hw::Frame rootFrame = 0;
    std::vector<TableLink> ptLinks;

    /** One materialized user page. */
    struct UserPage
    {
        hw::Frame frame = 0;
        bool cow = false; ///< shared copy-on-write after fork
    };

    /** Materialized user pages: va -> page state. */
    std::map<hw::Vaddr, UserPage> userPages;

    /** Reserved areas (mmap/stack/heap), keyed by start va. */
    std::map<hw::Vaddr, VmArea> areas;
    hw::Vaddr mmapCursor = 0x0000100000000000ull;

    /** Ghost allocation cursor within the ghost partition. */
    hw::Vaddr ghostCursor = hw::ghostBase;

    /** File descriptor table. */
    std::map<int, std::shared_ptr<OpenFile>> fds;
    int nextFd = 3;

    /** signum -> handler token (user "text" address). */
    std::map<int, uint64_t> sigHandlers;

    /** handler token -> host function implementing the handler. */
    std::map<uint64_t, std::function<void(int)>> handlerFns;
    uint64_t nextHandlerToken = 0x0000000000401000ull;

    /** Application main, run on the process's fiber. */
    std::function<int(UserApi &)> mainFn;

    // --- scheduling ----------------------------------------------------
    /** The stack the process runs on; released as soon as the process
     *  has run its exit path. */
    std::unique_ptr<Fiber> fiber;
    const void *waitChannel = nullptr;
    /** Additional channels (select() waits on several sockets). */
    std::vector<const void *> multiWait;
    /** Nonzero: wake at this simulated time even without a wakeup(). */
    uint64_t wakeTime = 0;

    /** Staging buffer of file read()/write(): kept across calls so a
     *  call does not allocate, and per process so none shares one. */
    std::vector<uint8_t> fileStage;

    bool
    alive() const
    {
        return state != ProcState::Zombie;
    }

    /** Open the next free descriptor on file @p ino, or on @p sock
     *  when one is given; returns the descriptor. */
    int
    addFd(Ino ino, std::shared_ptr<Socket> sock = nullptr)
    {
        auto of = std::make_shared<OpenFile>();
        of->kind = sock ? OpenFile::Kind::Socket : OpenFile::Kind::File;
        of->ino = ino;
        of->sock = std::move(sock);
        int fd = nextFd++;
        fds[fd] = std::move(of);
        return fd;
    }

    /** Reserve @p npages at the mmap cursor, followed by an unmapped
     *  guard page, backed by @p ino (0 = anonymous demand-zero).
     *  Returns the start va. */
    hw::Vaddr
    reserveArea(uint64_t npages, Ino ino = 0)
    {
        hw::Vaddr va = mmapCursor;
        mmapCursor += (npages + 1) * hw::pageSize;
        areas[va] = {va, npages, ino, 0};
        return va;
    }
};

} // namespace vg::kern

#endif // VG_KERNEL_PROC_HH
