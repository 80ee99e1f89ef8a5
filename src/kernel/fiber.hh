/**
 * @file
 * Stackful fibers: what a simulated process runs on.
 *
 * Every simulated process runs on its own Fiber — a private mmap'd
 * stack — and the kernel scheduler switches between them on the one
 * host thread that called Kernel::run(). A switch is a call into a
 * hand-written register switch on x86-64 (a ucontext swapcontext
 * elsewhere), not a hand-off between OS threads, so the strict baton
 * (exactly one process executing at a time) holds by construction.
 */

#ifndef VG_KERNEL_FIBER_HH
#define VG_KERNEL_FIBER_HH

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <exception>
#include <functional>

namespace vg::kern
{

/**
 * One stackful fiber. resume() runs it until it calls suspend() or its
 * body returns. An exception escaping the body is caught on the fiber
 * and rethrown from the resume() that was running it.
 */
class Fiber
{
  public:
    /** Usable stack bytes: the pthread default. One PROT_NONE guard
     *  page sits below the stack, so an overflow faults instead of
     *  silently corrupting a neighbouring mapping. */
    static constexpr size_t stackBytes = size_t(8) << 20;

    explicit Fiber(std::function<void()> body);

    /** Unmaps the stack. A fiber destroyed before its body returned
     *  loses whatever its frames still owned (they are never unwound). */
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Switch into the fiber; returns when it suspends or finishes. */
    void resume();

    /** Called on the fiber: switch back to whoever resumed it. */
    void suspend();

    /** The body has returned; no frame is live on the stack. */
    bool finished() const { return _finished; }

  private:
    /** First frame on the fiber: runs the body, never returns. */
    static void entry(Fiber *self);

    /** Lowest usable stack address (just above the guard page). */
    void *stackBottom() const;

    std::function<void()> _body;
    void *_map = nullptr; ///< guard page + stack
    size_t _mapBytes = 0;
#if defined(__x86_64__)
    void *_sp = nullptr;       ///< the fiber's saved stack pointer
    void *_callerSp = nullptr; ///< the resumer's saved stack pointer
#else
    static void entryHalves(unsigned hi, unsigned lo);
    ucontext_t _ctx{};
    ucontext_t _caller{};
#endif
    bool _finished = false;
    std::exception_ptr _error;

    // AddressSanitizer stack bookkeeping (unused without ASan).
    void *_fakeStack = nullptr;
    void *_callerFakeStack = nullptr;
    const void *_callerBottom = nullptr;
    size_t _callerSize = 0;
};

} // namespace vg::kern

#endif // VG_KERNEL_FIBER_HH
