/**
 * @file
 * Fiber: mmap'd stacks, ucontext switches, and the AddressSanitizer
 * hooks every stack switch needs.
 */

#include "kernel/fiber.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>

#include "sim/log.hh"

#if defined(__SANITIZE_ADDRESS__)
#define VG_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VG_FIBER_ASAN 1
#endif
#endif

#ifdef VG_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace vg::kern
{

namespace
{

// ASan tracks which stack is live — it unpoisons that stack when an
// exception unwinds and keeps each stack's fake frames apart — so every
// switch is bracketed by these two calls. Without ASan they vanish.

void
startSwitch([[maybe_unused]] void **fake_stack_save,
            [[maybe_unused]] const void *bottom,
            [[maybe_unused]] size_t size)
{
#ifdef VG_FIBER_ASAN
    __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

void
finishSwitch([[maybe_unused]] void *fake_stack_save,
             [[maybe_unused]] const void **bottom_old,
             [[maybe_unused]] size_t *size_old)
{
#ifdef VG_FIBER_ASAN
    __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

size_t
guardBytes()
{
    static const size_t page = size_t(sysconf(_SC_PAGESIZE));
    return page;
}

} // namespace

Fiber::Fiber(std::function<void()> body) : _body(std::move(body))
{
    _mapBytes = guardBytes() + stackBytes;
    // MAP_NORESERVE: as with a thread stack, only touched pages are
    // backed.
    void *map = mmap(nullptr, _mapBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                         MAP_STACK,
                     -1, 0);
    if (map == MAP_FAILED)
        sim::fatal("fiber: cannot map a %zu-byte stack", _mapBytes);
    _map = map;
    // The stack grows down, so the guard is the lowest page.
    if (mprotect(_map, guardBytes(), PROT_NONE) != 0)
        sim::fatal("fiber: cannot protect the stack guard page");

    if (getcontext(&_ctx) != 0)
        sim::fatal("fiber: getcontext failed");
    _ctx.uc_stack.ss_sp = stackBottom();
    _ctx.uc_stack.ss_size = stackBytes;
    _ctx.uc_link = nullptr; // entry() never returns
    // makecontext passes int-sized arguments: hand `this` over in halves.
    auto self = reinterpret_cast<uintptr_t>(this);
    makecontext(&_ctx, reinterpret_cast<void (*)()>(&Fiber::entry), 2,
                unsigned(self >> 32), unsigned(self));
}

Fiber::~Fiber()
{
#ifdef VG_FIBER_ASAN
    // Frames still live on an unfinished fiber leave poisoned redzones
    // in the shadow; clear them before the range can be mapped again.
    ASAN_UNPOISON_MEMORY_REGION(stackBottom(), stackBytes);
#endif
    munmap(_map, _mapBytes);
}

void *
Fiber::stackBottom() const
{
    return static_cast<char *>(_map) + guardBytes();
}

void
Fiber::resume()
{
    startSwitch(&_callerFakeStack, stackBottom(), stackBytes);
    swapcontext(&_caller, &_ctx);
    finishSwitch(_callerFakeStack, nullptr, nullptr);
    if (_error)
        std::rethrow_exception(std::exchange(_error, nullptr));
}

void
Fiber::suspend()
{
    startSwitch(&_fakeStack, _callerBottom, _callerSize);
    swapcontext(&_ctx, &_caller);
    finishSwitch(_fakeStack, &_callerBottom, &_callerSize);
}

void
Fiber::entry(unsigned hi, unsigned lo)
{
    auto *self = reinterpret_cast<Fiber *>((uintptr_t(hi) << 32) | lo);
    finishSwitch(nullptr, &self->_callerBottom, &self->_callerSize);
    try {
        self->_body();
    } catch (...) {
        self->_error = std::current_exception();
    }
    self->_finished = true;
    // Leaving for good: a null save slot lets ASan free this fiber's
    // fake stack.
    startSwitch(nullptr, self->_callerBottom, self->_callerSize);
    setcontext(&self->_caller);
    sim::panic("fiber: setcontext failed");
}

} // namespace vg::kern
