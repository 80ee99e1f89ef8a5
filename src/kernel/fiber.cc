/**
 * @file
 * Fiber: mmap'd stacks, the register switch (ucontext off x86-64), and
 * the AddressSanitizer hooks every stack switch needs.
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

#if defined(__x86_64__)
// vg_fiber_switch(save_sp, load_sp): a System V call that saves what
// the callee must preserve -- rbp, rbx, r12-r15, the MXCSR and the x87
// control word -- on the current stack, stores rsp to *save_sp, loads
// load_sp, and restores the same set from there. The 64-byte frame
// (control word at rsp, MXCSR at rsp+8, r15..rbp above, then the return
// address) is what Fiber's constructor builds for a fiber's first run.
//
// vg_fiber_start: where a new fiber's first switch returns to. r12
// holds the Fiber and r13 the entry function; it aligns the stack for
// the call, and entry never returns. CFI marks the return address
// undefined so unwinders stop here.
asm(R"(
    .pushsection .text
    .p2align 4
    .globl vg_fiber_switch
    .hidden vg_fiber_switch
    .type vg_fiber_switch, @function
vg_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $16, %rsp
    stmxcsr 8(%rsp)
    fnstcw (%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr 8(%rsp)
    fldcw (%rsp)
    addq $16, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size vg_fiber_switch, .-vg_fiber_switch

    .p2align 4
    .globl vg_fiber_start
    .hidden vg_fiber_start
    .type vg_fiber_start, @function
vg_fiber_start:
    .cfi_startproc
    .cfi_undefined rip
    movq %r12, %rdi
    andq $-16, %rsp
    callq *%r13
    ud2
    .cfi_endproc
    .size vg_fiber_start, .-vg_fiber_start
    .popsection
)");

extern "C" {
void vg_fiber_switch(void **save_sp, void *load_sp);
void vg_fiber_start();
}
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

#if defined(__x86_64__)
    // The first switch in pops this frame: the resumer's control words,
    // then r15..rbp, then returns into vg_fiber_start.
    uint32_t mxcsr = 0;
    uint16_t fpucw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpucw));
    auto *top = reinterpret_cast<uint64_t *>(
        static_cast<char *>(stackBottom()) + stackBytes);
    uint64_t *frame = top - 9;
    frame[0] = fpucw;
    frame[1] = mxcsr;
    frame[2] = 0; // r15
    frame[3] = 0; // r14
    frame[4] = reinterpret_cast<uintptr_t>(&Fiber::entry); // r13
    frame[5] = reinterpret_cast<uintptr_t>(this);          // r12
    frame[6] = 0;                                          // rbx
    frame[7] = 0;                                          // rbp
    frame[8] = reinterpret_cast<uintptr_t>(&vg_fiber_start);
    _sp = frame;
#else
    if (getcontext(&_ctx) != 0)
        sim::fatal("fiber: getcontext failed");
    _ctx.uc_stack.ss_sp = stackBottom();
    _ctx.uc_stack.ss_size = stackBytes;
    _ctx.uc_link = nullptr; // entry() never returns
    // makecontext passes int-sized arguments: hand `this` over in halves.
    auto self = reinterpret_cast<uintptr_t>(this);
    makecontext(&_ctx, reinterpret_cast<void (*)()>(&Fiber::entryHalves),
                2, unsigned(self >> 32), unsigned(self));
#endif
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
#if defined(__x86_64__)
    vg_fiber_switch(&_callerSp, _sp);
#else
    swapcontext(&_caller, &_ctx);
#endif
    finishSwitch(_callerFakeStack, nullptr, nullptr);
    if (_error)
        std::rethrow_exception(std::exchange(_error, nullptr));
}

void
Fiber::suspend()
{
    startSwitch(&_fakeStack, _callerBottom, _callerSize);
#if defined(__x86_64__)
    vg_fiber_switch(&_sp, _callerSp);
#else
    swapcontext(&_ctx, &_caller);
#endif
    finishSwitch(_fakeStack, &_callerBottom, &_callerSize);
}

void
Fiber::entry(Fiber *self)
{
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
#if defined(__x86_64__)
    vg_fiber_switch(&self->_sp, self->_callerSp);
#else
    setcontext(&self->_caller);
#endif
    sim::panic("fiber: resumed after its body returned");
}

#if !defined(__x86_64__)
void
Fiber::entryHalves(unsigned hi, unsigned lo)
{
    entry(reinterpret_cast<Fiber *>((uintptr_t(hi) << 32) | lo));
}
#endif

} // namespace vg::kern
