/**
 * @file
 * Virtual address-space layout (S 5 of the paper) and paging constants.
 *
 * The ghost memory partition occupies the unused 512 GB region
 * 0xffffff0000000000 - 0xffffff8000000000. The sandboxing
 * instrumentation ORs any kernel memory operand >= GHOST_BASE with
 * 2^39, which relocates ghost addresses into the (harmless) kernel
 * half without a branch-heavy bounds check.
 */

#ifndef VG_HW_LAYOUT_HH
#define VG_HW_LAYOUT_HH

#include <cstdint>

namespace vg::hw
{

/** Virtual and physical address types. */
using Vaddr = uint64_t;
using Paddr = uint64_t;

/** Physical frame number type. */
using Frame = uint64_t;

constexpr uint64_t pageSize = 4096;
constexpr uint64_t pageShift = 12;

/** End of user (traditional application) memory, exclusive. */
constexpr Vaddr userEnd = 0x0000800000000000ull;

/** Ghost partition: [ghostBase, ghostEnd). */
constexpr Vaddr ghostBase = 0xffffff0000000000ull;
constexpr Vaddr ghostEnd = 0xffffff8000000000ull;

/** Kernel half starts at the canonical upper boundary. */
constexpr Vaddr kernelBase = 0xffffff8000000000ull;

/**
 * SVA VM internal memory. The prototype leaves it inside the kernel
 * data segment and rewrites accesses to it to address 0 (S 5); we model
 * it as a dedicated kernel-half range.
 */
constexpr Vaddr svaBase = 0xffffffe000000000ull;
constexpr Vaddr svaEnd = 0xffffffe040000000ull;

/** The mask the sandboxing instrumentation ORs in: 2^39. */
constexpr uint64_t sandboxOrMask = uint64_t(1) << 39;

/** True if @p va lies in the ghost partition. */
constexpr bool
isGhostAddr(Vaddr va)
{
    return va >= ghostBase && va < ghostEnd;
}

/** True if @p va lies in SVA VM internal memory. */
constexpr bool
isSvaAddr(Vaddr va)
{
    return va >= svaBase && va < svaEnd;
}

/**
 * The load/store sandboxing transform (S 5), the single definition the
 * compiled SandboxAddr op, the executor and the kernel's sandboxed
 * accessors share: ghost-or-higher addresses are ORed with 2^39 so
 * they cannot land in [ghostBase, ghostEnd); a result inside SVA
 * internal memory is then rewritten to 0. The SVA check runs after
 * the OR, so ghost addresses the OR carries into SVA memory are
 * zeroed too. Branch-free, like the 13-instruction sequence it models.
 */
constexpr Vaddr
sandboxAddress(Vaddr va)
{
    Vaddr masked = va | (Vaddr(va >= ghostBase) * sandboxOrMask);
    return masked * Vaddr(!isSvaAddr(masked));
}

/** Page number of a virtual address. */
constexpr Vaddr
pageOf(Vaddr va)
{
    return va & ~(pageSize - 1);
}

/** Offset within a page. */
constexpr uint64_t
pageOffset(Vaddr va)
{
    return va & (pageSize - 1);
}

} // namespace vg::hw

#endif // VG_HW_LAYOUT_HH
