/**
 * @file
 * Physical frame allocator.
 *
 * The OS owns physical memory (Virtual Ghost deliberately leaves
 * resource management to the untrusted kernel); ghost frames are
 * *donated* to the SVA VM through its frame-provider callback and
 * come back through the receiver.
 *
 * Frames are reused LIFO: the most recently freed frame (already
 * scrubbed by the VM on its way back) is the next one handed out, so a
 * machine's host working set stays the size of its simulated working
 * set instead of walking all of RAM. No simulated cost reads a frame
 * number, so the policy is invisible to the simulation.
 */

#ifndef VG_KERNEL_KALLOC_HH
#define VG_KERNEL_KALLOC_HH

#include <optional>
#include <vector>

#include "hw/layout.hh"
#include "sim/context.hh"

namespace vg::kern
{

/** LIFO free-stack frame allocator. */
class FrameAllocator
{
  public:
    /** Manage frames [first, first+count). */
    FrameAllocator(hw::Frame first, uint64_t count,
                   sim::SimContext &ctx)
        : _ctx(ctx)
    {
        // Descending, so a fresh allocator pops first, first+1, ...
        _free.reserve(count);
        for (uint64_t i = count; i-- > 0;)
            _free.push_back(first + i);
        _total = count;
    }

    /** Allocate the most recently freed frame (the lowest untouched
     *  one on a fresh allocator); nullopt when exhausted. */
    std::optional<hw::Frame>
    alloc()
    {
        _ctx.chargeKernelWork(12, 4, 1);
        if (_free.empty())
            return std::nullopt;
        hw::Frame f = _free.back();
        _free.pop_back();
        return f;
    }

    /** Return a frame to the pool. */
    void
    free(hw::Frame f)
    {
        _ctx.chargeKernelWork(8, 3, 1);
        _free.push_back(f);
    }

    uint64_t freeCount() const { return _free.size(); }
    uint64_t totalCount() const { return _total; }

  private:
    sim::SimContext &_ctx;
    std::vector<hw::Frame> _free; ///< top of stack = next frame out
    uint64_t _total = 0;
};

} // namespace vg::kern

#endif // VG_KERNEL_KALLOC_HH
