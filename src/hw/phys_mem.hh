/**
 * @file
 * Simulated physical memory.
 *
 * A flat array of 4 KB frames. PhysMem itself enforces nothing: the
 * protection story lives in the MMU (for CPU accesses), the IOMMU (for
 * DMA), and the kernel/SVA software layers above. This mirrors real
 * hardware, where RAM is dumb.
 */

#ifndef VG_HW_PHYS_MEM_HH
#define VG_HW_PHYS_MEM_HH

#include <cstdint>

#include "hw/layout.hh"
#include "hw/zeroed_store.hh"

namespace vg::hw
{

/** Byte-addressable simulated RAM. */
class PhysMem
{
  public:
    /** Construct with @p frames frames of 4 KB each. */
    explicit PhysMem(uint64_t frames);

    uint64_t numFrames() const { return _bytes.size() / pageSize; }
    uint64_t sizeBytes() const { return _bytes.size(); }

    /** True if @p pa addresses valid RAM. */
    bool valid(Paddr pa) const { return pa < _bytes.size(); }

    /** True if @p frame is a valid frame number. */
    bool validFrame(Frame frame) const { return frame < numFrames(); }

    uint8_t read8(Paddr pa) const;
    uint16_t read16(Paddr pa) const;
    uint32_t read32(Paddr pa) const;
    uint64_t read64(Paddr pa) const;

    void write8(Paddr pa, uint8_t v);
    void write16(Paddr pa, uint16_t v);
    void write32(Paddr pa, uint32_t v);
    void write64(Paddr pa, uint64_t v);

    /** Bulk copy out of RAM; panics on out-of-range. */
    void readBytes(Paddr pa, void *out, uint64_t len) const;

    /** Bulk copy into RAM; panics on out-of-range. */
    void writeBytes(Paddr pa, const void *in, uint64_t len);

    /** Zero an entire frame. */
    void zeroFrame(Frame frame);

    /** Raw pointer to a frame's storage (host-side fast path). */
    uint8_t *framePtr(Frame frame);

  private:
    void check(Paddr pa, uint64_t len) const;

    ZeroedStore _bytes;
};

} // namespace vg::hw

#endif // VG_HW_PHYS_MEM_HH
