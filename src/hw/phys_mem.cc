#include "hw/phys_mem.hh"

#include <cstring>

#include "sim/log.hh"

namespace vg::hw
{

namespace
{

uint64_t
ramBytes(uint64_t frames)
{
    if (frames == 0)
        sim::fatal("PhysMem: must have at least one frame");
    return frames * pageSize;
}

} // namespace

PhysMem::PhysMem(uint64_t frames) : _bytes(ramBytes(frames)) {}

void
PhysMem::check(Paddr pa, uint64_t len) const
{
    if (pa + len > _bytes.size() || pa + len < pa)
        sim::panic("PhysMem access out of range: pa=%#lx len=%#lx",
                   (unsigned long)pa, (unsigned long)len);
}

uint8_t
PhysMem::read8(Paddr pa) const
{
    check(pa, 1);
    return _bytes[pa];
}

uint16_t
PhysMem::read16(Paddr pa) const
{
    check(pa, 2);
    uint16_t v;
    std::memcpy(&v, &_bytes[pa], 2);
    return v;
}

uint32_t
PhysMem::read32(Paddr pa) const
{
    check(pa, 4);
    uint32_t v;
    std::memcpy(&v, &_bytes[pa], 4);
    return v;
}

uint64_t
PhysMem::read64(Paddr pa) const
{
    check(pa, 8);
    uint64_t v;
    std::memcpy(&v, &_bytes[pa], 8);
    return v;
}

void
PhysMem::write8(Paddr pa, uint8_t v)
{
    check(pa, 1);
    _bytes[pa] = v;
}

void
PhysMem::write16(Paddr pa, uint16_t v)
{
    check(pa, 2);
    std::memcpy(&_bytes[pa], &v, 2);
}

void
PhysMem::write32(Paddr pa, uint32_t v)
{
    check(pa, 4);
    std::memcpy(&_bytes[pa], &v, 4);
}

void
PhysMem::write64(Paddr pa, uint64_t v)
{
    check(pa, 8);
    std::memcpy(&_bytes[pa], &v, 8);
}

void
PhysMem::readBytes(Paddr pa, void *out, uint64_t len) const
{
    if (len == 0)
        return;
    check(pa, len);
    std::memcpy(out, &_bytes[pa], len);
}

void
PhysMem::writeBytes(Paddr pa, const void *in, uint64_t len)
{
    if (len == 0)
        return;
    check(pa, len);
    std::memcpy(&_bytes[pa], in, len);
}

void
PhysMem::zeroFrame(Frame frame)
{
    if (!validFrame(frame))
        sim::panic("PhysMem::zeroFrame: bad frame %lu",
                   (unsigned long)frame);
    std::memset(&_bytes[frame * pageSize], 0, pageSize);
}

uint8_t *
PhysMem::framePtr(Frame frame)
{
    if (!validFrame(frame))
        sim::panic("PhysMem::framePtr: bad frame %lu",
                   (unsigned long)frame);
    return &_bytes[frame * pageSize];
}

} // namespace vg::hw
