#include "hw/zeroed_store.hh"

#include <sys/mman.h>

#include "sim/log.hh"

namespace vg::hw
{

ZeroedStore::ZeroedStore(uint64_t bytes) : _size(bytes)
{
    // MAP_NORESERVE: simulated RAM and disk are mostly never touched,
    // so reserve no swap for them up front.
    void *map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map == MAP_FAILED)
        sim::fatal("ZeroedStore: cannot map %lu bytes",
                   (unsigned long)bytes);
    _base = static_cast<uint8_t *>(map);
}

ZeroedStore::~ZeroedStore()
{
    munmap(_base, _size);
}

} // namespace vg::hw
