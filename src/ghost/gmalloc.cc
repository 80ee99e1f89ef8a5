#include "ghost/gmalloc.hh"

#include <algorithm>

namespace vg::ghost
{

namespace
{

constexpr uint64_t alignment = 16;

uint64_t
roundUp(uint64_t v, uint64_t to)
{
    return (v + to - 1) & ~(to - 1);
}

} // namespace

bool
GhostHeap::grow(uint64_t bytes)
{
    uint64_t npages =
        std::max<uint64_t>(16, roundUp(bytes, hw::pageSize) /
                                   hw::pageSize);
    hw::Vaddr va = _api.allocGhost(npages);
    if (va == 0)
        return false;
    _free[va] = npages * hw::pageSize;
    _arena += npages * hw::pageSize;
    coalesce();
    return true;
}

void
GhostHeap::coalesce()
{
    auto it = _free.begin();
    while (it != _free.end()) {
        auto next = std::next(it);
        if (next != _free.end() &&
            it->first + it->second == next->first) {
            it->second += next->second;
            _free.erase(next);
        } else {
            ++it;
        }
    }
}

hw::Vaddr
GhostHeap::gmalloc(uint64_t bytes)
{
    if (bytes == 0)
        bytes = 1;
    bytes = roundUp(bytes, alignment);

    for (int attempt = 0; attempt < 2; attempt++) {
        for (auto it = _free.begin(); it != _free.end(); ++it) {
            if (it->second < bytes)
                continue;
            hw::Vaddr va = it->first;
            uint64_t remaining = it->second - bytes;
            _free.erase(it);
            if (remaining > 0)
                _free[va + bytes] = remaining;
            _live[va] = bytes;
            _inUse += bytes;
            return va;
        }
        if (!grow(bytes))
            return 0;
    }
    return 0;
}

void
GhostHeap::gfree(hw::Vaddr va)
{
    auto it = _live.find(va);
    if (it == _live.end())
        return;
    _inUse -= it->second;
    _free[it->first] = it->second;
    _live.erase(it);
    coalesce();
}

uint64_t
GhostHeap::blockSize(hw::Vaddr va) const
{
    auto it = _live.find(va);
    return it == _live.end() ? 0 : it->second;
}

bool
GhostHeap::write(hw::Vaddr va, const void *src, uint64_t len)
{
    return _api.ghostWrite(va, src, len);
}

bool
GhostHeap::read(hw::Vaddr va, void *dst, uint64_t len)
{
    return _api.ghostRead(va, dst, len);
}

} // namespace vg::ghost
