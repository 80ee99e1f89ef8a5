/**
 * @file
 * Ghost-memory heap allocator.
 *
 * The paper modifies the FreeBSD C library so malloc()/calloc()/
 * realloc() place heap objects in ghost memory (S 6). GhostHeap is
 * that allocator's malloc/free: a first-fit free-list allocator whose
 * arena grows by
 * calling allocgm() through the UserApi. Returned addresses are ghost
 * virtual addresses; the owning application reads and writes them with
 * ghostRead()/ghostWrite() (user-privilege accesses), while the OS can
 * never see them.
 */

#ifndef VG_GHOST_GMALLOC_HH
#define VG_GHOST_GMALLOC_HH

#include <cstdint>
#include <map>

#include "kernel/kernel.hh"

namespace vg::ghost
{

/** First-fit ghost heap bound to one process. */
class GhostHeap
{
  public:
    explicit GhostHeap(kern::UserApi &api) : _api(api) {}

    /** Allocate @p bytes of ghost memory (16-byte aligned); 0 on
     *  failure. */
    hw::Vaddr gmalloc(uint64_t bytes);

    /** Free a block previously returned by gmalloc. */
    void gfree(hw::Vaddr va);

    /** Convenience typed/bulk access through the API. */
    bool write(hw::Vaddr va, const void *src, uint64_t len);
    bool read(hw::Vaddr va, void *dst, uint64_t len);

    /** Bytes currently allocated to the caller. */
    uint64_t bytesInUse() const { return _inUse; }

    /** Bytes of ghost arena obtained from the VM. */
    uint64_t arenaBytes() const { return _arena; }

    /** Size of the block at @p va (0 if not an allocation). */
    uint64_t blockSize(hw::Vaddr va) const;

  private:
    /** Grow the arena by at least @p bytes. */
    bool grow(uint64_t bytes);
    void coalesce();

    kern::UserApi &_api;
    /** Free blocks: start -> size. */
    std::map<hw::Vaddr, uint64_t> _free;
    /** Live allocations: start -> size. */
    std::map<hw::Vaddr, uint64_t> _live;
    uint64_t _inUse = 0;
    uint64_t _arena = 0;
};

} // namespace vg::ghost

#endif // VG_GHOST_GMALLOC_HH
