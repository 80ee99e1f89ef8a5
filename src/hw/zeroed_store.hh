/**
 * @file
 * Demand-zero host backing for simulated RAM and disk.
 *
 * One private anonymous mapping per store. The host kernel hands out
 * zero pages on first touch, so construction is O(1) whatever the size
 * and only the pages the simulation writes or reads ever become
 * resident. Every byte reads as zero until it is written, exactly as a
 * zero-filled vector would.
 */

#ifndef VG_HW_ZEROED_STORE_HH
#define VG_HW_ZEROED_STORE_HH

#include <cstdint>

namespace vg::hw
{

/** A fixed-size, zero-initialised byte array backed by mmap. */
class ZeroedStore
{
  public:
    /** Map @p bytes zero bytes (> 0); a failed mapping is fatal. */
    explicit ZeroedStore(uint64_t bytes);
    ~ZeroedStore();

    ZeroedStore(const ZeroedStore &) = delete;
    ZeroedStore &operator=(const ZeroedStore &) = delete;

    uint64_t size() const { return _size; }

    uint8_t &operator[](uint64_t i) { return _base[i]; }
    const uint8_t &operator[](uint64_t i) const { return _base[i]; }

  private:
    uint8_t *_base;
    uint64_t _size;
};

} // namespace vg::hw

#endif // VG_HW_ZEROED_STORE_HH
