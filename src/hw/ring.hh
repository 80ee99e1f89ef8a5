/**
 * @file
 * Virtio-style descriptor rings and device interrupt lines.
 *
 * A DescRing is the shared shape of the async device protocol: the
 * driver *posts* descriptors into ring slots, *doorbells* the device
 * (one trusted-boundary crossing per batch, not per request), the
 * device moves data and marks slots *done* with a completion
 * timestamp, and the driver *reaps* completions — normally in doorbell
 * order, but slots carry a generation counter so a hostile OS
 * replaying a stale completion index is detected rather than
 * double-freeing a slot.
 *
 * Data held in a descriptor is either a physical address (useDma), in
 * which case every access goes through the IOMMU — a descriptor aimed
 * at a ghost frame is blocked and counted — or a kernel host buffer,
 * the simulator's stand-in for a bcache page handed to the device
 * without an intermediate copy.
 *
 * An IrqLine is the device-to-CPU interrupt wiring: raised at the
 * earliest pending completion time, steered (MSI-X style) to the vCPU
 * that rang the doorbell, and acknowledged by the softirq bottom half
 * that reaps the ring.
 */

#ifndef VG_HW_RING_HH
#define VG_HW_RING_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "hw/phys_mem.hh"

namespace vg::hw
{

/** One device interrupt line, wired into a vCPU. */
class IrqLine
{
  public:
    explicit IrqLine(std::string name) : _name(std::move(name)) {}

    /** Steer the line at vCPU @p cpu (MSI-X affinity). */
    void wireTo(unsigned cpu) { _cpu = cpu; }
    unsigned cpu() const { return _cpu; }

    /** Assert the line for a completion due at @p at (keeps the
     *  earliest pending time if already raised). */
    void
    raise(uint64_t at)
    {
        if (!_pending || at < _pendingAt)
            _pendingAt = at;
        _pending = true;
        _raises++;
    }

    /** Deassert (bottom half has reaped the ring). */
    void
    ack()
    {
        _pending = false;
        _pendingAt = 0;
    }

    bool pending() const { return _pending; }
    uint64_t pendingAt() const { return _pendingAt; }
    uint64_t raises() const { return _raises; }
    const std::string &name() const { return _name; }

  private:
    std::string _name;
    unsigned _cpu = 0;
    bool _pending = false;
    uint64_t _pendingAt = 0;
    uint64_t _raises = 0;
};

/** What the driver posts into a ring slot. */
struct RingDesc
{
    uint64_t cookie = 0;         ///< driver tag echoed in the completion
    Paddr pa = 0;                ///< DMA address (useDma descriptors)
    const uint8_t *host = nullptr; ///< kernel buffer (zero-copy path)
    uint8_t *hostOut = nullptr;  ///< kernel buffer for device->host moves
    uint32_t len = 0;
    uint64_t block = 0;          ///< disk request queues only
    bool write = false;          ///< disk request queues only
    bool useDma = false;
};

/** A reaped completion. */
struct RingCompletion
{
    uint64_t cookie = 0;
    uint64_t doneAt = 0;   ///< cycle the request finishes on the device
    bool error = false;    ///< IOMMU blocked the slot's DMA
    uint32_t index = 0;    ///< slot index (replay-detection handle)
    uint32_t gen = 0;      ///< slot generation at completion
};

/** Descriptor slots per device ring (NIC TX and RX, disk request
 *  queue). Posting to a full ring fails (DescRing::post returns
 *  false); the driver must doorbell and reap to free slots. */
constexpr unsigned ringSlots = 256;

/** Fixed-size descriptor ring with doorbell/completion protocol. */
class DescRing
{
  public:
    enum class Slot : uint8_t { Free, Posted, InFlight, Done };

    struct Entry
    {
        Slot state = Slot::Free;
        RingDesc desc;
        uint64_t doneAt = 0;
        bool error = false;
        uint32_t gen = 0;
    };

    explicit DescRing(unsigned size) : _slots(size ? size : 1) {}

    /** Post @p d at the head slot; false when the ring is full. */
    bool
    post(const RingDesc &d)
    {
        Entry &e = _slots[_head % _slots.size()];
        if (e.state != Slot::Free)
            return false;
        e.desc = d;
        e.state = Slot::Posted;
        e.error = false;
        _head++;
        return true;
    }

    /** Run the device over every posted slot. The callback fills
     *  doneAt/error and sets the state to Done, or returns false to
     *  stop and leave the slot posted (e.g. an RX buffer with no
     *  packet to fill yet). */
    template <typename Fn>
    void
    processPosted(Fn &&complete)
    {
        while (_doorbell != _head) {
            Entry &e = _slots[_doorbell % _slots.size()];
            e.state = Slot::InFlight;
            if (!complete(e)) {
                e.state = Slot::Posted;
                break;
            }
            if (e.state == Slot::Done)
                _done.push_back(RingCompletion{
                    e.desc.cookie, e.doneAt, e.error,
                    uint32_t(_doorbell % _slots.size()), e.gen});
            _doorbell++;
        }
    }

    /** Drain every completion in doorbell order, freeing the slots.
     *  Slots already freed by an out-of-order reapAt() are skipped. */
    std::vector<RingCompletion>
    reapAll()
    {
        std::vector<RingCompletion> out(_done.begin(), _done.end());
        _done.clear();
        while (_tail != _doorbell) {
            Entry &e = _slots[_tail % _slots.size()];
            if (e.state == Slot::Done) {
                e.state = Slot::Free;
                e.gen++;
            } else if (e.state != Slot::Free) {
                break;
            }
            _tail++;
        }
        return out;
    }

    /**
     * Reap one completion by (index, generation) — the interface a
     * hostile OS abuses by replaying a stale pair. Returns false
     * (without touching the slot) when the pair does not name a
     * currently-Done slot.
     */
    bool
    reapAt(uint32_t index, uint32_t gen)
    {
        if (index >= _slots.size())
            return false;
        Entry &e = _slots[index];
        if (e.state != Slot::Done || e.gen != gen)
            return false;
        e.state = Slot::Free;
        e.gen++;
        // Its completion is delivered now, not again by reapAll().
        auto it = std::find_if(_done.begin(), _done.end(),
                               [&](const RingCompletion &c) {
                                   return c.index == index && c.gen == gen;
                               });
        if (it != _done.end())
            _done.erase(it);
        while (_tail != _doorbell &&
               _slots[_tail % _slots.size()].state == Slot::Free)
            _tail++;
        return true;
    }

    unsigned size() const { return unsigned(_slots.size()); }
    uint64_t head() const { return _head; }
    uint64_t tail() const { return _tail; }
    /** Descriptors posted or in flight (not yet reaped). */
    unsigned inFlight() const { return unsigned(_head - _tail); }
    bool full() const { return inFlight() >= _slots.size(); }
    const Entry &slot(uint32_t i) const { return _slots[i]; }
    uint64_t pendingCompletions() const { return _done.size(); }

    /** Earliest completion time among unreaped Done slots (0 if none). */
    uint64_t
    earliestDone() const
    {
        uint64_t at = 0;
        for (const RingCompletion &c : _done)
            if (at == 0 || c.doneAt < at)
                at = c.doneAt;
        return at;
    }

  private:
    std::vector<Entry> _slots;
    std::deque<RingCompletion> _done;
    uint64_t _head = 0;     ///< next slot the driver posts
    uint64_t _doorbell = 0; ///< first slot the device has not seen
    uint64_t _tail = 0;     ///< first slot not yet reaped
};

} // namespace vg::hw

#endif // VG_HW_RING_HH
