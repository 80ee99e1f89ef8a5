#include "hw/nic.hh"

#include "sim/log.hh"

namespace vg::hw
{

Nic::Nic(Iommu &iommu, sim::SimContext &ctx, const char *name)
    : _iommu(iommu), _ctx(ctx), _linkFreeAt(ctx.vcpuCount(), 0),
      _tx(ringSlots), _rx_ring(ringSlots),
      _irq(std::string(name) + ".irq"),
      _hTxPackets(ctx.stats().handle("nic.tx_packets")),
      _hTxBytes(ctx.stats().handle("nic.tx_bytes")),
      _hRxPackets(ctx.stats().handle("nic.rx_packets")),
      _hRingBlocked(ctx.stats().handle("nic.ring_blocked_dma")),
      _hStale(ctx.stats().handle("nic.stale_completions"))
{}

uint64_t
Nic::wireSchedule(uint64_t bytes)
{
    // Wire time is serialized per TX queue, overlapping CPU work.
    // Each vCPU owns its own queue (multi-queue NIC), so senders on
    // different CPUs do not serialize against each other.
    uint64_t &link_free =
        _linkFreeAt[_ctx.activeCpu() % _linkFreeAt.size()];
    uint64_t wire = (bytes * _ctx.costs().nicCyclesPer64Bytes) / 64 + 1;
    uint64_t start = std::max<uint64_t>(_ctx.clock().now(), link_free);
    link_free = start + wire;
    return link_free;
}

uint64_t
Nic::send(const std::vector<uint8_t> &packet)
{
    if (packet.size() > mtu)
        sim::panic("Nic::send: packet larger than MTU (%zu)",
                   packet.size());
    if (!_peer)
        sim::panic("Nic::send: no peer connected");

    // CPU cost: descriptor setup / doorbell only.
    _ctx.clock().advance(_ctx.costs().nicPerPacket);

    uint64_t arrival = wireSchedule(packet.size());
    sim::StatSet::add(_hTxPackets);
    sim::StatSet::add(_hTxBytes, packet.size());
    _sent++;
    _peer->deliver(packet);
    return arrival;
}

bool
Nic::txPost(const RingDesc &d)
{
    if (d.len > mtu)
        sim::panic("Nic::txPost: descriptor larger than MTU (%u)",
                   unsigned(d.len));
    if (!_tx.post(d))
        return false;
    _ctx.clock().advance(_ctx.costs().ringDescriptor);
    return true;
}

uint64_t
Nic::txDoorbell()
{
    if (!_peer)
        sim::panic("Nic::txDoorbell: no peer connected");
    _ctx.clock().advance(_ctx.costs().ringDoorbell);
    uint64_t last = 0;
    _tx.processPosted([&](DescRing::Entry &e) {
        std::vector<uint8_t> packet(e.desc.len, 0);
        if (e.desc.useDma) {
            // Every ring slot's DMA goes through the IOMMU: a hostile
            // OS pointing a descriptor at a ghost frame is blocked
            // here, and the slot completes with an error.
            if (!_iommu.dmaRead(e.desc.pa, packet.data(), e.desc.len)) {
                e.error = true;
                e.doneAt = _ctx.clock().now();
                e.state = DescRing::Slot::Done;
                _ringBlocked++;
                sim::StatSet::add(_hRingBlocked);
                return true;
            }
        } else if (e.desc.host) {
            std::copy(e.desc.host, e.desc.host + e.desc.len,
                      packet.begin());
        }
        e.doneAt = wireSchedule(packet.size());
        e.state = DescRing::Slot::Done;
        sim::StatSet::add(_hTxPackets);
        sim::StatSet::add(_hTxBytes, packet.size());
        _sent++;
        _peer->deliver(std::move(packet));
        last = e.doneAt;
        return true;
    });
    // MSI-X steering: the interrupt lands on the doorbelling vCPU.
    _irq.wireTo(_ctx.activeCpu());
    if (uint64_t at = _tx.earliestDone())
        _irq.raise(at);
    return last;
}

bool
Nic::txReapAt(uint32_t index, uint32_t gen)
{
    if (_tx.reapAt(index, gen))
        return true;
    _stale++;
    sim::StatSet::add(_hStale);
    return false;
}

bool
Nic::rxPost(const RingDesc &d)
{
    if (!_rx_ring.post(d))
        return false;
    _ctx.clock().advance(_ctx.costs().ringDescriptor);
    return true;
}

uint64_t
Nic::rxDoorbell()
{
    _ctx.clock().advance(_ctx.costs().ringDoorbell);
    uint64_t last = 0;
    _rx_ring.processPosted([&](DescRing::Entry &e) {
        if (_rx.empty())
            return false; // keep the buffer posted for later packets
        const std::vector<uint8_t> &p = _rx.front();
        uint64_t n = std::min<uint64_t>(p.size(), e.desc.len);
        if (e.desc.useDma &&
            !_iommu.dmaWrite(e.desc.pa, p.data(), n)) {
            e.error = true;
            e.doneAt = _ctx.clock().now();
            e.state = DescRing::Slot::Done;
            _ringBlocked++;
            sim::StatSet::add(_hRingBlocked);
            _rx.pop_front();
            return true;
        }
        if (!e.desc.useDma && e.desc.hostOut)
            std::copy(p.begin(), p.begin() + long(n), e.desc.hostOut);
        e.doneAt = _ctx.clock().now();
        e.state = DescRing::Slot::Done;
        _rx.pop_front();
        last = e.doneAt;
        return true;
    });
    _irq.wireTo(_ctx.activeCpu());
    if (uint64_t at = _rx_ring.earliestDone())
        _irq.raise(at);
    return last;
}

void
Nic::deliver(std::vector<uint8_t> packet)
{
    _rx.push_back(std::move(packet));
    _received++;
    sim::StatSet::add(_hRxPackets);
}

std::vector<uint8_t>
Nic::receive()
{
    if (_rx.empty())
        return {};
    std::vector<uint8_t> p = std::move(_rx.front());
    _rx.pop_front();
    return p;
}

} // namespace vg::hw
