#include "fleet/fabric.hh"

#include <algorithm>

#include "sim/clock.hh"
#include "sim/log.hh"

namespace vg::fleet
{

namespace
{

/** LB node sizing: a switch-class box, not a server — a small frame
 *  pool is plenty for descriptor staging. */
constexpr uint64_t lbNodeFrames = 512;

} // namespace

Fabric::Fabric(unsigned machines, const kern::SystemConfig &config)
{
    // The LB node runs a single-queue context with the same protection
    // config (its clock costs mirror a machine's NIC path).
    sim::VgConfig lb_vg = config.vg;
    lb_vg.vcpus = 1;
    _lbCtx = std::make_unique<sim::SimContext>(lb_vg);
    _lbMem = std::make_unique<hw::PhysMem>(lbNodeFrames);
    _lbIommu = std::make_unique<hw::Iommu>(*_lbMem, *_lbCtx);

    _machines.reserve(machines);
    _lbNics.reserve(machines);
    _machNics.reserve(machines);
    for (unsigned m = 0; m < machines; m++) {
        _machines.push_back(std::make_unique<Machine>(config));
        Machine &mach = *_machines.back();
        _lbNics.push_back(std::make_unique<hw::Nic>(
            *_lbIommu, *_lbCtx, "fabric-lb"));
        _machNics.push_back(std::make_unique<hw::Nic>(
            mach.sys().iommu(), mach.sys().ctx(), "fabric"));
        _lbNics.back()->connectTo(_machNics.back().get());
        _machNics.back()->connectTo(_lbNics.back().get());
    }
    _linkDown.assign(machines, 0);
    _framesTo.assign(machines, 0);
    _framesFrom.assign(machines, 0);

    _interleaver = std::make_unique<sim::SeededInterleaver>(
        config.vg.seed, machines);
}

void
Fabric::bootAll()
{
    for (auto &m : _machines)
        m->boot();
}

double
Fabric::ringSend(hw::Nic &tx, sim::SimContext &tx_ctx,
                 const std::vector<uint8_t> &frame)
{
    // Fabric framing: an 8-byte little-endian payload length, then
    // the payload, chunked at the NIC MTU. The receive side
    // reassembles packets until the header's length is satisfied, so
    // one logical fabric frame survives any MTU.
    std::vector<uint8_t> wireframe(8 + frame.size());
    for (int i = 0; i < 8; i++)
        wireframe[size_t(i)] = uint8_t(frame.size() >> (8 * i));
    std::copy(frame.begin(), frame.end(), wireframe.begin() + 8);

    // Post one descriptor per MTU chunk, one doorbell for the batch —
    // the device ring protocol, across the fabric. A frame larger than
    // the ring doorbells each full ring's worth, reaps and goes on.
    uint64_t t0 = tx_ctx.clock().now();
    uint64_t ready = 0;
    uint64_t off = 0;
    do {
        uint64_t n =
            std::min<uint64_t>(wireframe.size() - off, hw::Nic::mtu);
        hw::RingDesc d;
        d.cookie = off;
        d.host = wireframe.data() + off;
        d.len = uint32_t(n);
        if (!tx.txPost(d)) {
            ready = std::max(ready, tx.txDoorbell());
            tx.txReapAll();
            if (!tx.txPost(d))
                sim::panic("Fabric: TX ring still full after a drain");
        }
        off += n;
    } while (off < wireframe.size());
    ready = std::max(ready, tx.txDoorbell());
    tx.txReapAll();
    uint64_t now = tx_ctx.clock().now();
    uint64_t wire = ready > std::max(t0, now) ? ready - std::max(t0, now)
                                              : 0;
    return double(wire) / sim::Clock::cyclesPerUsec;
}

std::vector<uint8_t>
Fabric::ringReceive(hw::Nic &rx)
{
    // Reassemble one logical frame: packets arrive in order, the
    // first begins with the 8-byte length header.
    std::vector<uint8_t> acc = rx.receive();
    if (acc.size() < 8)
        return {};
    uint64_t want = 0;
    for (int i = 0; i < 8; i++)
        want |= uint64_t(acc[size_t(i)]) << (8 * i);
    while (acc.size() < 8 + want) {
        std::vector<uint8_t> next = rx.receive();
        if (next.empty())
            return {}; // truncated mid-frame: drop
        acc.insert(acc.end(), next.begin(), next.end());
    }
    return std::vector<uint8_t>(acc.begin() + 8, acc.end());
}

double
Fabric::sendToMachine(unsigned m, const std::vector<uint8_t> &frame)
{
    if (_linkDown[m])
        return -1.0;
    double us = ringSend(*_lbNics[m], *_lbCtx, frame);
    if (us >= 0)
        _framesTo[m]++;
    return us;
}

double
Fabric::sendToLb(unsigned m, const std::vector<uint8_t> &frame)
{
    if (_linkDown[m])
        return -1.0;
    double us =
        ringSend(*_machNics[m], _machines[m]->sys().ctx(), frame);
    if (us >= 0)
        _framesFrom[m]++;
    return us;
}

std::vector<uint8_t>
Fabric::receiveAtMachine(unsigned m)
{
    return ringReceive(*_machNics[m]);
}

std::vector<uint8_t>
Fabric::receiveAtLb(unsigned m)
{
    return ringReceive(*_lbNics[m]);
}

bool
Fabric::pingMachine(unsigned m)
{
    if (_linkDown[m])
        return false;
    static const std::vector<uint8_t> probe = {'p', 'i', 'n', 'g'};
    if (sendToMachine(m, probe) < 0)
        return false;
    std::vector<uint8_t> got = receiveAtMachine(m);
    if (got != probe)
        return false;
    if (sendToLb(m, got) < 0)
        return false;
    return receiveAtLb(m) == got;
}

} // namespace vg::fleet
