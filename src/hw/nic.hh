/**
 * @file
 * Simulated gigabit NIC pair.
 *
 * Two endpoints joined by a full-duplex link; each send charges
 * per-packet and per-byte costs modelling the paper's dedicated GbE
 * test network. Packets are bounded at an MTU; the TCP-lite layer in
 * the kernel segments streams into packets.
 */

#ifndef VG_HW_NIC_HH
#define VG_HW_NIC_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "hw/iommu.hh"
#include "hw/ring.hh"
#include "sim/context.hh"

namespace vg::hw
{

/** One network endpoint. */
class Nic
{
  public:
    static constexpr uint64_t mtu = 1500;

    Nic(Iommu &iommu, sim::SimContext &ctx, const char *name = "nic");

    /** Attach the peer endpoint (call once on each side). */
    void connectTo(Nic *peer) { _peer = peer; }

    /** Transmit a packet (<= MTU bytes). The sender is charged only
     *  CPU (descriptor) time; wire time is booked on the link
     *  schedule and returned as the packet's arrival time, so
     *  transmission pipelines with computation. */
    uint64_t send(const std::vector<uint8_t> &packet);

    /** True if a received packet is waiting. */
    bool hasPacket() const { return !_rx.empty(); }

    /** Pop the next received packet (empty if none). */
    std::vector<uint8_t> receive();

    uint64_t packetsSent() const { return _sent; }
    uint64_t packetsReceived() const { return _received; }

    // --- Async ring interface ------------------------------------------
    /** Post one TX descriptor (charges descriptor setup). False when
     *  the TX ring is full — the driver must reap first. */
    bool txPost(const RingDesc &d);

    /** Ring the TX doorbell: one boundary crossing transmits every
     *  posted descriptor. DMA descriptors go through the IOMMU (a
     *  blocked slot completes with error and is counted); host-buffer
     *  descriptors are the zero-copy bcache->NIC path. Returns the
     *  arrival time of the last packet put on the wire. */
    uint64_t txDoorbell();

    /** Drain TX completions in doorbell order, freeing slots. */
    std::vector<RingCompletion> txReapAll() { return _tx.reapAll(); }

    /** Reap one completion by (index, generation); a stale replay is
     *  rejected and counted. */
    bool txReapAt(uint32_t index, uint32_t gen);

    /** Post one RX buffer descriptor (pa-based, IOMMU-checked). */
    bool rxPost(const RingDesc &d);

    /** Ring the RX doorbell: fill posted RX descriptors from queued
     *  packets through the IOMMU. Blocked slots complete with error. */
    uint64_t rxDoorbell();

    std::vector<RingCompletion> rxReapAll() { return _rx_ring.reapAll(); }

    IrqLine &irq() { return _irq; }
    const DescRing &txRing() const { return _tx; }
    const DescRing &rxRing() const { return _rx_ring; }
    /** Ring-slot DMA attempts the IOMMU refused. */
    uint64_t ringBlockedDma() const { return _ringBlocked; }
    /** Stale completion-index replays rejected. */
    uint64_t staleCompletions() const { return _stale; }

  private:
    void deliver(std::vector<uint8_t> packet);
    /** Book @p bytes on the active CPU's TX wire queue; returns the
     *  arrival time. */
    uint64_t wireSchedule(uint64_t bytes);

    Iommu &_iommu;
    sim::SimContext &_ctx;
    Nic *_peer = nullptr;
    std::deque<std::vector<uint8_t>> _rx;
    uint64_t _sent = 0;
    uint64_t _received = 0;
    /** Per-TX-queue link-idle times (cycles). A multi-queue NIC: each
     *  vCPU owns a TX ring, so concurrent senders on different CPUs do
     *  not serialize on one wire schedule. Single-entry (identical to
     *  the historical single-queue model) when vcpus == 1. */
    std::vector<uint64_t> _linkFreeAt;
    DescRing _tx;
    DescRing _rx_ring;
    IrqLine _irq;
    uint64_t _ringBlocked = 0;
    uint64_t _stale = 0;
    sim::StatHandle _hTxPackets;
    sim::StatHandle _hTxBytes;
    sim::StatHandle _hRxPackets;
    sim::StatHandle _hRingBlocked;
    sim::StatHandle _hStale;
};

} // namespace vg::hw

#endif // VG_HW_NIC_HH
