/**
 * @file
 * The multi-machine fabric.
 *
 * Instantiates N independent machines and wires each one to a central
 * load-balancer node over a dedicated NIC pair speaking the existing
 * hw::DescRing protocol (post / doorbell / completion / reap — the
 * same rings PR 7 put on the in-machine devices). The LB node is its
 * own clock/stat domain: fabric hops charge descriptor work on the
 * sender and wire time on the link schedule, exactly like any other
 * NIC transfer, and the per-hop wire latency feeds the fleet's
 * end-to-end request latency.
 *
 * Cross-machine determinism: the fabric owns a SeededInterleaver —
 * the machine-level extension of the kernel's per-vCPU round-robin
 * pick — which draws each round's machine-step order from a SplitMix64
 * stream seeded by VgConfig::seed. Machines are internally
 * deterministic, so the whole fleet replays bit-identically from
 * (workload, config, seed).
 */

#ifndef VG_FLEET_FABRIC_HH
#define VG_FLEET_FABRIC_HH

#include <memory>
#include <vector>

#include "fleet/machine.hh"
#include "sim/interleave.hh"

namespace vg::fleet
{

class Fabric
{
  public:
    /** Build @p machines machines from @p config and wire each to the
     *  LB node with a connected NIC pair. */
    Fabric(unsigned machines, const kern::SystemConfig &config);

    unsigned machineCount() const
    {
        return unsigned(_machines.size());
    }
    Machine &machine(unsigned m) { return *_machines[m]; }

    /** Boot every machine. */
    void bootAll();

    /** The seeded cross-machine step scheduler. */
    sim::SeededInterleaver &interleaver() { return *_interleaver; }

    /**
     * Push @p frame from the LB node to machine @p m over the
     * DescRing pair (one descriptor per MTU chunk, a doorbell per
     * ring's worth, then reap). Returns the hop's wire time in
     * microseconds, or a negative value only when the link is down
     * (failure injection).
     */
    double sendToMachine(unsigned m, const std::vector<uint8_t> &frame);

    /** Machine -> LB direction of the same protocol. */
    double sendToLb(unsigned m, const std::vector<uint8_t> &frame);

    /** Drain one frame off machine @p m's fabric RX queue. */
    std::vector<uint8_t> receiveAtMachine(unsigned m);

    /** Drain one frame off the LB side of machine @p m's pair. */
    std::vector<uint8_t> receiveAtLb(unsigned m);

    /**
     * Health probe: round-trip a probe frame LB -> machine -> LB.
     * False when the link is down or the echo does not come back —
     * the signal the fleet driver turns into an LB ejection.
     */
    bool pingMachine(unsigned m);

    /** Failure injection: sever machine @p m's fabric link. */
    void injectLinkFailure(unsigned m) { _linkDown[m] = 1; }
    bool linkDown(unsigned m) const { return _linkDown[m] != 0; }

    /** Fabric telemetry (vg_lint --dump-fleet). */
    uint64_t framesToMachine(unsigned m) const { return _framesTo[m]; }
    uint64_t framesToLb(unsigned m) const { return _framesFrom[m]; }

  private:
    double ringSend(hw::Nic &tx, sim::SimContext &tx_ctx,
                    const std::vector<uint8_t> &frame);
    static std::vector<uint8_t> ringReceive(hw::Nic &rx);

    /** LB node hardware: its own context, memory and IOMMU. */
    std::unique_ptr<sim::SimContext> _lbCtx;
    std::unique_ptr<hw::PhysMem> _lbMem;
    std::unique_ptr<hw::Iommu> _lbIommu;

    std::vector<std::unique_ptr<Machine>> _machines;
    /** Per machine: the LB-side and machine-side fabric endpoints. */
    std::vector<std::unique_ptr<hw::Nic>> _lbNics;
    std::vector<std::unique_ptr<hw::Nic>> _machNics;
    std::vector<uint8_t> _linkDown;
    std::vector<uint64_t> _framesTo;
    std::vector<uint64_t> _framesFrom;

    std::unique_ptr<sim::SeededInterleaver> _interleaver;
};

} // namespace vg::fleet

#endif // VG_FLEET_FABRIC_HH
