/**
 * @file
 * Fleet-scale serving: the orchestrator that ties fabric, load
 * balancer, traffic generator and tenant directory together.
 *
 * Fleet::run() advances fleet time in fixed epochs. Each epoch it
 * health-probes every machine over the fabric (ejecting and draining
 * failures), pulls the epoch's arrivals from the traffic generator,
 * routes them through the L4 balancer, then steps the machines with
 * queued work in the order drawn by the seeded cross-machine
 * interleaver. A request's end-to-end latency is its queue wait
 * (fleet-time arrival to service start, which grows when a machine
 * falls behind), plus the fabric hop, plus its measured in-machine
 * service time. Every component draws from streams forked off one
 * seed, so two runs with the same (config, seed) produce
 * bit-identical request logs, latency streams and per-machine stat
 * rollups — the property FleetEquivalenceSweep enforces.
 */

#ifndef VG_FLEET_FLEET_HH
#define VG_FLEET_FLEET_HH

#include <deque>
#include <string>

#include "fleet/fabric.hh"
#include "fleet/lb.hh"
#include "fleet/traffic.hh"

namespace vg::fleet
{

/** Whole-fleet configuration. */
struct FleetConfig
{
    unsigned machines = 4;
    unsigned tenants = 16;
    /** Per-machine sizing + protection config (vg.vcpus = per-machine
     *  vCPUs, vg.seed = the fleet seed). */
    kern::SystemConfig system;

    LbPolicy policy = LbPolicy::ConsistentHash;

    TrafficMode mode = TrafficMode::OpenLoop;
    uint64_t requests = 1000;
    double openLoopRps = 20000.0;
    unsigned closedLoopUsers = 256;
    uint64_t thinkTimeUs = 500;

    /** Fleet-time slice per scheduling round. */
    uint64_t epochUs = 2000;

    /** Tenant content size (every machine replicates it). */
    uint64_t fileBytes = 4096;

    EpochKnobs knobs;

    /** Hard cap on scheduling rounds (runaway-workload backstop). */
    uint64_t maxEpochs = 200000;
};

/** Whole-fleet run outcome. */
struct FleetResult
{
    uint64_t served = 0;
    uint64_t failures = 0;
    uint64_t dropped = 0; ///< no healthy machine to route to
    uint64_t bytes = 0;
    uint64_t fleetTimeUs = 0;
    uint64_t epochs = 0;
    uint64_t tenantFailures = 0;

    /** Per-request end-to-end latency (µs), in completion order. */
    std::vector<uint64_t> latencyUs;

    /**
     * Deterministic request stream: one line per completed request
     * ("id tenant machine lat_us bytes ok") in completion order —
     * the bit-compared surface of FleetEquivalenceSweep.
     */
    std::vector<std::string> requestLog;

    /** Per-machine full stat rollups at end of run. */
    std::vector<std::map<std::string, uint64_t>> machineStats;

    /** Per-machine served-request counts. */
    std::vector<uint64_t> machineServed;

    double
    throughputRps() const
    {
        return fleetTimeUs > 0
                   ? double(served) * 1e6 / double(fleetTimeUs)
                   : 0.0;
    }
};

class Fleet
{
  public:
    explicit Fleet(const FleetConfig &config);

    /** Boot machines, plant content, provision tenants. */
    void provision();

    /** Run the configured workload to completion. provision() is
     *  called automatically if it has not been. */
    FleetResult run();

    /**
     * Failure injection: at epoch @p at_epoch, sever @p machine's
     * fabric link. The next health probe ejects it from the LB,
     * drains its connections, requeues its pending requests and
     * migrates its primary tenants (key-chain advance + re-provision
     * on the new primary).
     */
    void scheduleFailure(unsigned machine, uint64_t at_epoch);

    Fabric &fabric() { return *_fabric; }
    LoadBalancer &lb() { return *_lb; }
    TenantDirectory &tenants() { return *_tenants; }

  private:
    void handleEjection(unsigned m,
                        std::vector<std::deque<MachineRequest>> &queues,
                        std::deque<MachineRequest> &backlog);

    FleetConfig _config;
    std::unique_ptr<Fabric> _fabric;
    std::unique_ptr<LoadBalancer> _lb;
    std::unique_ptr<TenantDirectory> _tenants;
    std::unique_ptr<TrafficGen> _traffic;
    bool _provisioned = false;
    uint64_t _failEpoch = UINT64_MAX;
    unsigned _failMachine = 0;
};

} // namespace vg::fleet

#endif // VG_FLEET_FLEET_HH
