/**
 * @file
 * Simulated L4 load balancer.
 *
 * Routes flows to machines under one of two policies:
 *
 *  - ConsistentHash: a hash ring with `vnodes` virtual nodes per
 *    machine. A flow key always lands on the same machine while the
 *    ring is stable, and ejecting a machine only moves the flows that
 *    hashed to its vnodes (classic consistent-hashing churn bound).
 *
 *  - LeastConn: route each flow to the healthy machine with the
 *    fewest active connections (lowest index breaks ties), tracked by
 *    connOpened()/connClosed() accounting.
 *
 * Health checks are external: the fleet driver probes each machine
 * over the fabric and calls eject() on failure, which removes the
 * machine from routing. Draining the ejected machine's connections
 * and migrating its tenants is the driver's job (see Fleet::run).
 */

#ifndef VG_FLEET_LB_HH
#define VG_FLEET_LB_HH

#include <cstdint>
#include <vector>

namespace vg::fleet
{

/** Routing policies. */
enum class LbPolicy
{
    ConsistentHash,
    LeastConn,
};

const char *lbPolicyName(LbPolicy policy);

class LoadBalancer
{
  public:
    LoadBalancer(LbPolicy policy, unsigned machines, uint64_t seed,
                 unsigned vnodes = 64);

    // --- health -------------------------------------------------------
    void eject(unsigned m);
    bool healthy(unsigned m) const { return _healthy[m] != 0; }
    unsigned healthyCount() const;

    // --- routing ------------------------------------------------------
    /** Pick a machine for @p flow_key; -1 when no machine is healthy. */
    int route(uint64_t flow_key);

    /** Connection accounting (drives LeastConn and telemetry). */
    void connOpened(unsigned m) { _active[m]++; }
    void connClosed(unsigned m)
    {
        if (_active[m] > 0)
            _active[m]--;
    }
    /** Drop every active connection on @p m (drain on eject). */
    uint64_t drain(unsigned m);

    uint64_t activeConns(unsigned m) const { return _active[m]; }
    uint64_t routedTotal(unsigned m) const { return _routed[m]; }

    /** 64-bit finalizer used for flow keys (SplitMix64's mixer). */
    static uint64_t mix(uint64_t x);

  private:
    struct VNode
    {
        uint64_t point;
        unsigned machine;
    };

    LbPolicy _policy;
    std::vector<VNode> _ring; ///< sorted by point
    std::vector<uint8_t> _healthy;
    std::vector<uint64_t> _active;
    std::vector<uint64_t> _routed;
};

} // namespace vg::fleet

#endif // VG_FLEET_LB_HH
