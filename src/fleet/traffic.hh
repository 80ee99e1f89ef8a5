/**
 * @file
 * Fleet traffic generator.
 *
 * Produces the request arrival process the load balancer routes:
 *
 *  - Open loop: Poisson arrivals — exponential interarrival gaps
 *    drawn from the seeded SplitMix64 stream at a configured rate.
 *    Arrival times never react to fleet latency, so overload shows up
 *    as queueing delay in the tail percentiles (the honest open-loop
 *    property closed-loop generators hide).
 *
 *  - Closed loop: a population of users, each issuing its next
 *    request a think-time after its previous response lands. Load
 *    self-limits at (users / round-trip), the classic closed-loop
 *    behaviour.
 *
 * Every draw comes from one seeded stream, so the whole arrival
 * process — ids, tenants, times — replays bit-identically.
 */

#ifndef VG_FLEET_TRAFFIC_HH
#define VG_FLEET_TRAFFIC_HH

#include <cstdint>
#include <map>
#include <vector>

#include "sim/interleave.hh"

namespace vg::fleet
{

/** Arrival modes. */
enum class TrafficMode
{
    OpenLoop,
    ClosedLoop,
};

const char *trafficModeName(TrafficMode mode);

/** One generated request. */
struct FleetRequest
{
    uint64_t id = 0;
    unsigned tenant = 0;
    uint64_t arrivalUs = 0;
};

class TrafficGen
{
  public:
    /**
     * @param mode      arrival process
     * @param requests  total requests to issue
     * @param tenants   tenant population (uniform pick per request)
     * @param seed      stream seed (forked from the fleet seed)
     * @param rps       open-loop arrival rate (requests/sec)
     * @param users     closed-loop user population
     * @param think_us  closed-loop think time between requests
     */
    TrafficGen(TrafficMode mode, uint64_t requests, unsigned tenants,
               uint64_t seed, double rps, unsigned users,
               uint64_t think_us);

    /** Pull every request arriving before @p until_us. */
    std::vector<FleetRequest> arrivalsUntil(uint64_t until_us);

    /** Closed-loop feedback: request @p id completed at
     *  @p completion_us (no-op in open loop). */
    void completed(uint64_t id, uint64_t completion_us);

    /** True once every request has been issued. */
    bool done() const { return _issued >= _requests; }

  private:
    FleetRequest makeRequest(uint64_t arrival_us);

    TrafficMode _mode;
    uint64_t _requests;
    unsigned _tenants;
    sim::SplitMix64 _rng;
    double _gapMeanUs; ///< open-loop mean interarrival
    uint64_t _thinkUs;

    uint64_t _issued = 0;
    uint64_t _nextArrivalUs = 0; ///< open loop: next arrival time

    /** Closed loop: each user's next-issue time. */
    std::vector<uint64_t> _userReadyUs;
    /** Closed loop: in-flight request id -> issuing user. */
    std::map<uint64_t, unsigned> _reqUser;
};

} // namespace vg::fleet

#endif // VG_FLEET_TRAFFIC_HH
