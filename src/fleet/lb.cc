#include "fleet/lb.hh"

#include <algorithm>

#include "sim/interleave.hh"

namespace vg::fleet
{

const char *
lbPolicyName(LbPolicy policy)
{
    return policy == LbPolicy::ConsistentHash ? "consistent-hash"
                                              : "least-conn";
}

uint64_t
LoadBalancer::mix(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

LoadBalancer::LoadBalancer(LbPolicy policy, unsigned machines,
                           uint64_t seed, unsigned vnodes)
    : _policy(policy), _healthy(machines, 1), _active(machines, 0),
      _routed(machines, 0)
{
    // Place vnodes machines * vnodes points on the ring from the
    // seeded stream, so the ring layout replays with the run.
    sim::SplitMix64 rng(seed ^ 0x1bf5ull);
    _ring.reserve(size_t(machines) * vnodes);
    for (unsigned m = 0; m < machines; m++)
        for (unsigned v = 0; v < vnodes; v++)
            _ring.push_back({rng.next(), m});
    std::sort(_ring.begin(), _ring.end(),
              [](const VNode &a, const VNode &b) {
                  return a.point < b.point ||
                         (a.point == b.point && a.machine < b.machine);
              });
}

unsigned
LoadBalancer::healthyCount() const
{
    unsigned n = 0;
    for (uint8_t h : _healthy)
        n += h;
    return n;
}

void
LoadBalancer::eject(unsigned m)
{
    if (m < _healthy.size())
        _healthy[m] = 0;
}

uint64_t
LoadBalancer::drain(unsigned m)
{
    uint64_t n = _active[m];
    _active[m] = 0;
    return n;
}

int
LoadBalancer::route(uint64_t flow_key)
{
    if (healthyCount() == 0)
        return -1;

    if (_policy == LbPolicy::LeastConn) {
        int best = -1;
        for (unsigned m = 0; m < _healthy.size(); m++) {
            if (!_healthy[m])
                continue;
            if (best < 0 || _active[m] < _active[unsigned(best)])
                best = int(m);
        }
        _routed[unsigned(best)]++;
        return best;
    }

    // Consistent hash: first vnode at or after the key's point whose
    // machine is healthy, wrapping around the ring.
    uint64_t point = mix(flow_key);
    auto it = std::lower_bound(
        _ring.begin(), _ring.end(), point,
        [](const VNode &v, uint64_t p) { return v.point < p; });
    for (size_t step = 0; step < _ring.size(); step++) {
        if (it == _ring.end())
            it = _ring.begin();
        if (_healthy[it->machine]) {
            _routed[it->machine]++;
            return int(it->machine);
        }
        ++it;
    }
    return -1;
}

} // namespace vg::fleet
