/**
 * @file
 * Deterministic fleet interleaving: the SplitMix64 stream and the
 * seeded machine-step schedule built on it.
 *
 * Within one machine the kernel's scheduler (Kernel::pickNext) decides
 * which vCPU runs next; across a fleet SeededInterleaver decides which
 * machine steps next. Both are pure functions of their inputs, so every
 * run is bit-reproducible regardless of host scheduling.
 */

#ifndef VG_SIM_INTERLEAVE_HH
#define VG_SIM_INTERLEAVE_HH

#include <cmath>
#include <cstdint>
#include <vector>

namespace vg::sim
{

/**
 * SplitMix64: the deterministic PRNG behind every seeded schedule in
 * the simulator (fleet machine-step order, traffic arrival draws,
 * tenant placement). Chosen because it is stateless-simple — one
 * 64-bit counter — so a stream can be forked into independent
 * sub-streams (sub(), used to hand each machine its own seed) without
 * the streams ever correlating.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : _state(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (_state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform draw in [0, n). */
    uint64_t
    below(uint64_t n)
    {
        return n ? next() % n : 0;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return double(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Exponential draw with mean @p mean (Poisson interarrivals). */
    double
    exponential(double mean)
    {
        double u = uniform();
        if (u >= 1.0)
            u = 0.9999999999999999;
        return -mean * std::log(1.0 - u);
    }

    /** Fork an independent sub-stream (e.g. one per machine). */
    uint64_t
    sub(uint64_t idx) const
    {
        SplitMix64 fork(_state ^ (0xa0761d6478bd642full * (idx + 1)));
        return fork.next();
    }

  private:
    uint64_t _state;
};

/**
 * Cross-machine extension of the kernel's deterministic vCPU pick: a
 * seeded step schedule over N machines.
 *
 * Where Kernel::pickNext decides which *vCPU* of one machine runs
 * next, SeededInterleaver decides which *machine* of a fleet steps
 * next. Each round it draws a Fisher-Yates permutation of the machines
 * that have work from a SplitMix64 stream, so the whole-fleet step
 * order is a pure function of the seed: two fleet runs with the same
 * seed replay bit-identically, and a different seed exercises a
 * different (but equally reproducible) cross-machine ordering.
 */
class SeededInterleaver
{
  public:
    SeededInterleaver(uint64_t seed, unsigned n)
        : _rng(seed), _n(n ? n : 1)
    {}

    /**
     * Draw this round's machine-step order.
     *
     * @param has_work  per-machine flag, nonzero if that machine has
     *                  pending work (size must be >= n)
     * @return machine indices in execution order (machines without
     *         work are omitted; empty when the fleet is idle)
     */
    std::vector<unsigned>
    schedule(const std::vector<uint8_t> &has_work)
    {
        std::vector<unsigned> order;
        order.reserve(_n);
        for (unsigned m = 0; m < _n; m++)
            if (has_work[m])
                order.push_back(m);
        for (size_t i = order.size(); i > 1; i--)
            std::swap(order[i - 1], order[_rng.below(i)]);
        return order;
    }

    /** Derived seed for machine @p idx's private schedule streams. */
    uint64_t machineSeed(unsigned idx) const { return _rng.sub(idx); }

  private:
    SplitMix64 _rng;
    unsigned _n;
};

} // namespace vg::sim

#endif // VG_SIM_INTERLEAVE_HH
