/**
 * @file
 * Global simulated-time source.
 *
 * Every modelled hardware or software action advances a Clock by some
 * number of cycles; benchmark harnesses convert cycle deltas into
 * microseconds at the modelled core frequency (3.4 GHz, matching the
 * paper's i7-3770 testbed).
 */

#ifndef VG_SIM_CLOCK_HH
#define VG_SIM_CLOCK_HH

#include <cstdint>

namespace vg::sim
{

/** Cycle count type. */
using Cycles = uint64_t;

/**
 * A monotonically increasing cycle counter.
 *
 * The clock is a passive accumulator: components call advance() as they
 * model work. It also exposes the modelled frequency for time
 * conversions.
 */
class Clock
{
  public:
    /** Modelled core frequency in cycles per microsecond (3.4 GHz). */
    static constexpr double cyclesPerUsec = 3400.0;

    Clock() = default;

    /** Advance simulated time by @p n cycles. */
    void advance(Cycles n) { _now += n; }

    /**
     * Advance simulated time to absolute cycle @p t if it is in the
     * future; a no-op otherwise. Used for causal synchronisation
     * between per-CPU clocks (a waking CPU may not observe an event
     * before the CPU that produced it reached that point in time).
     */
    void
    advanceTo(Cycles t)
    {
        if (t > _now)
            _now = t;
    }

    /** Current simulated time in cycles. */
    Cycles now() const { return _now; }

    /** Convert a cycle delta into microseconds of simulated time. */
    static double
    toUsec(Cycles cycles)
    {
        return static_cast<double>(cycles) / cyclesPerUsec;
    }

    /** Convert a cycle delta into seconds of simulated time. */
    static double
    toSec(Cycles cycles)
    {
        return toUsec(cycles) / 1e6;
    }

  private:
    Cycles _now = 0;
};

/**
 * RAII stopwatch that measures elapsed simulated cycles on a Clock.
 */
class Stopwatch
{
  public:
    explicit Stopwatch(const Clock &clock)
        : _clock(clock), _start(clock.now())
    {}

    /** Cycles elapsed since construction. */
    Cycles elapsed() const { return _clock.now() - _start; }

  private:
    const Clock &_clock;
    Cycles _start;
};

} // namespace vg::sim

#endif // VG_SIM_CLOCK_HH
