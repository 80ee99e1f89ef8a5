/**
 * @file
 * Programmable interval timer and console output device.
 */

#ifndef VG_HW_TIMER_HH
#define VG_HW_TIMER_HH

#include <cstdint>
#include <string>

#include "sim/clock.hh"

namespace vg::hw
{

/** Periodic timer driving scheduler preemption. */
class Timer
{
  public:
    explicit Timer(const sim::Clock &clock) : _clock(clock) {}

    /** Program the timer to fire every @p interval cycles. */
    void
    setInterval(sim::Cycles interval)
    {
        _interval = interval;
        _nextFire = _clock.now() + interval;
    }

    /** True if the timer has fired since the last acknowledge. */
    bool
    due() const
    {
        return _interval != 0 && _clock.now() >= _nextFire;
    }

    /** Acknowledge the interrupt and rearm. */
    void
    acknowledge()
    {
        if (_interval == 0)
            return;
        // Skip any missed periods wholesale.
        while (_nextFire <= _clock.now())
            _nextFire += _interval;
    }

  private:
    const sim::Clock &_clock;
    sim::Cycles _interval = 0;
    sim::Cycles _nextFire = 0;
};

/** Append-only console sink (system log / app stdout for tests). */
class Console
{
  public:
    void write(const std::string &text) { _output += text; }
    const std::string &output() const { return _output; }

  private:
    std::string _output;
};

} // namespace vg::hw

#endif // VG_HW_TIMER_HH
