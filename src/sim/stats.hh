/**
 * @file
 * Named statistic counters.
 *
 * A StatSet is a registry of named 64-bit counters used throughout the
 * simulation (kernel memory accesses, CFI checks, MMU updates, DMA
 * bytes, ...). Counters are created on first use and can be
 * snapshotted for differential measurement.
 *
 * Hot paths intern a counter once via handle() and bump it through the
 * returned StatHandle — a stable pointer into the registry — so no
 * string-keyed map lookup happens per event. Handles stay valid for
 * the life of the StatSet.
 */

#ifndef VG_SIM_STATS_HH
#define VG_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vg::sim
{

/** Interned counter: bump via StatSet::add(handle) with no lookup. */
using StatHandle = uint64_t *;

/** A registry of named monotonically increasing counters. */
class StatSet
{
  public:
    /** Increment the counter @p name by @p delta (creating it at 0). */
    void
    add(const std::string &name, uint64_t delta = 1)
    {
        _counters[name] += delta;
    }

    /**
     * Intern @p name, creating the counter at 0. The handle is a
     * stable pointer (std::map references never move) valid until the
     * StatSet is destroyed.
     */
    StatHandle handle(const std::string &name)
    {
        return &_counters[name];
    }

    /** Increment an interned counter: one add, no lookup. */
    static void
    add(StatHandle h, uint64_t delta = 1)
    {
        *h += delta;
    }

    /** Current value of @p name (0 if never touched). */
    uint64_t
    get(const std::string &name) const
    {
        auto it = _counters.find(name);
        return it == _counters.end() ? 0 : it->second;
    }

    /** All counters in name order. */
    const std::map<std::string, uint64_t> &all() const { return _counters; }

  private:
    std::map<std::string, uint64_t> _counters;
};

} // namespace vg::sim

#endif // VG_SIM_STATS_HH
