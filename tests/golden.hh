/**
 * @file
 * Golden digests for the deterministic simulator.
 *
 * A simulated run is a pure function of (workload, config, seed), so a
 * 64-bit FNV-1a digest of what it produced (clock, stat map, payload
 * bytes, results) recorded once is as strong an equivalence proof as a
 * second implementation kept alive to compare against. Tests fold a
 * run into a Golden and check it with matchesGolden(); a mismatch
 * prints the recomputed value, so a deliberate simulation change
 * updates the recorded constant in the same commit.
 */

#ifndef VG_TESTS_GOLDEN_HH
#define VG_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/context.hh"

namespace vg::test
{

constexpr uint64_t fnvOffset = 1469598103934665603ull;
constexpr uint64_t fnvPrime = 1099511628211ull;

/** FNV-1a over @p n bytes at @p p, continuing from @p h. */
inline uint64_t
fnv1a(const void *p, size_t n, uint64_t h = fnvOffset)
{
    const uint8_t *b = static_cast<const uint8_t *>(p);
    for (size_t i = 0; i < n; i++) {
        h ^= b[i];
        h *= fnvPrime;
    }
    return h;
}

/** Incremental digest builder; every feed is FNV-1a over the bytes. */
struct Golden
{
    uint64_t h = fnvOffset;

    Golden &
    bytes(const void *p, size_t n)
    {
        h = fnv1a(p, n, h);
        return *this;
    }

    /** A 64-bit value, fed as its eight little-endian bytes. */
    Golden &
    u64(uint64_t v)
    {
        uint8_t b[8];
        for (int i = 0; i < 8; i++)
            b[i] = uint8_t(v >> (8 * i));
        return bytes(b, sizeof(b));
    }

    /** A length-prefixed string (so adjacent names cannot alias). */
    Golden &
    str(const std::string &s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    Golden &
    vec(const std::vector<uint8_t> &v)
    {
        u64(v.size());
        return bytes(v.data(), v.size());
    }

    /** Stat-map rollup: every (name, value) pair in name order. */
    Golden &
    stats(const std::map<std::string, uint64_t> &all)
    {
        u64(all.size());
        for (const auto &[name, value] : all)
            str(name).u64(value);
        return *this;
    }

    /** A machine's simulated state: every vCPU clock, then the full
     *  stat map. */
    Golden &
    machine(sim::SimContext &ctx)
    {
        for (unsigned c = 0; c < ctx.vcpuCount(); c++)
            u64(ctx.clockOf(c).now());
        return stats(ctx.stats().all());
    }
};

/** Compare a recomputed digest with its recorded constant. */
inline ::testing::AssertionResult
matchesGolden(uint64_t recomputed, uint64_t recorded)
{
    if (recomputed == recorded)
        return ::testing::AssertionSuccess();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "golden digest mismatch: recomputed 0x%016llxull, "
                  "recorded 0x%016llxull",
                  static_cast<unsigned long long>(recomputed),
                  static_cast<unsigned long long>(recorded));
    return ::testing::AssertionFailure()
           << buf
           << " (an intended simulation change updates the constant)";
}

} // namespace vg::test

#endif // VG_TESTS_GOLDEN_HH
