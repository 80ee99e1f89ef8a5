/**
 * @file
 * Unit tests for the fleet's deterministic schedule primitives
 * (sim/interleave.hh): SplitMix64 sub-stream forking and the
 * SeededInterleaver's fork-tree determinism, seed sensitivity and
 * child-stream independence. These are the reproducibility primitives
 * under every fleet run — a regression here silently breaks
 * bit-identical replays.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "sim/interleave.hh"

using namespace vg::sim;

namespace
{

/** Drain @p rounds schedules from an interleaver over @p n busy
 *  machines, flattening into one order trace. */
std::vector<unsigned>
trace(SeededInterleaver &il, unsigned n, unsigned rounds)
{
    std::vector<uint8_t> busy(n, 1);
    std::vector<unsigned> out;
    for (unsigned r = 0; r < rounds; r++) {
        auto order = il.schedule(busy);
        out.insert(out.end(), order.begin(), order.end());
    }
    return out;
}

} // namespace

TEST(SplitMix64, StreamsAreDeterministic)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, SubStreamsAreStableAndDistinct)
{
    SplitMix64 rng(7);
    // sub() is const: forking must not disturb the parent stream, and
    // the same index always yields the same child seed.
    uint64_t parentBefore = SplitMix64(7).next();
    uint64_t s3 = rng.sub(3);
    EXPECT_EQ(rng.sub(3), s3);
    EXPECT_EQ(rng.next(), parentBefore);

    // Distinct indices give distinct child seeds (no collisions over a
    // realistic fleet size).
    std::set<uint64_t> seeds;
    for (unsigned i = 0; i < 4096; i++)
        seeds.insert(rng.sub(i));
    EXPECT_EQ(seeds.size(), 4096u);
}

TEST(SplitMix64, BoundedDrawsStayInRange)
{
    SplitMix64 rng(99);
    for (int i = 0; i < 1000; i++) {
        EXPECT_LT(rng.below(17), 17u);
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_GE(rng.exponential(3.0), 0.0);
    }
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(SeededInterleaver, SameSeedReplaysBitIdentically)
{
    SeededInterleaver a(1234, 8), b(1234, 8);
    EXPECT_EQ(trace(a, 8, 64), trace(b, 8, 64));
}

TEST(SeededInterleaver, DifferentSeedsDiverge)
{
    SeededInterleaver a(1234, 8), b(1235, 8);
    EXPECT_NE(trace(a, 8, 64), trace(b, 8, 64));
}

TEST(SeededInterleaver, ScheduleCoversExactlyTheBusyMachines)
{
    SeededInterleaver il(5, 6);
    std::vector<uint8_t> busy = {1, 0, 1, 1, 0, 1};
    for (int r = 0; r < 32; r++) {
        auto order = il.schedule(busy);
        ASSERT_EQ(order.size(), 4u);
        std::set<unsigned> seen(order.begin(), order.end());
        EXPECT_EQ(seen, (std::set<unsigned>{0, 2, 3, 5}));
    }
    // Idle fleet: empty schedule, and drawing it doesn't wedge the
    // stream (permuting 0 or 1 machines consumes no RNG words).
    std::vector<uint8_t> idle(6, 0);
    EXPECT_TRUE(il.schedule(idle).empty());
}

TEST(SeededInterleaver, PermutationsActuallyVary)
{
    // Fisher-Yates over 8 busy machines must not degenerate into a
    // fixed rotation: over enough rounds we see many distinct orders.
    SeededInterleaver il(77, 8);
    std::vector<uint8_t> busy(8, 1);
    std::set<std::vector<unsigned>> orders;
    for (int r = 0; r < 256; r++)
        orders.insert(il.schedule(busy));
    EXPECT_GT(orders.size(), 100u);
}

TEST(SeededInterleaver, ForkTreeIsDeterministic)
{
    // machineSeed(i) is a pure function of (seed, i): recomputing the
    // whole fork tree from an identical parent gives identical leaves,
    // and drawing schedules in between must not shift them (sub() is
    // const on the underlying stream).
    SeededInterleaver a(2026, 16), b(2026, 16);
    std::vector<uint64_t> leavesA, leavesB;
    for (unsigned i = 0; i < 16; i++)
        leavesA.push_back(a.machineSeed(i));
    trace(b, 16, 8);
    for (unsigned i = 0; i < 16; i++)
        leavesB.push_back(b.machineSeed(i));
    EXPECT_NE(leavesA, leavesB); // schedule() advanced b's stream...
    SeededInterleaver c(2026, 16);
    std::vector<uint64_t> leavesC;
    for (unsigned i = 0; i < 16; i++)
        leavesC.push_back(c.machineSeed(i));
    EXPECT_EQ(leavesA, leavesC); // ...but a fresh replay matches.
}

TEST(SeededInterleaver, ChildStreamsAreIndependent)
{
    // Two machines' private streams (seeded from adjacent fork
    // indices) must not correlate: their draw sequences differ, and
    // consuming one stream never perturbs the other.
    SeededInterleaver il(31337, 4);
    SplitMix64 m0(il.machineSeed(0));
    SplitMix64 m1(il.machineSeed(1));

    std::vector<uint64_t> s0, s1;
    for (int i = 0; i < 256; i++)
        s0.push_back(m0.next());
    for (int i = 0; i < 256; i++)
        s1.push_back(m1.next());
    EXPECT_NE(s0, s1);

    // No lag-correlation either: m1's stream is not m0's shifted.
    for (int lag = 1; lag < 8; lag++) {
        bool shifted = std::equal(s0.begin() + lag, s0.end(),
                                  s1.begin());
        EXPECT_FALSE(shifted) << "child streams correlate at lag "
                              << lag;
    }

    // Replaying machine 1's stream from the same leaf seed is exact,
    // independent of how much machine 0 consumed.
    SplitMix64 m1Again(il.machineSeed(1));
    for (int i = 0; i < 256; i++)
        EXPECT_EQ(m1Again.next(), s1[size_t(i)]);
}
