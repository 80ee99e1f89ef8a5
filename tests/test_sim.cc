/**
 * @file
 * Unit tests for the simulation core: clock, stats, config, charging.
 */

#include <gtest/gtest.h>

#include "sim/context.hh"

using namespace vg::sim;

TEST(Clock, StartsAtZeroAndAdvances)
{
    Clock clock;
    EXPECT_EQ(clock.now(), 0u);
    clock.advance(100);
    EXPECT_EQ(clock.now(), 100u);
    clock.advance(1);
    EXPECT_EQ(clock.now(), 101u);
}

TEST(Clock, TimeConversion)
{
    EXPECT_DOUBLE_EQ(Clock::toUsec(3400), 1.0);
    EXPECT_DOUBLE_EQ(Clock::toSec(3400000000ull), 1.0);
}

TEST(Clock, StopwatchMeasuresWindow)
{
    Clock clock;
    clock.advance(50);
    Stopwatch sw(clock);
    clock.advance(70);
    EXPECT_EQ(sw.elapsed(), 70u);
    clock.advance(5);
    EXPECT_EQ(sw.elapsed(), 75u);
}

TEST(Stats, CountersCreateOnFirstUse)
{
    StatSet stats;
    EXPECT_EQ(stats.get("missing"), 0u);
    stats.add("a");
    stats.add("a", 4);
    EXPECT_EQ(stats.get("a"), 5u);
}

TEST(Config, NativeDisablesEverything)
{
    VgConfig c = VgConfig::native();
    EXPECT_FALSE(c.sandboxMemory);
    EXPECT_FALSE(c.cfi);
    EXPECT_FALSE(c.mmuChecks);
    EXPECT_FALSE(c.dmaProtection);
    EXPECT_FALSE(c.protectInterruptContext);
    EXPECT_FALSE(c.signedTranslations);
    EXPECT_FALSE(c.secureRng);
    EXPECT_FALSE(c.anyInstrumentation());
}

TEST(Config, FullEnablesEverything)
{
    VgConfig c = VgConfig::full();
    EXPECT_TRUE(c.sandboxMemory);
    EXPECT_TRUE(c.cfi);
    EXPECT_TRUE(c.anyInstrumentation());
}

TEST(Context, KernelWorkCostsMoreUnderVg)
{
    SimContext native(VgConfig::native());
    SimContext vg(VgConfig::full());

    native.chargeKernelWork(100, 40, 10);
    vg.chargeKernelWork(100, 40, 10);

    EXPECT_GT(vg.clock().now(), native.clock().now());
    EXPECT_EQ(native.clock().now(), 100u);
}

TEST(Context, BulkCopyIsRangeCheckedOnce)
{
    // memcpy sandboxing is O(1), so the VG delta must not scale with
    // size (S 5: memcpy() calls are instrumented as a unit).
    SimContext native(VgConfig::native());
    SimContext vg(VgConfig::full());

    native.chargeKernelBulk(4096);
    vg.chargeKernelBulk(4096);
    Cycles small_delta = vg.clock().now() - native.clock().now();

    native.chargeKernelBulk(1 << 20);
    vg.chargeKernelBulk(1 << 20);
    Cycles large_delta = vg.clock().now() - native.clock().now();

    EXPECT_EQ(small_delta, vg.costs().sandboxPerBulk);
    EXPECT_EQ(large_delta, 2 * vg.costs().sandboxPerBulk);
}

TEST(Context, SyscallGateChargesVgExtra)
{
    SimContext native(VgConfig::native());
    SimContext vg(VgConfig::full());

    native.chargeSyscallGate();
    vg.chargeSyscallGate();

    EXPECT_EQ(native.clock().now(), native.costs().syscallGate);
    EXPECT_EQ(vg.clock().now(),
              vg.costs().syscallGate + vg.costs().syscallGateVgExtra);
}

TEST(Context, StatsTrackChargedEvents)
{
    SimContext ctx;
    ctx.chargeSyscallGate();
    ctx.chargeSyscallGate();
    ctx.chargeTrap();
    ctx.chargeMmuUpdate();
    EXPECT_EQ(ctx.stats().get("sva.syscalls"), 2u);
    EXPECT_EQ(ctx.stats().get("sva.traps"), 1u);
    EXPECT_EQ(ctx.stats().get("sva.mmu_updates"), 1u);
}

TEST(Context, CryptoChargesScaleWithBytes)
{
    SimContext ctx;
    Cycles before = ctx.clock().now();
    ctx.chargeAes(1000);
    Cycles aes_cost = ctx.clock().now() - before;
    EXPECT_EQ(aes_cost, 1000 * ctx.costs().aesPerByte);
}
