/**
 * @file
 * Ghost swap under memory pressure: the batched encrypt+MAC eviction
 * pipeline, with a plain demand-zero fault workload as the no-ghost
 * baseline.
 *
 * Reported per mode: ghost faults per simulated second, swap-out
 * bandwidth (sealed bytes written back per simulated second), and
 * p50/p99/p999 fault latency. The top-level ghost_overhead is the
 * per-fault cost of a sealed swap-in relative to an ordinary
 * demand-zero page fault.
 */

#include "common.hh"

using namespace vg;
using namespace vg::bench;

namespace
{

struct SwapBenchResult
{
    double seconds = 0;       ///< simulated time in the measured window
    uint64_t faults = 0;      ///< ghost pages faulted back in
    uint64_t sealedBytes = 0; ///< sealed bytes written to the swap area
    LatencyHist faultLat;     ///< per-fault latency samples

    double faultsPerSec() const
    {
        return seconds > 0 ? double(faults) / seconds : 0;
    }
    double bandwidthMBs() const
    {
        return seconds > 0 ? double(sealedBytes) / (1 << 20) / seconds
                           : 0;
    }
};

double
simSeconds(uint64_t cycles)
{
    return double(cycles) / (sim::Clock::cyclesPerUsec * 1e6);
}

/** The swap churn workload: every round evicts the whole working set
 *  through the batched pipeline and faults it back in page by page. */
SwapBenchResult
runSwapChurn(unsigned vcpus, uint64_t pages, unsigned rounds)
{
    sim::VgConfig vg = sim::VgConfig::full();
    vg.vcpus = vcpus;
    kern::System sys(benchConfig(vg));
    sys.boot();

    SwapBenchResult r;
    sys.runProcess("swap-churn", [&](kern::UserApi &api) {
        uint64_t pid = api.pid();
        hw::Vaddr base = api.allocGhost(pages);
        if (!base)
            return 1;
        std::vector<uint8_t> page(hw::pageSize);
        for (uint64_t i = 0; i < pages; i++) {
            for (size_t b = 0; b < page.size(); b++)
                page[b] = uint8_t(i + b);
            if (!api.ghostWrite(base + i * hw::pageSize, page.data(),
                                page.size()))
                return 1;
        }

        uint64_t t0 = machineNow(sys);
        uint64_t stored0 = sys.ctx().stats().get("swap.pages_stored");
        for (unsigned round = 0; round < rounds; round++) {
            if (sys.kernel().swapOutGhost(pid, pages) != pages)
                return 1;
            uint64_t v = 0;
            for (uint64_t i = 0; i < pages; i++) {
                uint64_t f0 = machineNow(sys);
                if (!api.ghostRead(base + i * hw::pageSize, &v,
                                   sizeof(v)))
                    return 1;
                r.faultLat.add(machineNow(sys) - f0);
            }
        }
        r.seconds = simSeconds(machineNow(sys) - t0);
        r.faults = uint64_t(rounds) * pages;
        r.sealedBytes =
            (sys.ctx().stats().get("swap.pages_stored") - stored0) *
            hw::pageSize;
        return 0;
    });
    return r;
}

/** The no-ghost baseline: the same number of first-touch faults on
 *  ordinary anonymous memory (demand-zero materialization, no seal,
 *  no disk). */
SwapBenchResult
runBaselineFaults(unsigned vcpus, uint64_t pages, unsigned rounds)
{
    sim::VgConfig vg = sim::VgConfig::full();
    vg.vcpus = vcpus;
    kern::System sys(benchConfig(vg));
    sys.boot();

    SwapBenchResult r;
    sys.runProcess("fault-base", [&](kern::UserApi &api) {
        uint64_t t0 = machineNow(sys);
        for (unsigned round = 0; round < rounds; round++) {
            hw::Vaddr base = api.mmap(pages * hw::pageSize);
            if (!base)
                return 1;
            for (uint64_t i = 0; i < pages; i++) {
                uint64_t f0 = machineNow(sys);
                if (!api.poke(base + i * hw::pageSize, 8, i + 1))
                    return 1;
                r.faultLat.add(machineNow(sys) - f0);
            }
            api.munmap(base, pages * hw::pageSize);
        }
        r.seconds = simSeconds(machineNow(sys) - t0);
        r.faults = uint64_t(rounds) * pages;
        return 0;
    });
    return r;
}

void
printRow(const char *name, const SwapBenchResult &r)
{
    double cpu = sim::Clock::cyclesPerUsec;
    std::printf("%-10s %12.0f %12.1f %9.2f %9.2f %9.2f\n", name,
                r.faultsPerSec(), r.bandwidthMBs(),
                double(r.faultLat.percentile(50)) / cpu,
                double(r.faultLat.percentile(99)) / cpu,
                double(r.faultLat.percentile(99.9)) / cpu);
}

void
reportRow(BenchReport &report, const char *mode,
          const SwapBenchResult &r)
{
    BenchReport::Obj &row = report.row();
    row.str("mode", mode)
        .num("sim_seconds", r.seconds)
        .count("faults", r.faults)
        .num("faults_per_sec", r.faultsPerSec())
        .num("swap_bandwidth_mb_s", r.bandwidthMBs());
    emitLatency(row, r.faultLat, "fault_");
}

} // namespace

int
main(int argc, char **argv)
{
    bool paper = paperScale();
    BenchOpts opts = parseBenchOpts(argc, argv);
    bool smoke = opts.smoke;
    unsigned vcpus = opts.vcpus;

    uint64_t pages = paper ? 512 : smoke ? 48 : 192;
    unsigned rounds = paper ? 8 : smoke ? 2 : 4;

    BenchReport report("ghost_swap", vcpus);
    report.top().count("pages", pages).count("rounds", rounds);

    banner("Ghost swap under memory pressure: batched eviction "
           "pipeline,\nwith a demand-zero no-ghost baseline");
    std::printf("Working set: %lu pages, %u eviction rounds, %u "
                "vcpu(s)\n\n",
                (unsigned long)pages, rounds, vcpus);
    std::printf("%-10s %12s %12s %9s %9s %9s\n", "", "faults/s",
                "MB/s swap", "p50 us", "p99 us", "p999 us");

    SwapBenchResult fast = runSwapChurn(vcpus, pages, rounds);
    SwapBenchResult base = runBaselineFaults(vcpus, pages, rounds);
    printRow("batched", fast);
    printRow("no-ghost", base);
    reportRow(report, "batched", fast);
    reportRow(report, "no-ghost", base);
    report.latency().merge(fast.faultLat);

    // Per-fault cost of a sealed swap-in vs an ordinary demand-zero
    // fault (both p50, the steady-state view).
    double cpu = sim::Clock::cyclesPerUsec;
    double ghost_us = double(fast.faultLat.percentile(50)) / cpu;
    double base_us = double(base.faultLat.percentile(50)) / cpu;
    double overhead = base_us > 0 ? ghost_us / base_us : 0;
    std::printf("\nghost swap-in vs demand-zero fault (p50): %.2fx\n",
                overhead);
    report.top().num("ghost_overhead", overhead);

    return report.write() ? 0 : 1;
}
