/**
 * @file
 * Ablation: per-protection-feature overhead decomposition (our
 * extension; DESIGN.md S 4). Each Virtual Ghost mechanism is enabled
 * alone on top of the baseline to show where the Table 2 overheads
 * come from.
 */

#include "apps/lmbench.hh"
#include "common.hh"

using namespace vg;
using namespace vg::bench;
using namespace vg::apps;

int
main(int argc, char **argv)
{
    struct Config
    {
        const char *name;
        sim::VgConfig cfg;
    };

    auto only = [](auto setter) {
        sim::VgConfig c = sim::VgConfig::native();
        setter(c);
        return c;
    };

    std::vector<Config> configs = {
        {"baseline (native)", sim::VgConfig::native()},
        {"+ sandboxing only",
         only([](sim::VgConfig &c) { c.sandboxMemory = true; })},
        {"+ CFI only", only([](sim::VgConfig &c) { c.cfi = true; })},
        {"+ IC protection only",
         only([](sim::VgConfig &c) {
             c.protectInterruptContext = true;
         })},
        {"+ MMU checks only",
         only([](sim::VgConfig &c) { c.mmuChecks = true; })},
        {"full Virtual Ghost", sim::VgConfig::full()},
    };

    bool smoke = parseBenchOpts(argc, argv).smoke;
    uint64_t n1 = smoke ? 200 : 1000;
    uint64_t n2 = smoke ? 100 : 500;
    uint64_t nf = smoke ? 15 : 50;

    BenchReport report("ablation");

    banner("Ablation: null syscall / open+close / mmap latency "
           "(usec) by protection\nfeature");
    std::printf("%-22s %10s %10s %10s %10s\n", "Configuration",
                "null", "open/cl", "mmap", "fork+exit");

    double base_null = 0, base_oc = 0, base_mmap = 0, base_fork = 0;
    for (const Config &config : configs) {
        double null_lat =
            measureOn(config.cfg, [&](kern::UserApi &api) {
                return latNullSyscall(api, n1);
            });
        double oc = measureOn(config.cfg, [&](kern::UserApi &api) {
            return latOpenClose(api, n2);
        });
        double mm = measureOn(config.cfg, [&](kern::UserApi &api) {
            return latMmap(api, n2);
        });
        double fe = measureOn(config.cfg, [&](kern::UserApi &api) {
            return latForkExit(api, nf);
        });
        if (base_null == 0) {
            base_null = null_lat;
            base_oc = oc;
            base_mmap = mm;
            base_fork = fe;
        }
        // Pool the measured per-op latencies across configurations.
        for (double us : {null_lat, oc, mm, fe})
            report.latency().add(
                uint64_t(us * sim::Clock::cyclesPerUsec));
        std::printf("%-22s %9.3f %9.3f %9.3f %9.3f\n", config.name,
                    null_lat, oc, mm, fe);
        std::printf("%-22s %8.2fx %8.2fx %8.2fx %8.2fx\n", "",
                    null_lat / base_null, oc / base_oc, mm / base_mmap,
                    fe / base_fork);
        report.row()
            .str("config", config.name)
            .num("null_us", null_lat)
            .num("open_close_us", oc)
            .num("mmap_us", mm)
            .num("fork_exit_us", fe)
            .num("null_overhead", null_lat / base_null)
            .num("open_close_overhead", oc / base_oc)
            .num("mmap_overhead", mm / base_mmap)
            .num("fork_exit_overhead", fe / base_fork);
    }

    std::printf("\nReading: sandboxing and CFI dominate "
                "computation-bound kernel paths;\nInterrupt Context "
                "protection dominates the syscall gate (null "
                "syscall);\nMMU checks matter for mapping-heavy "
                "operations (mmap, fork).\n");
    return report.write() ? 0 : 1;
}
