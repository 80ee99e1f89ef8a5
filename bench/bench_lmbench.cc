/**
 * @file
 * Table 2: LMBench microbenchmark latencies, native FreeBSD baseline
 * vs Virtual Ghost, with the paper's reported numbers alongside.
 */

#include "apps/lmbench.hh"
#include "common.hh"

using namespace vg;
using namespace vg::bench;
using namespace vg::apps;

namespace
{

struct Row
{
    const char *name;
    std::function<double(kern::UserApi &, uint64_t)> fn;
    uint64_t iters;
    double paperNative;
    double paperVg;
    const char *paperOverhead;
};

} // namespace

int
main(int argc, char **argv)
{
    bool paper = paperScale();
    bool smoke = parseBenchOpts(argc, argv).smoke;
    int runs = paper ? 10 : smoke ? 1 : 3;

    std::vector<Row> rows = {
        {"null syscall", latNullSyscall, 1000, 0.091, 0.355, "3.90x"},
        {"open/close", latOpenClose, 1000, 2.01, 9.70, "4.83x"},
        {"mmap", latMmap, 1000, 7.06, 33.2, "4.70x"},
        {"page fault", latPageFault, paper ? 1000u : 250u, 31.8, 36.7,
         "1.15x"},
        {"signal handler install", latSignalInstall, 1000, 0.168,
         0.545, "3.24x"},
        {"signal handler delivery", latSignalDelivery, 1000, 1.27,
         2.05, "1.61x"},
        {"fork + exit",
         [](kern::UserApi &api, uint64_t n) {
             return latForkExit(api, n);
         },
         paper ? 1000u : 100u, 63.7, 283, "4.40x"},
        {"fork + exec",
         [](kern::UserApi &api, uint64_t n) {
             return latForkExec(api, n);
         },
         paper ? 1000u : 100u, 101, 422, "4.20x"},
        {"select",
         [](kern::UserApi &api, uint64_t n) {
             return latSelect(api, n, 100);
         },
         1000, 3.05, 10.3, "3.40x"},
    };

    if (smoke) {
        for (Row &row : rows)
            row.iters = std::max<uint64_t>(row.iters / 10, 25);
    }

    BenchReport report("lmbench");
    report.top().count("runs", uint64_t(runs));

    banner("Table 2. LMBench latencies (microseconds, simulated)");
    std::printf("%-26s %10s %10s %9s | %10s %10s %9s\n", "Test",
                "Native", "VGhost", "Overhead", "paper-Nat",
                "paper-VG", "paper-OH");

    for (const Row &row : rows) {
        double native = meanOf(runs, sim::VgConfig::native(),
                               [&](kern::UserApi &api) {
                                   return row.fn(api, row.iters);
                               });
        double vg = meanOf(runs, sim::VgConfig::full(),
                           [&](kern::UserApi &api) {
                               return row.fn(api, row.iters);
                           });
        // One pooled sample per test: the VG per-op mean, in cycles.
        report.latency().add(
            uint64_t(vg * sim::Clock::cyclesPerUsec));
        std::printf("%-26s %10.3f %10.3f %8.2fx | %10.3f %10.1f %9s\n",
                    row.name, native, vg, vg / native, row.paperNative,
                    row.paperVg, row.paperOverhead);
        report.row()
            .str("test", row.name)
            .count("iters", row.iters)
            .num("native_us", native)
            .num("vg_us", vg)
            .num("overhead", vg / native)
            .num("paper_native_us", row.paperNative)
            .num("paper_vg_us", row.paperVg)
            .str("paper_overhead", row.paperOverhead);
    }

    std::printf("\nNotes: absolute values come from the calibrated "
                "simulation cost model;\nthe comparison target is the "
                "overhead column. fork latencies depend on the\n"
                "benchmarked process's resident-set size, which is far "
                "smaller here than\nin lmbench.\n");
    return report.write() ? 0 : 1;
}
