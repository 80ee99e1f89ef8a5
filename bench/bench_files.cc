/**
 * @file
 * Tables 3 and 4: LMBench file delete/create rates (files per second)
 * for 0 KB, 1 KB, 4 KB and 10 KB files, baseline vs Virtual Ghost.
 */

#include "apps/lmbench.hh"
#include "common.hh"

using namespace vg;
using namespace vg::bench;
using namespace vg::apps;

int
main(int argc, char **argv)
{
    bool paper = paperScale();
    bool smoke = parseBenchOpts(argc, argv).smoke;
    uint64_t count = paper ? 1000 : smoke ? 60 : 300;
    int runs = paper ? 10 : smoke ? 1 : 3;

    BenchReport report("files");
    report.top().count("count", count).count("runs", uint64_t(runs));

    struct SizeRow
    {
        uint64_t size;
        double paperCreateNat, paperCreateVg;
        double paperDeleteNat, paperDeleteVg;
    };
    std::vector<SizeRow> sizes = {
        {0, 156276, 33777, 166846, 36164},
        {1024, 97839, 18796, 116668, 25817},
        {4096, 97102, 18725, 116657, 25806},
        {10240, 85319, 18095, 110842, 25042},
    };

    banner("Table 4. LMBench: files created per second");
    std::printf("%-10s %12s %12s %9s | %12s %12s %9s\n", "File Size",
                "Native", "VGhost", "Overhead", "paper-Nat",
                "paper-VG", "paper-OH");
    std::vector<double> create_nat, create_vg;
    for (const SizeRow &row : sizes) {
        double nat = meanOf(runs, sim::VgConfig::native(),
                            [&](kern::UserApi &api) {
                                double r = rateCreateFiles(api, count,
                                                           row.size);
                                rateDeleteFiles(api, count);
                                return r;
                            });
        double vgr = meanOf(runs, sim::VgConfig::full(),
                            [&](kern::UserApi &api) {
                                double r = rateCreateFiles(api, count,
                                                           row.size);
                                rateDeleteFiles(api, count);
                                return r;
                            });
        create_nat.push_back(nat);
        create_vg.push_back(vgr);
        // One pooled sample per size: VG per-file create latency.
        if (vgr > 0)
            report.latency().add(uint64_t(
                sim::Clock::cyclesPerUsec * 1e6 / vgr));
        std::printf("%-10s %12.0f %12.0f %8.2fx | %12.0f %12.0f "
                    "%8.2fx\n",
                    sizeLabel(row.size).c_str(), nat, vgr, nat / vgr,
                    row.paperCreateNat, row.paperCreateVg,
                    row.paperCreateNat / row.paperCreateVg);
        report.row()
            .str("test", "create")
            .count("file_bytes", row.size)
            .num("native_per_sec", nat)
            .num("vg_per_sec", vgr)
            .num("overhead", nat / vgr);
    }

    banner("Table 3. LMBench: files deleted per second");
    std::printf("%-10s %12s %12s %9s | %12s %12s %9s\n", "File Size",
                "Native", "VGhost", "Overhead", "paper-Nat",
                "paper-VG", "paper-OH");
    for (const SizeRow &row : sizes) {
        double nat = meanOf(runs, sim::VgConfig::native(),
                            [&](kern::UserApi &api) {
                                rateCreateFiles(api, count, row.size);
                                return rateDeleteFiles(api, count);
                            });
        double vgr = meanOf(runs, sim::VgConfig::full(),
                            [&](kern::UserApi &api) {
                                rateCreateFiles(api, count, row.size);
                                return rateDeleteFiles(api, count);
                            });
        std::printf("%-10s %12.0f %12.0f %8.2fx | %12.0f %12.0f "
                    "%8.2fx\n",
                    sizeLabel(row.size).c_str(), nat, vgr, nat / vgr,
                    row.paperDeleteNat, row.paperDeleteVg,
                    row.paperDeleteNat / row.paperDeleteVg);
        if (vgr > 0)
            report.latency().add(uint64_t(
                sim::Clock::cyclesPerUsec * 1e6 / vgr));
        report.row()
            .str("test", "delete")
            .count("file_bytes", row.size)
            .num("native_per_sec", nat)
            .num("vg_per_sec", vgr)
            .num("overhead", nat / vgr);
    }
    return report.write() ? 0 : 1;
}
