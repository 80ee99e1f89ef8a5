/**
 * @file
 * Table 5: Postmark, baseline vs Virtual Ghost.
 * Paper: 14.30 s native vs 67.50 s VG (4.72x) for 500,000
 * transactions on 500 base files.
 */

#include "apps/postmark.hh"
#include "common.hh"

using namespace vg;
using namespace vg::bench;
using namespace vg::apps;

namespace
{

double
postmarkSeconds(sim::VgConfig vg, const PostmarkConfig &cfg,
                LatencyHist *lat = nullptr)
{
    kern::System sys(benchConfig(vg));
    sys.boot();
    PostmarkResult result;
    sys.runProcess("postmark", [&](kern::UserApi &api) {
        result = postmark(api, cfg);
        return 0;
    });
    if (lat)
        for (uint64_t c : result.transactionCycles)
            lat->add(c);
    return result.seconds();
}

} // namespace

int
main(int argc, char **argv)
{
    bool paper = paperScale();
    BenchOpts opts = parseBenchOpts(argc, argv);
    bool smoke = opts.smoke;
    PostmarkConfig cfg; // paper parameters by default
    cfg.transactions = paper ? 500000 : smoke ? 2000 : 20000;
    cfg.baseFiles = paper ? 500 : smoke ? 50 : 200;
    int runs = paper ? 5 : smoke ? 1 : 3;

    BenchReport report("postmark");
    report.top()
        .count("transactions", cfg.transactions)
        .count("base_files", cfg.baseFiles)
        .count("runs", uint64_t(runs));

    banner("Table 5. Postmark (500 B - 9.77 KB files, 512 B blocks, "
           "biases 5,\nbuffered I/O)");
    std::printf("Transactions per run: %lu, base files: %lu, runs: "
                "%d\n\n",
                (unsigned long)cfg.transactions,
                (unsigned long)cfg.baseFiles, runs);

    double nat = 0, vgs = 0;
    for (int i = 0; i < runs; i++) {
        cfg.seed = opts.seed + uint64_t(i);
        nat += postmarkSeconds(sim::VgConfig::native(), cfg);
        vgs += postmarkSeconds(sim::VgConfig::full(), cfg,
                               &report.latency());
    }
    nat /= runs;
    vgs /= runs;

    std::printf("%-12s %12s %12s %10s\n", "", "Native (s)",
                "VGhost (s)", "Overhead");
    std::printf("%-12s %12.2f %12.2f %9.2fx\n", "measured", nat, vgs,
                vgs / nat);
    std::printf("%-12s %12.2f %12.2f %9.2fx   (500k transactions)\n",
                "paper", 14.30, 67.50, 4.72);

    report.row()
        .str("test", "postmark")
        .num("native_s", nat)
        .num("vg_s", vgs)
        .num("overhead", vgs / nat)
        .num("paper_native_s", 14.30)
        .num("paper_vg_s", 67.50)
        .num("paper_overhead", 4.72);
    return report.write() ? 0 : 1;
}
