/**
 * @file
 * Figure 2: thttpd web-server bandwidth vs file size (ApacheBench
 * workload), baseline vs Virtual Ghost. The paper's result: the
 * impact of Virtual Ghost on web transfer bandwidth is negligible.
 */

#include "apps/thttpd.hh"
#include "scenario.hh"

using namespace vg;
using namespace vg::bench;
using namespace vg::apps;

namespace
{

double
bandwidthFor(sim::VgConfig vg, uint64_t file_size, uint64_t requests,
             LatencyHist *lat = nullptr)
{
    kern::System sys(benchConfig(vg));
    sys.boot();

    // Plant the content file (generated from random data in the
    // paper; content doesn't affect timing here).
    plantFile(sys, "/file.bin", file_size);

    // ApacheBench-style concurrency: several client processes issue
    // requests at once, so wire time and server compute overlap (the
    // paper used 100 simultaneous connections). On SMP machines one
    // server instance runs per vCPU (ports 80, 81, ...) and the
    // clients round-robin across them; with vcpus == 1 this is
    // exactly the single-server workload.
    unsigned instances = vg.vcpus;
    unsigned per = std::max(4u, instances) / instances;

    // Per-instance request shares (clients of instance i serve share
    // i together).
    std::vector<uint64_t> srv_share(instances, 0);
    for (unsigned i = 0; i < instances; i++)
        srv_share[i] = requests / instances +
                       (i < requests % instances ? 1 : 0);
    auto client_share = [&](unsigned inst, unsigned j) {
        return srv_share[inst] / per +
               (j < srv_share[inst] % per ? 1 : 0);
    };

    uint64_t total_bytes = 0;
    ServeScenario scenario;
    scenario.instances = instances;
    scenario.clientsPerInstance = per;
    scenario.server = [&](kern::UserApi &capi, unsigned i) {
        ThttpdConfig cfg;
        cfg.port = uint16_t(80 + i);
        cfg.maxRequests = srv_share[i];
        return srv_share[i] ? thttpd(capi, cfg) : 0;
    };
    scenario.client = [&](kern::UserApi &capi, unsigned inst,
                          unsigned j) {
        uint64_t share = client_share(inst, j);
        if (share == 0)
            return 0;
        AbResult ab = apacheBench(capi, "/file.bin", share,
                                  uint16_t(80 + inst));
        total_bytes += ab.bytes;
        if (lat)
            for (uint64_t c : ab.requestCycles)
                lat->add(c);
        return 0;
    };

    ScenarioResult r = runScenario(sys, scenario);
    double secs = r.seconds();
    return secs > 0 ? double(total_bytes) / 1024.0 / secs : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool paper = paperScale();
    BenchOpts opts = parseBenchOpts(argc, argv);
    unsigned vcpus = opts.vcpus;
    uint64_t requests = paper ? 10000 : opts.smoke ? 12 : 50;
    // Keep per-server load meaningful when fanning out across vCPUs.
    requests *= vcpus;

    BenchReport report(vcpus > 1 ? "thttpd_smp" : "thttpd", vcpus);
    report.top().count("requests", requests);

    banner("Figure 2. thttpd average bandwidth (KB/s) vs file size\n"
           "(ApacheBench workload; paper: VG impact negligible)");
    std::printf("vCPUs: %u (%u server instance%s)\n", vcpus, vcpus,
                vcpus > 1 ? "s" : "");
    std::printf("%-10s %12s %12s %10s\n", "File Size", "Native",
                "VGhost", "VG/Native");

    for (uint64_t size = 1024; size <= (1 << 20); size *= 4) {
        sim::VgConfig nat_vg = opts.apply(sim::VgConfig::native());
        sim::VgConfig full_vg = opts.apply(sim::VgConfig::full());
        double nat = bandwidthFor(nat_vg, size, requests);
        double vgb =
            bandwidthFor(full_vg, size, requests, &report.latency());
        std::printf("%-10s %12.0f %12.0f %9.1f%%\n",
                    sizeLabel(size).c_str(), nat, vgb,
                    100.0 * vgb / nat);
        report.row()
            .count("file_bytes", size)
            .num("native_kbps", nat)
            .num("vg_kbps", vgb)
            .num("vg_vs_native", nat > 0 ? vgb / nat : 0.0);
    }

    std::printf("\nPaper's Figure 2 shows overlapping curves from "
                "1 KB to 1 MB (y-axis 512\nto 131072 KB/s): the "
                "transfer path is wire/copy bound, so kernel\n"
                "instrumentation is hidden.\n");
    return report.write() ? 0 : 1;
}
