/**
 * @file
 * Figure 3: OpenSSH server transfer rate vs file size, baseline vs
 * Virtual Ghost (non-ghosting client, as with the paper's external
 * scp client). Paper: 23% mean bandwidth reduction, 45% worst case on
 * small files, negligible for large files.
 */

#include "apps/ssh_common.hh"
#include "scenario.hh"

using namespace vg;
using namespace vg::bench;
using namespace vg::apps;

namespace
{

/** Transfer /payload over one sshd session per vCPU (ports 22,
 *  23, ...); returns aggregate KB/s across all sessions. With
 *  vcpus == 1 this is the paper's single-session transfer. */
double
transferBandwidth(sim::VgConfig vg, uint64_t file_size, bool ghosting,
                  LatencyHist *lat = nullptr)
{
    kern::System sys(benchConfig(vg));
    sys.boot();

    crypto::AesKey app_key{};
    for (int i = 0; i < 16; i++)
        app_key[size_t(i)] = uint8_t(i);
    sva::AppBinary bin =
        sys.vm().packageApp("openssh", "ssh-code", app_key);

    plantFile(sys, "/payload", file_size, 0x7a);

    uint64_t total_bytes = 0;
    ServeScenario scenario;
    scenario.instances = vg.vcpus; // one sshd session per vCPU
    scenario.setup = [&](kern::UserApi &capi) {
        return capi.execve(&bin, [](kern::UserApi &napi) {
            return sshKeygen(napi);
        });
    };
    scenario.server = [](kern::UserApi &capi, unsigned s) {
        SshdConfig cfg;
        cfg.maxConnections = 1;
        cfg.port = uint16_t(sshdPort + s);
        return sshd(capi, cfg);
    };
    scenario.client = [&](kern::UserApi &capi, unsigned s, unsigned) {
        return capi.execve(&bin, [&, s](kern::UserApi &napi) {
            uint64_t s0 = napi.kernel().ctx().clock().now();
            SshResult r = sshFetch(napi, "/payload", ghosting, false,
                                   uint16_t(sshdPort + s));
            if (lat)
                lat->add(napi.kernel().ctx().clock().now() - s0);
            if (r.ok)
                total_bytes += r.bytes;
            return r.ok ? 0 : 1;
        });
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
    uint64_t max_size =
        paper ? (64ull << 20) : opts.smoke ? (1ull << 20) : (4ull << 20);

    BenchReport report(vcpus > 1 ? "sshd_smp" : "sshd", vcpus);
    report.top().count("max_file_bytes", max_size);

    banner("Figure 3. SSH server average transfer rate (KB/s)\n"
           "(non-ghosting client; paper: 23% mean reduction, 45% "
           "worst on small files,\nnegligible for large files)");
    std::printf("vCPUs: %u (%u concurrent session%s)\n", vcpus, vcpus,
                vcpus > 1 ? "s" : "");
    std::printf("%-10s %12s %12s %12s\n", "File Size", "Native",
                "VGhost", "Reduction");

    double reductions = 0;
    int n = 0;
    for (uint64_t size = 1024; size <= max_size; size *= 4) {
        sim::VgConfig nat_vg = opts.apply(sim::VgConfig::native());
        sim::VgConfig full_vg = opts.apply(sim::VgConfig::full());
        double nat = transferBandwidth(nat_vg, size, false);
        double vgb =
            transferBandwidth(full_vg, size, false, &report.latency());
        double red = nat > 0 ? 100.0 * (1.0 - vgb / nat) : 0.0;
        reductions += red;
        n++;
        std::printf("%-10s %12.0f %12.0f %11.1f%%\n",
                    sizeLabel(size).c_str(), nat, vgb, red);
        report.row()
            .count("file_bytes", size)
            .num("native_kbps", nat)
            .num("vg_kbps", vgb)
            .num("reduction_pct", red);
    }
    std::printf("\nMean reduction across sizes: %.1f%% "
                "(paper: 23%% mean, 45%% worst case)\n",
                reductions / n);
    report.top().num("mean_reduction_pct", reductions / n);
    return report.write() ? 0 : 1;
}
