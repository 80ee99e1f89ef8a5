/**
 * @file
 * Figure 4: ghosting vs original ssh client transfer rate, both on
 * the Virtual Ghost kernel (isolates the cost of using ghost memory).
 * Paper: at most a 5% bandwidth reduction.
 */

#include "apps/ssh_common.hh"
#include "common.hh"

using namespace vg;
using namespace vg::bench;
using namespace vg::apps;

namespace
{

double
clientBandwidth(uint64_t file_size, bool ghosting,
                LatencyHist *lat = nullptr)
{
    kern::System sys(benchConfig(sim::VgConfig::full()));
    sys.boot();

    crypto::AesKey app_key{};
    for (int i = 0; i < 16; i++)
        app_key[size_t(i)] = uint8_t(i);
    sva::AppBinary bin =
        sys.vm().packageApp("openssh", "ssh-code", app_key);

    kern::Ino ino = 0;
    sys.kernel().fs().create("/payload", ino);
    std::vector<uint8_t> chunk(64 * 1024, 0x3c);
    for (uint64_t off = 0; off < file_size; off += chunk.size())
        sys.kernel().fs().write(
            ino, off, chunk.data(),
            std::min<uint64_t>(chunk.size(), file_size - off));

    double kbps = 0;
    sys.runProcess("init", [&](kern::UserApi &api) {
        uint64_t kg = api.fork([&](kern::UserApi &capi) {
            return capi.execve(&bin, [](kern::UserApi &napi) {
                return sshKeygen(napi);
            });
        });
        int status = -1;
        api.waitpid(kg, status);

        uint64_t srv = api.fork([](kern::UserApi &capi) {
            SshdConfig cfg;
            cfg.maxConnections = 1;
            return sshd(capi, cfg);
        });
        for (int i = 0; i < 4; i++)
            api.yield();

        uint64_t cli = api.fork([&](kern::UserApi &capi) {
            return capi.execve(&bin, [&](kern::UserApi &napi) {
                sim::Stopwatch sw(napi.kernel().ctx().clock());
                SshResult r = sshFetch(napi, "/payload", ghosting);
                if (lat)
                    lat->add(sw.elapsed());
                double secs = sim::Clock::toSec(sw.elapsed());
                if (r.ok && secs > 0)
                    kbps = double(r.bytes) / 1024.0 / secs;
                return r.ok ? 0 : 1;
            });
        });
        api.waitpid(cli, status);
        api.waitpid(srv, status);
        return 0;
    });
    return kbps;
}

} // namespace

int
main(int argc, char **argv)
{
    bool paper = paperScale();
    uint64_t max_size =
        paper ? (64ull << 20)
              : parseBenchOpts(argc, argv).smoke ? (1ull << 20)
                                                 : (4ull << 20);

    BenchReport report("ssh_ghost");
    report.top().count("max_file_bytes", max_size);

    banner("Figure 4. Ghosting SSH client average transfer rate "
           "(KB/s)\n(both clients on the Virtual Ghost kernel; "
           "paper: <= 5% reduction)");
    std::printf("%-10s %14s %14s %12s\n", "File Size", "Original ssh",
                "Ghosting ssh", "Reduction");

    double worst = 0;
    for (uint64_t size = 1024; size <= max_size; size *= 4) {
        double plain = clientBandwidth(size, false);
        double ghost =
            clientBandwidth(size, true, &report.latency());
        double red = plain > 0 ? 100.0 * (1.0 - ghost / plain) : 0.0;
        worst = std::max(worst, red);
        std::printf("%-10s %14.0f %14.0f %11.1f%%\n",
                    sizeLabel(size).c_str(), plain, ghost, red);
        report.row()
            .count("file_bytes", size)
            .num("plain_kbps", plain)
            .num("ghosting_kbps", ghost)
            .num("reduction_pct", red);
    }
    std::printf("\nWorst-case reduction: %.1f%% (paper: max 5%%)\n",
                worst);
    report.top().num("worst_reduction_pct", worst);
    return report.write() ? 0 : 1;
}
