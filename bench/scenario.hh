/**
 * @file
 * Reusable serving-scenario driver.
 *
 * Every serving benchmark — thttpd bandwidth, sshd transfer, the
 * fleet's single-machine calibration run — is the same shape: boot a
 * machine, plant content, fork one server instance per vCPU on
 * consecutive ports, give them a few yields to reach accept(), fork
 * client workers, time the client phase on the machine clock, then
 * reap everything. runScenario() owns that skeleton; benchmarks
 * supply the server and client bodies and read the timed result.
 */

#ifndef VG_BENCH_SCENARIO_HH
#define VG_BENCH_SCENARIO_HH

#include "common.hh"

namespace vg::bench
{

/** Plant a deterministic content file directly in @p sys's fs. */
inline void
plantFile(kern::System &sys, const std::string &path, uint64_t bytes,
          uint8_t fill = 0x42)
{
    kern::Ino ino = 0;
    sys.kernel().fs().create(path, ino);
    std::vector<uint8_t> chunk(std::min<uint64_t>(bytes, 64 * 1024),
                               fill);
    for (uint64_t off = 0; off < bytes; off += chunk.size())
        sys.kernel().fs().write(
            ino, off, chunk.data(),
            std::min<uint64_t>(chunk.size(), bytes - off));
}

/** One serving scenario: per-instance servers + client workers. */
struct ServeScenario
{
    /** Server instances (one per vCPU in the standard setup); ports
     *  are instance-indexed by the bodies themselves. */
    unsigned instances = 1;

    /** Client workers forked per instance. */
    unsigned clientsPerInstance = 1;

    /** Optional setup phase (e.g. ssh keygen) run to completion in
     *  its own process before any server forks. Nonzero exit aborts
     *  the scenario. */
    std::function<int(kern::UserApi &)> setup;

    /** Server body for instance @p inst. */
    std::function<int(kern::UserApi &, unsigned inst)> server;

    /** Client body: worker @p worker of instance @p inst. Runs after
     *  the servers have had warmupYields yields to reach accept().
     */
    std::function<int(kern::UserApi &, unsigned inst, unsigned worker)>
        client;
};

/** Yields the scenario gives its servers to reach accept() before the
 *  first client forks. */
constexpr unsigned warmupYields = 4;

/** Scenario outcome. */
struct ScenarioResult
{
    /** Machine time the client phase took (fork of the first client
     *  to exit of the last). */
    sim::Cycles elapsed = 0;
    /** 0, or the setup phase's nonzero exit. */
    int rc = 0;

    double
    seconds() const
    {
        return sim::Clock::toSec(elapsed);
    }
};

/**
 * Run @p s on the already-booted @p sys. Client/server bodies
 * communicate results through their captures (they run in-process —
 * the simulated fork shares the host address space).
 */
inline ScenarioResult
runScenario(kern::System &sys, const ServeScenario &s)
{
    ScenarioResult out;
    sys.runProcess("scenario", [&](kern::UserApi &api) {
        int status = 0;
        if (s.setup) {
            uint64_t pid = api.fork(
                [&](kern::UserApi &capi) { return s.setup(capi); });
            api.waitpid(pid, status);
            if (status != 0) {
                out.rc = status;
                return status;
            }
        }

        std::vector<uint64_t> servers;
        for (unsigned i = 0; i < s.instances; i++)
            servers.push_back(api.fork([&, i](kern::UserApi &capi) {
                return s.server(capi, i);
            }));
        for (unsigned i = 0; i < warmupYields; i++)
            api.yield();

        sim::Cycles t0 = machineNow(sys);
        std::vector<uint64_t> clients;
        for (unsigned i = 0; i < s.instances; i++)
            for (unsigned j = 0; j < s.clientsPerInstance; j++)
                clients.push_back(
                    api.fork([&, i, j](kern::UserApi &capi) {
                        return s.client(capi, i, j);
                    }));
        for (uint64_t cli : clients)
            api.waitpid(cli, status);
        out.elapsed = machineNow(sys) - t0;
        for (uint64_t srv : servers)
            api.waitpid(srv, status);
        return 0;
    });
    return out;
}

} // namespace vg::bench

#endif // VG_BENCH_SCENARIO_HH
