/**
 * @file
 * Fleet-scale serving benchmark: N machines behind the simulated L4
 * balancer, a thousand-plus concurrent connections, and a
 * hundred-plus ghost tenants exercising per-tenant key chains and
 * ghost working sets on every machine they touch.
 *
 * Phases:
 *   1. calibrate  — one machine, no fabric: thttpdMulti vs the
 *                   concurrent ApacheBench driver (scenario.hh), the
 *                   single-machine baseline the fleet numbers are
 *                   read against.
 *   2. open_ch    — open-loop Poisson burst routed by consistent
 *                   hash (tenant affinity).
 *   3. closed_lc  — closed-loop user population routed least-conn.
 *   4. pressure   — small-memory fleet with fat ghost working sets:
 *                   the per-tenant churn forces the sealed swap path
 *                   (PR 8) under fleet-induced memory pressure.
 *
 * BENCH_fleet.json carries machines/tenants, fleet throughput,
 * p50/p99/p999 request latency, the measured peak of concurrent
 * established connections (sum of per-machine kernel.conn_table_peak)
 * and one rollup row per machine per phase.
 */

#include "apps/thttpd.hh"
#include "fleet/fleet.hh"
#include "scenario.hh"

using namespace vg;
using namespace vg::bench;
using namespace vg::fleet;

namespace
{

/** Per-machine sizing for fleet members. */
kern::SystemConfig
fleetMachineConfig(const BenchOpts &opts, uint64_t mem_frames)
{
    kern::SystemConfig cfg;
    cfg.vg = opts.apply(sim::VgConfig::full());
    cfg.memFrames = mem_frames;
    cfg.diskBlocks = 8 * 1024; // 32 MB swap + fs per machine
    cfg.rsaBits = 384;
    return cfg;
}

/** Sum one stat across all machines of a finished run. */
uint64_t
sumStat(const FleetResult &res, const char *key)
{
    uint64_t total = 0;
    for (const auto &stats : res.machineStats) {
        auto it = stats.find(key);
        if (it != stats.end())
            total += it->second;
    }
    return total;
}

/** Emit one rollup row per machine plus the phase summary row. */
void
reportPhase(BenchReport &report, const std::string &phase,
            const FleetConfig &cfg, const FleetResult &res)
{
    LatencyHist lat;
    for (uint64_t us : res.latencyUs)
        lat.add(uint64_t(double(us) * sim::Clock::cyclesPerUsec));

    BenchReport::Obj &sum = report.row();
    sum.str("phase", phase)
        .str("policy", lbPolicyName(cfg.policy))
        .str("mode", trafficModeName(cfg.mode))
        .count("requests", cfg.requests)
        .count("served", res.served)
        .count("failures", res.failures)
        .count("dropped", res.dropped)
        .count("tenant_failures", res.tenantFailures)
        .count("epochs", res.epochs)
        .count("fleet_time_us", res.fleetTimeUs)
        .num("throughput_rps", res.throughputRps());
    emitLatency(sum, lat, "req_");

    for (unsigned m = 0; m < cfg.machines; m++) {
        const auto &stats = res.machineStats[m];
        auto get = [&](const char *k) {
            auto it = stats.find(k);
            return it != stats.end() ? it->second : 0;
        };
        report.row()
            .str("phase", phase)
            .count("machine", m)
            .count("served", res.machineServed[m])
            .count("conn_peak", get("kernel.conn_table_peak"))
            .count("conn_inserts", get("kernel.conn_table_inserts"))
            .count("swap_pages_stored", get("swap.pages_stored"))
            .count("swap_pages_loaded", get("swap.pages_loaded"))
            .count("ghost_pages", get("sva.ghost_pages_allocated"))
            .count("ghost_swapouts", get("kernel.ghost_swapouts"))
            .count("ghost_swapins", get("kernel.ghost_swapins"))
            .count("ghost_swapins_refused",
                   get("kernel.ghost_swapins_refused"));
    }

    std::printf("%-10s %-9s %7llu served %5llu drop  %9.0f req/s  "
                "p99 %llu us\n",
                phase.c_str(), lbPolicyName(cfg.policy),
                (unsigned long long)res.served,
                (unsigned long long)res.dropped, res.throughputRps(),
                (unsigned long long)(
                    double(lat.percentile(99)) /
                    sim::Clock::cyclesPerUsec));
}

/** Single-machine calibration: thttpdMulti behind the concurrent
 *  ApacheBench driver, via the shared scenario skeleton. */
double
calibrate(const BenchOpts &opts, uint64_t requests,
          unsigned concurrency, LatencyHist *lat)
{
    kern::System sys(benchConfig(opts.apply(sim::VgConfig::full())));
    sys.boot();
    plantFile(sys, "/file.bin", 4096);

    uint64_t bytes = 0;
    ServeScenario scenario;
    scenario.server = [&](kern::UserApi &capi, unsigned) {
        apps::ThttpdMultiConfig cfg;
        cfg.maxRequests = requests;
        cfg.maxConcurrent = concurrency * 2;
        return apps::thttpdMulti(capi, cfg);
    };
    scenario.client = [&](kern::UserApi &capi, unsigned, unsigned) {
        apps::AbResult ab = apps::apacheBenchConcurrent(
            capi, "/file.bin", requests, concurrency);
        bytes += ab.bytes;
        if (lat)
            for (uint64_t c : ab.requestCycles)
                lat->add(c);
        return 0;
    };
    ScenarioResult r = runScenario(sys, scenario);
    return r.seconds() > 0 ? double(requests) / r.seconds() : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOpts opts = parseBenchOpts(argc, argv);
    bool paper = paperScale();
    bool smoke = opts.smoke;

    // Default scale meets the fleet acceptance floor: >= 4 machines,
    // >= 100 ghost tenants, >= 1000 concurrent connections (4
    // machines x vcpus workers x `concurrency`-deep client
    // pipelines, verified against the measured conn-table peaks).
    const unsigned machines = paper ? 6 : 4;
    const unsigned tenants = smoke ? 16 : paper ? 250 : 120;
    const uint64_t requests = smoke ? 120 : paper ? 6000 : 2400;
    const unsigned concurrency =
        smoke ? 16
              : unsigned((1100 + machines * opts.vcpus - 1) /
                         (machines * opts.vcpus));

    BenchReport report("fleet", opts.vcpus);
    report.top()
        .count("machines", machines)
        .count("tenants", tenants)
        .count("requests", requests)
        .count("client_concurrency", concurrency)
        .str("seed", std::to_string(opts.seed));

    banner("Fleet-scale serving: multi-machine fabric, L4 balancer, "
           "thousand-tenant\ntraffic (open + closed loop), ghost "
           "key-chains per tenant");
    std::printf("machines: %u, tenants: %u, requests/phase: %llu, "
                "pipeline depth: %u\n\n",
                machines, tenants, (unsigned long long)requests,
                concurrency);

    // --- phase 1: single-machine calibration -------------------------
    LatencyHist calib_lat;
    double calib_rps = calibrate(opts, smoke ? 60 : 600,
                                 smoke ? 8 : 64, &calib_lat);
    BenchReport::Obj &crow = report.row();
    crow.str("phase", "calibrate").num("throughput_rps", calib_rps);
    emitLatency(crow, calib_lat, "req_");
    std::printf("%-10s %-9s %25.0f req/s (one machine, no fabric)\n",
                "calibrate", "-", calib_rps);

    uint64_t peak_concurrent = 0;

    // --- phase 2: open-loop burst, consistent hash -------------------
    {
        FleetConfig cfg;
        cfg.machines = machines;
        cfg.tenants = tenants;
        cfg.system = fleetMachineConfig(opts, 4096);
        cfg.system.vg.seed = opts.seed;
        cfg.policy = LbPolicy::ConsistentHash;
        cfg.mode = TrafficMode::OpenLoop;
        cfg.requests = requests;
        // Burst faster than the fleet drains: deep batches, so the
        // client pipelines actually fill.
        cfg.openLoopRps = smoke ? 100000.0 : 1200000.0;
        cfg.knobs.concurrency = concurrency;
        cfg.knobs.serverSlots = concurrency * 3;
        cfg.knobs.ghostPagesPerTenant = smoke ? 4 : 8;
        FleetResult res = Fleet(cfg).run();
        for (uint64_t us : res.latencyUs)
            report.latency().add(
                uint64_t(double(us) * sim::Clock::cyclesPerUsec));
        reportPhase(report, "open_ch", cfg, res);
        peak_concurrent = std::max(
            peak_concurrent, sumStat(res, "kernel.conn_table_peak"));
    }

    // --- phase 3: closed loop, least connections ---------------------
    {
        FleetConfig cfg;
        cfg.machines = machines;
        cfg.tenants = tenants;
        cfg.system = fleetMachineConfig(opts, 4096);
        cfg.system.vg.seed = opts.seed;
        cfg.policy = LbPolicy::LeastConn;
        cfg.mode = TrafficMode::ClosedLoop;
        cfg.requests = requests;
        cfg.closedLoopUsers = smoke ? 60 : 1200;
        cfg.thinkTimeUs = 200;
        cfg.knobs.concurrency = concurrency;
        cfg.knobs.serverSlots = concurrency * 3;
        cfg.knobs.ghostPagesPerTenant = smoke ? 4 : 8;
        FleetResult res = Fleet(cfg).run();
        for (uint64_t us : res.latencyUs)
            report.latency().add(
                uint64_t(double(us) * sim::Clock::cyclesPerUsec));
        reportPhase(report, "closed_lc", cfg, res);
        peak_concurrent = std::max(
            peak_concurrent, sumStat(res, "kernel.conn_table_peak"));
    }

    // --- phase 4: ghost swap under fleet memory pressure -------------
    uint64_t swap_stored = 0, swap_loaded = 0;
    {
        FleetConfig cfg;
        cfg.machines = machines;
        cfg.tenants = smoke ? 8 : 40;
        // Small machines + fat per-tenant ghost working sets: the
        // tenants that hash to one machine want more frames than it
        // has, so the allocator has to evict through the sealed swap
        // path (kGhostHeadroom keeps a few frames free; everything
        // beyond that is reclaimed from sibling tenants).
        cfg.system = fleetMachineConfig(opts, smoke ? 512 : 1536);
        cfg.system.vg.seed = opts.seed;
        cfg.policy = LbPolicy::ConsistentHash;
        cfg.mode = TrafficMode::OpenLoop;
        cfg.requests = smoke ? 40 : 200;
        cfg.openLoopRps = smoke ? 50000.0 : 200000.0;
        cfg.knobs.concurrency = smoke ? 8 : 32;
        cfg.knobs.ghostPagesPerTenant = smoke ? 128 : 160;
        FleetResult res = Fleet(cfg).run();
        reportPhase(report, "pressure", cfg, res);
        swap_stored = sumStat(res, "swap.pages_stored");
        swap_loaded = sumStat(res, "swap.pages_loaded");
    }

    report.top()
        .count("peak_concurrent", peak_concurrent)
        .count("swap_pages_stored", swap_stored)
        .count("swap_pages_loaded", swap_loaded)
        .num("calibrate_rps", calib_rps);

    std::printf("\npeak concurrent established connections "
                "(fleet-wide): %llu\n",
                (unsigned long long)peak_concurrent);
    std::printf("pressure phase sealed swap traffic: %llu pages out, "
                "%llu pages in\n",
                (unsigned long long)swap_stored,
                (unsigned long long)swap_loaded);
    return report.write() ? 0 : 1;
}
