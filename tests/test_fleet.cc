/**
 * @file
 * Fleet-scale serving tests: seeded cross-machine determinism, the
 * O(1) kernel connection table, fabric ring delivery, both L4
 * balancer policies, tenant key-chain derivation, the
 * FleetEquivalenceSweep (same seed => bit-identical request/latency
 * streams and per-machine stat rollups) and LB failover with a
 * zero-disclosure scan of the lost machine.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "apps/thttpd.hh"
#include "fleet/fleet.hh"

using namespace vg;
using namespace vg::fleet;

namespace
{

kern::SystemConfig
fleetSysConfig(unsigned vcpus = 1, uint64_t seed = 42)
{
    kern::SystemConfig cfg;
    cfg.vg = sim::VgConfig::full();
    cfg.vg.vcpus = vcpus;
    cfg.vg.seed = seed;
    cfg.memFrames = 4096;  // 16 MB per machine
    cfg.diskBlocks = 4096; // 16 MB per machine
    cfg.rsaBits = 384;
    return cfg;
}

FleetConfig
smallFleet(unsigned machines, unsigned vcpus, uint64_t seed = 42)
{
    FleetConfig cfg;
    cfg.machines = machines;
    cfg.tenants = 4;
    cfg.system = fleetSysConfig(vcpus, seed);
    cfg.requests = 16;
    cfg.openLoopRps = 8000.0;
    cfg.fileBytes = 1024;
    cfg.knobs.ghostPagesPerTenant = 4;
    cfg.knobs.concurrency = 8;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Seeded cross-machine interleaver
// ---------------------------------------------------------------------

TEST(FleetInterleaver, SameSeedSameSchedule)
{
    sim::SeededInterleaver a(7, 6), b(7, 6);
    sim::SplitMix64 work(99);
    for (int round = 0; round < 200; round++) {
        std::vector<uint8_t> has(6);
        for (auto &w : has)
            w = uint8_t(work.below(2));
        EXPECT_EQ(a.schedule(has), b.schedule(has));
    }
    // Machine sub-seeds are stable and pairwise distinct.
    std::set<uint64_t> seeds;
    for (unsigned m = 0; m < 6; m++) {
        EXPECT_EQ(a.machineSeed(m), b.machineSeed(m));
        seeds.insert(a.machineSeed(m));
    }
    EXPECT_EQ(seeds.size(), 6u);
}

TEST(FleetInterleaver, DifferentSeedDifferentSchedule)
{
    sim::SeededInterleaver a(7, 8), b(8, 8);
    std::vector<uint8_t> has(8, 1);
    bool diverged = false;
    for (int round = 0; round < 50 && !diverged; round++)
        diverged = a.schedule(has) != b.schedule(has);
    EXPECT_TRUE(diverged);
}

TEST(FleetInterleaver, OmitsIdleMachines)
{
    sim::SeededInterleaver a(3, 4);
    std::vector<uint8_t> has = {1, 0, 1, 0};
    std::vector<unsigned> order = a.schedule(has);
    ASSERT_EQ(order.size(), 2u);
    std::set<unsigned> got(order.begin(), order.end());
    EXPECT_TRUE(got.count(0));
    EXPECT_TRUE(got.count(2));
    EXPECT_TRUE(a.schedule(std::vector<uint8_t>(4, 0)).empty());
}

// ---------------------------------------------------------------------
// Kernel connection table (satellite: no per-accept linear scan)
// ---------------------------------------------------------------------

TEST(ConnTable, HashLookupAndFreeListRecycle)
{
    kern::System sys(fleetSysConfig());
    sys.boot();

    kern::Ino ino = 0;
    sys.kernel().fs().create("/index.html", ino);
    std::vector<uint8_t> body(512, 'x');
    sys.kernel().fs().write(ino, 0, body.data(), body.size());

    const uint64_t kRequests = 24;
    const unsigned kConcurrency = 6;
    apps::AbResult ab;
    sys.runProcess("conn-table", [&](kern::UserApi &api) {
        uint64_t srv = api.fork([&](kern::UserApi &sapi) {
            apps::ThttpdMultiConfig cfg;
            cfg.maxRequests = kRequests;
            return apps::thttpdMulti(sapi, cfg);
        });
        for (int i = 0; i < 4; i++)
            api.yield();
        ab = apps::apacheBenchConcurrent(api, "/index.html",
                                         kRequests, kConcurrency);
        int status = 0;
        api.waitpid(srv, status);
        return 0;
    });

    EXPECT_EQ(ab.requests, kRequests);
    EXPECT_EQ(ab.failures, 0u);

    std::map<std::string, uint64_t> st = sys.ctx().stats().all();
    uint64_t inserts = st["kernel.conn_table_inserts"];
    uint64_t erases = st["kernel.conn_table_erases"];
    uint64_t lookups = st["kernel.conn_table_lookups"];
    uint64_t peak = st["kernel.conn_table_peak"];
    EXPECT_EQ(inserts, kRequests);
    EXPECT_EQ(erases, inserts); // every connection retired
    EXPECT_GE(lookups, kRequests); // one O(1) adoption per accept
    EXPECT_GE(peak, 2u);

    // Free-list recycling: the table is empty, every id is back on
    // the free-list, and only `peak` ids were ever minted — far fewer
    // than the number of connections served.
    const kern::ConnTable &ct = sys.kernel().connTable();
    EXPECT_EQ(ct.size(), 0u);
    EXPECT_EQ(ct.freeIds.size(), peak);
    EXPECT_EQ(ct.nextId - 1, peak);
    EXPECT_LT(ct.nextId - 1, inserts);
}

// ---------------------------------------------------------------------
// Fabric: DescRing delivery, probes, failure injection
// ---------------------------------------------------------------------

TEST(Fabric, RingDeliveryAndPing)
{
    Fabric fab(2, fleetSysConfig());
    fab.bootAll();

    std::vector<uint8_t> frame(3000, 0xab); // forces MTU chunking
    double hop = fab.sendToMachine(1, frame);
    EXPECT_GE(hop, 0.0);
    std::vector<uint8_t> got = fab.receiveAtMachine(1);
    EXPECT_EQ(got, frame);
    EXPECT_EQ(fab.framesToMachine(1), 1u);

    double back = fab.sendToLb(1, {1, 2, 3});
    EXPECT_GE(back, 0.0);
    EXPECT_EQ(fab.receiveAtLb(1), (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_EQ(fab.framesToLb(1), 1u);

    EXPECT_TRUE(fab.pingMachine(0));
    EXPECT_TRUE(fab.pingMachine(1));

    // A frame of more MTU chunks than the TX ring has slots: the
    // ring is doorbelled and reaped as it fills, the frame arrives
    // whole and the link stays healthy.
    std::vector<uint8_t> big(400 * 1024);
    for (size_t i = 0; i < big.size(); i++)
        big[i] = uint8_t(i * 31 + 7);
    ASSERT_GT(big.size() / hw::Nic::mtu, hw::ringSlots);
    uint64_t framesBefore = fab.framesToMachine(1);
    EXPECT_GT(fab.sendToMachine(1, big), 0.0);
    EXPECT_EQ(fab.receiveAtMachine(1), big);
    EXPECT_EQ(fab.framesToMachine(1), framesBefore + 1);
    EXPECT_TRUE(fab.pingMachine(1));

    fab.injectLinkFailure(0);
    EXPECT_FALSE(fab.pingMachine(0));
    EXPECT_LT(fab.sendToMachine(0, frame), 0.0);
    EXPECT_TRUE(fab.pingMachine(1)); // other links unaffected
}

// ---------------------------------------------------------------------
// L4 load balancer
// ---------------------------------------------------------------------

TEST(LoadBalancerTest, ConsistentHashStableAndBoundedChurn)
{
    LoadBalancer lb(LbPolicy::ConsistentHash, 4, 42);
    const uint64_t kFlows = 400;

    std::vector<int> before(kFlows);
    for (uint64_t f = 0; f < kFlows; f++) {
        before[f] = lb.route(f + 1);
        ASSERT_GE(before[f], 0);
        // Stability: the same key always lands on the same machine.
        EXPECT_EQ(lb.route(f + 1), before[f]);
    }

    lb.eject(2);
    uint64_t moved = 0;
    for (uint64_t f = 0; f < kFlows; f++) {
        int after = lb.route(f + 1);
        ASSERT_GE(after, 0);
        EXPECT_NE(after, 2);
        if (before[f] == 2) {
            EXPECT_NE(after, 2);
        } else {
            // Consistent-hash churn bound: only flows that hashed to
            // the ejected machine move.
            EXPECT_EQ(after, before[f]);
        }
        if (after != before[f])
            moved++;
    }
    EXPECT_GT(moved, 0u);
    EXPECT_LE(moved, kFlows / 2); // ~1/4 expected, never a reshuffle
}

TEST(LoadBalancerTest, LeastConnBalancesAndDrains)
{
    LoadBalancer lb(LbPolicy::LeastConn, 3, 42);
    std::vector<uint64_t> open(3, 0);
    for (uint64_t f = 0; f < 99; f++) {
        int m = lb.route(f);
        ASSERT_GE(m, 0);
        lb.connOpened(unsigned(m));
        open[unsigned(m)]++;
    }
    // Perfect balance: every route goes to the emptiest machine.
    EXPECT_EQ(open[0], 33u);
    EXPECT_EQ(open[1], 33u);
    EXPECT_EQ(open[2], 33u);

    lb.eject(1);
    EXPECT_EQ(lb.drain(1), 33u);
    EXPECT_EQ(lb.activeConns(1), 0u);
    EXPECT_EQ(lb.healthyCount(), 2u);
    for (uint64_t f = 0; f < 10; f++)
        EXPECT_NE(lb.route(f), 1);

    lb.eject(0);
    lb.eject(2);
    EXPECT_EQ(lb.route(1), -1); // nobody healthy
}

// ---------------------------------------------------------------------
// Tenant key chains
// ---------------------------------------------------------------------

TEST(TenantKeys, DerivationDistinctPerTenantAndGeneration)
{
    crypto::AesKey master{};
    for (int i = 0; i < 16; i++)
        master[size_t(i)] = uint8_t(i * 7 + 3);
    TenantDirectory dir(master, 8);

    std::set<std::vector<uint8_t>> seen;
    for (unsigned id = 0; id < 8; id++) {
        const Tenant &t = dir.tenant(id);
        EXPECT_EQ(t.keyGeneration, 1u);
        EXPECT_EQ(t.key, dir.deriveKey(id, 1));
        for (uint64_t gen = 1; gen <= 3; gen++) {
            crypto::AesKey k = dir.deriveKey(id, gen);
            seen.insert(
                std::vector<uint8_t>(k.begin(), k.end()));
        }
    }
    // 8 tenants x 3 generations, all pairwise distinct.
    EXPECT_EQ(seen.size(), 24u);

    crypto::AesKey old_key = dir.tenant(3).key;
    dir.migrate(3, 2);
    EXPECT_EQ(dir.tenant(3).primary, 2u);
    EXPECT_EQ(dir.tenant(3).keyGeneration, 2u);
    EXPECT_EQ(dir.tenant(3).migrations, 1u);
    EXPECT_NE(dir.tenant(3).key, old_key);
    EXPECT_EQ(dir.tenant(3).key, dir.deriveKey(3, 2));
    // Determinism: re-derivation of the dead generation still matches
    // what it was (the chain is a pure function of the master key).
    EXPECT_EQ(dir.deriveKey(3, 1), old_key);
}

// ---------------------------------------------------------------------
// FleetEquivalenceSweep: same seed => bit-identical fleet runs
// ---------------------------------------------------------------------

TEST(FleetEquivalenceSweep, SameSeedBitIdenticalAcrossScales)
{
    for (unsigned machines : {2u, 4u}) {
        for (unsigned vcpus : {1u, 2u}) {
            SCOPED_TRACE("machines=" + std::to_string(machines) +
                         " vcpus=" + std::to_string(vcpus));
            FleetConfig cfg = smallFleet(machines, vcpus);

            Fleet f1(cfg);
            FleetResult r1 = f1.run();
            Fleet f2(cfg);
            FleetResult r2 = f2.run();

            // The run did real work.
            EXPECT_GT(r1.served, 0u);
            EXPECT_EQ(r1.served + r1.failures + r1.dropped,
                      cfg.requests);
            EXPECT_EQ(r1.tenantFailures, 0u);

            // Bit-identical request and latency streams...
            EXPECT_EQ(r1.requestLog, r2.requestLog);
            EXPECT_EQ(r1.latencyUs, r2.latencyUs);
            // ...aggregates...
            EXPECT_EQ(r1.served, r2.served);
            EXPECT_EQ(r1.bytes, r2.bytes);
            EXPECT_EQ(r1.fleetTimeUs, r2.fleetTimeUs);
            EXPECT_EQ(r1.epochs, r2.epochs);
            EXPECT_EQ(r1.machineServed, r2.machineServed);
            // ...and full per-machine stat rollups.
            ASSERT_EQ(r1.machineStats.size(), machines);
            EXPECT_EQ(r1.machineStats, r2.machineStats);
        }
    }
}

TEST(FleetEquivalenceSweep, DifferentSeedDifferentStream)
{
    FleetConfig a = smallFleet(2, 1, 42);
    FleetConfig b = smallFleet(2, 1, 43);
    FleetResult ra = Fleet(a).run();
    FleetResult rb = Fleet(b).run();
    EXPECT_NE(ra.requestLog, rb.requestLog);
}

// ---------------------------------------------------------------------
// LB failover: drain, key-chain advance, zero disclosure
// ---------------------------------------------------------------------

namespace
{

/** Does @p needle appear anywhere in the machine's disk or RAM? */
bool
machineHoldsPattern(kern::System &sys,
                    const std::vector<uint8_t> &needle)
{
    hw::Disk &disk = sys.disk();
    for (uint64_t b = 0; b < disk.numBlocks(); b++) {
        const uint8_t *blk = disk.rawBlock(b);
        if (memmem(blk, hw::Disk::blockSize, needle.data(),
                   needle.size()))
            return true;
    }
    hw::PhysMem &mem = sys.mem();
    for (uint64_t f = 0; f < mem.numFrames(); f++) {
        if (memmem(mem.framePtr(f), hw::pageSize, needle.data(),
                   needle.size()))
            return true;
    }
    return false;
}

/** First @p n bytes of the plaintext a tenant writes into ghost page
 *  @p page under @p key. */
std::vector<uint8_t>
ghostNeedle(const crypto::AesKey &key, uint64_t page, size_t n)
{
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; i++)
        v[i] = ghostPatternByte(key, page, i);
    return v;
}

} // namespace

TEST(FleetFailover, EjectDrainsMigratesAndDisclosesNothing)
{
    FleetConfig cfg;
    cfg.machines = 3;
    cfg.tenants = 6;
    cfg.system = fleetSysConfig(1);
    cfg.requests = 48;
    cfg.openLoopRps = 5000.0;
    cfg.fileBytes = 1024;
    cfg.knobs.ghostPagesPerTenant = 4;
    cfg.knobs.concurrency = 8;

    const unsigned kVictim = 1;
    Fleet fleet(cfg);
    // Original gen-1 keys: what the victim held before the failure.
    std::vector<crypto::AesKey> gen1;
    for (unsigned t = 0; t < cfg.tenants; t++)
        gen1.push_back(fleet.tenants().deriveKey(t, 1));
    std::vector<unsigned> orig_primary;
    for (const Tenant &t : fleet.tenants().all())
        orig_primary.push_back(t.primary);

    fleet.scheduleFailure(kVictim, 2);
    FleetResult res = fleet.run();

    // The victim served before the failure, then got ejected.
    EXPECT_GT(res.machineServed[kVictim], 0u);
    EXPECT_FALSE(fleet.lb().healthy(kVictim));
    EXPECT_EQ(fleet.lb().activeConns(kVictim), 0u);

    // No lost requests: every request got an outcome, the survivors
    // absorbed the work, and the ghost tenants never failed.
    EXPECT_EQ(res.served + res.failures + res.dropped, cfg.requests);
    EXPECT_EQ(res.dropped, 0u);
    EXPECT_EQ(res.tenantFailures, 0u);
    EXPECT_EQ(res.requestLog.size(), res.served + res.failures);

    // Every tenant whose primary was the victim migrated: key chain
    // advanced, new primary healthy, survivors re-provisioned at the
    // new generation.
    unsigned migrated = 0;
    for (const Tenant &t : fleet.tenants().all()) {
        if (orig_primary[t.id] != kVictim)
            continue;
        migrated++;
        EXPECT_NE(t.primary, kVictim);
        EXPECT_GE(t.keyGeneration, 2u);
        EXPECT_GE(t.migrations, 1u);
        EXPECT_NE(t.key, gen1[t.id]);
        for (unsigned m = 0; m < cfg.machines; m++) {
            if (!fleet.lb().healthy(m))
                continue;
            EXPECT_EQ(
                fleet.fabric().machine(m).provisioned().at(t.id),
                t.keyGeneration);
        }
    }
    EXPECT_GT(migrated, 0u);

    // Zero-disclosure scan: neither the plaintext any tenant wrote
    // under its original key (scrubbed on exit, sealed on swap) nor
    // plaintext under the post-failover keys (never provisioned
    // there) appears anywhere in the victim's RAM or disk.
    kern::System &victim = fleet.fabric().machine(kVictim).sys();
    for (unsigned t = 0; t < cfg.tenants; t++) {
        for (uint64_t page = 0;
             page < cfg.knobs.ghostPagesPerTenant; page++) {
            EXPECT_FALSE(machineHoldsPattern(
                victim, ghostNeedle(gen1[t], page, 48)))
                << "gen-1 plaintext of tenant " << t << " page "
                << page << " leaked on the failed machine";
            EXPECT_FALSE(machineHoldsPattern(
                victim,
                ghostNeedle(fleet.tenants().tenant(t).key, page, 48)))
                << "current-gen plaintext of tenant " << t
                << " visible on the failed machine";
        }
    }
}
