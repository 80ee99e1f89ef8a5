/**
 * @file
 * Ghost-swap subsystem tests: the batched eviction pipeline against
 * digests recorded from the retired per-page path, bit-identity of a
 * batched swap-out with per-page swap-outs, the generation mechanism
 * that defeats stale replay, the second-chance eviction clock, and
 * pressure-triggered reclaim.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "crypto/drbg.hh"
#include "crypto/rsa.hh"
#include "crypto/sealed.hh"
#include "kernel/system.hh"

#include "crypto_ref.hh"
#include "golden.hh"

using namespace vg;
using namespace vg::kern;

namespace
{

SystemConfig
swapConfig(unsigned vcpus)
{
    SystemConfig cfg;
    cfg.vg = sim::VgConfig::full();
    cfg.vg.vcpus = vcpus;
    cfg.memFrames = 4096;
    cfg.diskBlocks = 16384; // 2048 swap blocks -> 1024 slots
    cfg.rsaBits = 384;
    return cfg;
}

/** What one swap corpus run produced. */
struct SwapResult
{
    uint64_t digest1 = 0; ///< pages after the first swap cycle
    uint64_t digest2 = 0; ///< pages after reclaim + rewrite cycle
    uint64_t swappedAtEnd = 0;
    std::map<std::string, uint64_t> stats;
    /** Clock and full stat map digest of the machine. */
    uint64_t machine = 0;
    uint64_t batches = 0;      ///< sva.ghost_swap_batches
    uint64_t writeBatches = 0; ///< swap.write_batches

    /** Ghost contents and work-done counter digest. */
    uint64_t
    content() const
    {
        test::Golden g;
        g.u64(digest1).u64(digest2).u64(swappedAtEnd).stats(stats);
        return g.h;
    }
};

/** Stats that count *work done*, not how it was batched or charged:
 *  the per-page path kept the same counts, so the content digest
 *  excludes the batch-mechanics counters (sva.ghost_swap_batches,
 *  swap.write_batches) and anything timing-dependent. */
const char *kSwapInvariantStats[] = {
    "swap.pages_stored",
    "swap.pages_loaded",
    "kernel.ghost_swapouts",
    "kernel.ghost_swapins",
    "kernel.ghost_faults",
    "kernel.ghost_reclaimed",
    "sva.ghost_pages_swapped_out",
    "sva.ghost_pages_swapped_in",
    "sva.ghost_pages_allocated",
    "sva.violations",
};

constexpr uint64_t kPages = 40;

/** A deterministic swap-heavy workload: alloc, seal-out, fault-in,
 *  rewrite, evict again, reclaim through the clock, fault everything
 *  back and digest it. */
SwapResult
runSwapCorpus(unsigned vcpus)
{
    SwapResult out;
    System sys(swapConfig(vcpus));
    sys.boot();

    sys.runProcess("swapper", [&](UserApi &api) {
        uint64_t pid = api.pid();
        hw::Vaddr base = api.allocGhost(kPages);
        EXPECT_NE(base, 0u);

        std::vector<uint8_t> page(hw::pageSize);
        for (uint64_t i = 0; i < kPages; i++) {
            for (size_t b = 0; b < page.size(); b++)
                page[b] = uint8_t(i * 131 + b * 7 + 1);
            EXPECT_TRUE(api.ghostWrite(base + i * hw::pageSize,
                                       page.data(), page.size()));
        }

        // Cycle 1: evict everything in batches, then fault
        // every page back in and digest it.
        EXPECT_EQ(sys.kernel().swapOutGhost(pid, kPages), kPages);
        EXPECT_EQ(sys.kernel().swappedGhostPages(pid), kPages);
        test::Golden d1;
        for (uint64_t i = 0; i < kPages; i++) {
            EXPECT_TRUE(api.ghostRead(base + i * hw::pageSize,
                                      page.data(), page.size()));
            d1.bytes(page.data(), page.size());
        }
        out.digest1 = d1.h;

        // Cycle 2: rewrite half the pages, evict a partial set, then
        // relieve pressure through the clock and digest everything.
        for (uint64_t i = 0; i < kPages; i += 2) {
            for (size_t b = 0; b < page.size(); b++)
                page[b] = uint8_t(i * 17 + b * 3 + 5);
            EXPECT_TRUE(api.ghostWrite(base + i * hw::pageSize,
                                       page.data(), page.size()));
        }
        EXPECT_EQ(sys.kernel().swapOutGhost(pid, 16), 16u);
        EXPECT_GT(sys.kernel().reclaimGhostFrames(8), 0u);

        test::Golden d2;
        for (uint64_t i = 0; i < kPages; i++) {
            EXPECT_TRUE(api.ghostRead(base + i * hw::pageSize,
                                      page.data(), page.size()));
            d2.bytes(page.data(), page.size());
        }
        out.digest2 = d2.h;
        out.swappedAtEnd = sys.kernel().swappedGhostPages(pid);
        return 0;
    });

    for (const char *k : kSwapInvariantStats)
        out.stats[k] = sys.ctx().stats().get(k);
    out.machine = test::Golden().machine(sys.ctx()).h;
    out.batches = sys.ctx().stats().get("sva.ghost_swap_batches");
    out.writeBatches = sys.ctx().stats().get("swap.write_batches");
    return out;
}

/** Recorded {content, machine} digests for vcpus = 1..4. */
constexpr uint64_t kSwapGolden[4][2] = {
    {0xa9df82206b27d756ull, 0xc5bde9b85aa49696ull},
    {0xa9df82206b27d756ull, 0x0c6157b77e163b2dull},
    {0xa9df82206b27d756ull, 0x9b6b04d83e9ab7e0ull},
    {0xa9df82206b27d756ull, 0xc82eef220a6b8b48ull},
};

} // namespace

TEST(GhostSwap, SwapGoldenSweep)
{
    for (unsigned vcpus = 1; vcpus <= 4; vcpus++) {
        SCOPED_TRACE("vcpus=" + std::to_string(vcpus));
        SwapResult r = runSwapCorpus(vcpus);
        EXPECT_EQ(r.stats["sva.violations"], 0u);
        // Pages were grouped into multi-page seal and doorbell
        // batches: fewer batches than pages stored.
        EXPECT_GT(r.batches, 0u);
        EXPECT_LT(r.writeBatches, r.stats["swap.pages_stored"]);

        EXPECT_TRUE(
            test::matchesGolden(r.content(), kSwapGolden[vcpus - 1][0]))
            << "content";
        EXPECT_TRUE(
            test::matchesGolden(r.machine, kSwapGolden[vcpus - 1][1]))
            << "machine";
    }
}

namespace
{

/** A booted VM with kPages ghost pages and no kernel: the swap
 *  intrinsics alone. The TPM seed fixes every key and nonce it draws,
 *  so two rigs are twins. */
struct VmRig
{
    static constexpr uint64_t kPages = 9;
    static constexpr uint64_t kPid = 1;

    sim::SimContext ctx;
    hw::PhysMem mem;
    hw::Mmu mmu;
    hw::Iommu iommu;
    hw::Tpm tpm;
    sva::SvaVm vm;
    std::deque<hw::Frame> freeFrames;

    static std::vector<uint8_t> tpmSeed() { return {'t', 'w', 'i', 'n'}; }

    static hw::Vaddr va(uint64_t i) { return hw::ghostBase + i * hw::pageSize; }

    /** Page @p i's contents: distinct bytes per page. */
    static std::vector<uint8_t>
    pageFill(uint64_t i)
    {
        std::vector<uint8_t> page(hw::pageSize);
        for (size_t j = 0; j < page.size(); j++)
            page[j] = uint8_t(i * 37 + j * 11 + (j >> 8));
        return page;
    }

    VmRig()
        : ctx(sim::VgConfig::full()), mem(256), mmu(mem, ctx),
          iommu(mem, ctx), tpm(tpmSeed()), vm(ctx, mem, mmu, iommu, tpm)
    {
        vm.install(384);
        vm.boot();
        for (hw::Frame f = 64; f < 256; f++)
            freeFrames.push_back(f);
        vm.setFrameProvider([this]() -> std::optional<hw::Frame> {
            if (freeFrames.empty())
                return std::nullopt;
            hw::Frame f = freeFrames.front();
            freeFrames.pop_front();
            return f;
        });
        vm.setFrameReceiver(
            [this](hw::Frame f) { freeFrames.push_back(f); });
        sva::SvaError err;
        EXPECT_TRUE(vm.declarePtPage(0, 4, &err)) << err.message;
        EXPECT_TRUE(vm.allocGhostMemory(kPid, 0, hw::ghostBase, kPages,
                                        &err))
            << err.message;
        EXPECT_TRUE(vm.loadRoot(0, &err)) << err.message;
        for (uint64_t i = 0; i < kPages; i++) {
            auto pte = mmu.probe(va(i));
            EXPECT_TRUE(pte.has_value());
            std::vector<uint8_t> fill = pageFill(i);
            mem.writeBytes(hw::pte::frameNum(*pte) * hw::pageSize,
                           fill.data(), fill.size());
        }
    }
};

/** The VM's swap key rebuilt from the TPM seed alone: the VM seeds its
 *  DRBG from the TPM's first 32 entropy bytes, generates its RSA key
 *  from the next 48 and hashes the private exponent. */
crypto::AesKey
referenceSwapKey()
{
    hw::Tpm tpm(VmRig::tpmSeed());
    tpm.entropy(32);
    crypto::CtrDrbg keygen(tpm.entropy(48));
    crypto::RsaPrivateKey priv = crypto::rsaGenerate(keygen, 384);
    std::vector<uint8_t> d = priv.d.toBytes();
    crypto_ref::Sha256 h;
    h.update("vg-swap-key", 11);
    h.update(d.data(), d.size());
    crypto::Digest digest = h.final();
    crypto::AesKey key{};
    std::copy_n(digest.begin(), key.size(), key.begin());
    return key;
}

/** The AAD a swapped page is bound to: pid, va and generation. */
std::vector<uint8_t>
referenceSwapAad(uint64_t pid, hw::Vaddr va, uint64_t gen)
{
    std::vector<uint8_t> aad(24);
    std::memcpy(aad.data(), &pid, 8);
    std::memcpy(aad.data() + 8, &va, 8);
    std::memcpy(aad.data() + 16, &gen, 8);
    return aad;
}

} // namespace

TEST(GhostSwap, BatchSwapOutMatchesPerPageSwapOut)
{
    // One swapOutGhostBatch over nine pages and nine single-page calls
    // on a twin VM draw generations and nonces in the same order, so
    // they give the same wire bytes. Each frame opens under the
    // textbook construction, with the key and AAD rebuilt outside the
    // VM, to the page that was swapped out.
    VmRig batched, single;
    std::vector<hw::Vaddr> vas;
    for (uint64_t i = 0; i < VmRig::kPages; i++)
        vas.push_back(VmRig::va(i));
    sim::Cycles batched_t0 = batched.ctx.clock().now();
    sim::Cycles single_t0 = single.ctx.clock().now();

    sva::SvaError err;
    std::vector<std::vector<uint8_t>> wires =
        batched.vm.swapOutGhostBatch(VmRig::kPid, 0, vas, &err);
    ASSERT_EQ(wires.size(), vas.size()) << err.message;
    std::vector<std::vector<uint8_t>> singles;
    for (hw::Vaddr va : vas) {
        std::vector<std::vector<uint8_t>> one =
            single.vm.swapOutGhostBatch(VmRig::kPid, 0, {va}, &err);
        ASSERT_EQ(one.size(), 1u) << err.message;
        singles.push_back(std::move(one[0]));
    }

    crypto::AesKey key = referenceSwapKey();
    for (uint64_t i = 0; i < vas.size(); i++) {
        EXPECT_EQ(wires[i], singles[i]) << "page " << i;
        uint64_t gen = batched.vm.swapGeneration(VmRig::kPid, vas[i]);
        EXPECT_EQ(gen, i + 1);
        EXPECT_EQ(single.vm.swapGeneration(VmRig::kPid, vas[i]), gen);
        for (const std::vector<uint8_t> *w : {&wires[i], &singles[i]}) {
            bool ok = false;
            EXPECT_EQ(crypto_ref::unseal(key, *w, ok,
                                         referenceSwapAad(VmRig::kPid,
                                                          vas[i], gen)),
                      VmRig::pageFill(i))
                << "page " << i;
            EXPECT_TRUE(ok) << "page " << i;
        }
    }

    // The batch paid the fixed seal setup once, the single calls nine
    // times; every other cost is per page.
    EXPECT_EQ(batched.ctx.stats().get("sva.ghost_swap_batches"), 1u);
    EXPECT_EQ(single.ctx.stats().get("sva.ghost_swap_batches"),
              VmRig::kPages);
    EXPECT_EQ((single.ctx.clock().now() - single_t0) -
                  (batched.ctx.clock().now() - batched_t0),
              (VmRig::kPages - 1) * batched.ctx.costs().sealSetup);
}

TEST(GhostSwap, SwapGenerationAdvancesPerEviction)
{
    // Every swap-out seals under a fresh monotonic generation, and a
    // successful swap-in retires the record — the mechanism that makes
    // stale sealed pages unreplayable.
    System sys(swapConfig(1));
    sys.boot();
    sys.runProcess("gen", [&](UserApi &api) {
        uint64_t pid = api.pid();
        hw::Vaddr gva = api.allocGhost(1);
        const char msg[] = "generation test page";
        EXPECT_TRUE(api.ghostWrite(gva, msg, sizeof(msg)));

        EXPECT_EQ(sys.vm().swapGeneration(pid, gva), 0u);
        EXPECT_EQ(sys.kernel().swapOutGhost(pid, 1), 1u);
        uint64_t g1 = sys.vm().swapGeneration(pid, gva);
        EXPECT_GT(g1, 0u);

        // Fault it back in: the generation record is retired.
        char c = 0;
        EXPECT_TRUE(api.ghostRead(gva, &c, 1));
        EXPECT_EQ(sys.vm().swapGeneration(pid, gva), 0u);

        // The next eviction gets a strictly newer generation.
        EXPECT_EQ(sys.kernel().swapOutGhost(pid, 1), 1u);
        uint64_t g2 = sys.vm().swapGeneration(pid, gva);
        EXPECT_GT(g2, g1);

        EXPECT_TRUE(api.ghostRead(gva, &c, 1));
        EXPECT_EQ(c, 'g');
        return 0;
    });
}

TEST(GhostSwap, FreeOverSwappedPageFreesNothing)
{
    // freegm validates the whole range first: a swapped-out page in
    // the middle of it frees nothing, so the VM and the eviction clock
    // still agree and the clock's victims swap out as one batch.
    System sys(swapConfig(1));
    sys.boot();
    sys.runProcess("freer", [&](UserApi &api) {
        uint64_t pid = api.pid();
        hw::Vaddr base = api.allocGhost(4);
        EXPECT_NE(base, 0u);
        // Cycle page 0 out and back in so that page 1 is the next
        // eviction.
        uint64_t v = 0;
        EXPECT_EQ(sys.kernel().swapOutGhost(pid, 1), 1u);
        EXPECT_TRUE(api.ghostRead(base, &v, sizeof(v)));
        EXPECT_EQ(sys.kernel().swapOutGhost(pid, 1), 1u);
        EXPECT_TRUE(sys.kernel().swapArea()->contains(
            pid, base + hw::pageSize));

        EXPECT_FALSE(api.freeGhost(base, 4));
        EXPECT_EQ(sys.vm().ghostPageCount(pid), 3u);
        EXPECT_EQ(sys.kernel().ghostClock().size(), 3u);

        uint64_t batches = sys.ctx().stats().get("sva.ghost_swap_batches");
        EXPECT_EQ(sys.kernel().reclaimGhostFrames(3), 3u);
        EXPECT_EQ(sys.ctx().stats().get("sva.ghost_swap_batches"),
                  batches + 1);
        EXPECT_EQ(sys.vm().ghostPageCount(pid), 0u);
        EXPECT_EQ(sys.kernel().swappedGhostPages(pid), 4u);
        return 0;
    });
}

TEST(GhostSwap, FailedAllocLeavesNoOrphans)
{
    // allocgm is all or nothing: an allocation the OS cannot fill
    // maps no page, leaves nothing the clock cannot see, and the next
    // small allocation succeeds at the cursor the failed call left.
    SystemConfig cfg = swapConfig(1);
    cfg.memFrames = 1024;
    System sys(cfg);
    sys.boot();
    sys.runProcess("greedy", [&](UserApi &api) {
        uint64_t pid = api.pid();
        hw::Vaddr base = api.allocGhost(8);
        EXPECT_NE(base, 0u);
        // The reclaim ahead of the call may swap the first pages out;
        // the failed call itself leaves no page behind.
        EXPECT_EQ(api.allocGhost(3000), 0u);
        uint64_t resident = sys.vm().ghostPageCount(pid);
        EXPECT_EQ(resident + sys.kernel().swappedGhostPages(pid), 8u);
        EXPECT_EQ(sys.kernel().ghostClock().size(), resident);
        EXPECT_EQ(api.allocGhost(1), base + 8 * hw::pageSize);
        EXPECT_EQ(sys.vm().ghostPageCount(pid), resident + 1);
        return 0;
    });
}

TEST(GhostSwap, SecondChanceClockSparesReferencedPages)
{
    System sys(swapConfig(1));
    sys.boot();
    sys.runProcess("clock", [&](UserApi &api) {
        uint64_t pid = api.pid();
        hw::Vaddr base = api.allocGhost(4);
        uint64_t v = 0;
        for (uint64_t i = 0; i < 4; i++) {
            v = 0x1111 * (i + 1);
            EXPECT_TRUE(api.ghostWrite(base + i * hw::pageSize, &v,
                                       sizeof(v)));
        }
        EXPECT_EQ(sys.kernel().ghostClock().size(), 4u);

        // Clear every hardware reference bit, then touch only page 2.
        hw::Frame root = sys.kernel().process(pid)->rootFrame;
        for (uint64_t i = 0; i < 4; i++)
            sys.vm().ghostPageTestClearRef(pid, root,
                                           base + i * hw::pageSize);
        EXPECT_FALSE(sys.vm().ghostPageReferenced(
            pid, root, base + 2 * hw::pageSize));
        EXPECT_TRUE(api.ghostRead(base + 2 * hw::pageSize, &v,
                                  sizeof(v)));
        EXPECT_TRUE(sys.vm().ghostPageReferenced(
            pid, root, base + 2 * hw::pageSize));

        // Reclaim three frames: the referenced page gets its second
        // chance and every unreferenced page goes to swap instead.
        EXPECT_EQ(sys.kernel().reclaimGhostFrames(3), 3u);
        EXPECT_FALSE(
            sys.kernel().swapArea()->contains(pid,
                                              base + 2 * hw::pageSize));
        for (uint64_t i : {0u, 1u, 3u})
            EXPECT_TRUE(sys.kernel().swapArea()->contains(
                pid, base + i * hw::pageSize));

        // The survivor's reference bit was consumed by the sweep.
        EXPECT_FALSE(sys.vm().ghostPageReferenced(
            pid, root, base + 2 * hw::pageSize));

        // Everything still reads back correctly.
        for (uint64_t i = 0; i < 4; i++) {
            EXPECT_TRUE(api.ghostRead(base + i * hw::pageSize, &v,
                                      sizeof(v)));
            EXPECT_EQ(v, 0x1111 * (i + 1));
        }
        return 0;
    });
}

TEST(GhostSwap, AllocationUnderPressureReclaimsTransparently)
{
    // Oversubscribe physical memory with ghost allocations: the
    // headroom check in allocgm() must push old ghost pages to swap
    // instead of failing, and every page must survive the round trip.
    SystemConfig cfg = swapConfig(1);
    cfg.diskBlocks = 65536; // 8192 swap blocks -> 4096 slots
    System sys(cfg);
    sys.boot();
    sys.runProcess("hog", [&](UserApi &api) {
        uint64_t free0 = sys.kernel().freeFrames();
        EXPECT_GT(free0, 128u);
        if (free0 <= 128)
            return 1;

        // First wave fills most of memory; second wave cannot fit
        // without eviction.
        uint64_t wave = (free0 * 2) / 3;
        hw::Vaddr a = api.allocGhost(wave);
        EXPECT_NE(a, 0u);
        hw::Vaddr b = a ? api.allocGhost(wave) : 0;
        EXPECT_NE(b, 0u);
        if (!a || !b)
            return 1;
        uint64_t v = 0;
        for (uint64_t i = 0; i < wave; i++) {
            v = 0xAAAA0000 + i;
            EXPECT_TRUE(api.ghostWrite(a + i * hw::pageSize, &v,
                                       sizeof(v)));
        }
        for (uint64_t i = 0; i < wave; i++) {
            v = 0xBBBB0000 + i;
            EXPECT_TRUE(api.ghostWrite(b + i * hw::pageSize, &v,
                                       sizeof(v)));
        }

        // Pressure relief actually ran...
        EXPECT_GT(sys.ctx().stats().get("kernel.ghost_reclaimed"), 0u);
        EXPECT_GT(sys.kernel().swappedGhostPages(api.pid()), 0u);
        // ...and the allocator kept its headroom.
        EXPECT_GT(sys.kernel().freeFrames(), 0u);

        // Every page of both waves reads back through the fault path.
        for (uint64_t i = 0; i < wave; i++) {
            EXPECT_TRUE(api.ghostRead(a + i * hw::pageSize, &v,
                                      sizeof(v)));
            EXPECT_EQ(v, 0xAAAA0000 + i);
        }
        for (uint64_t i = 0; i < wave; i++) {
            EXPECT_TRUE(api.ghostRead(b + i * hw::pageSize, &v,
                                      sizeof(v)));
            EXPECT_EQ(v, 0xBBBB0000 + i);
        }
        EXPECT_EQ(sys.vm().violationCount(), 0u);
        return 0;
    });
}

TEST(GhostSwap, SwapSlotsReuseLowestFree)
{
    // Eight passes of evicting every page and faulting it back (in a
    // shuffled order) must keep reusing the bottom of the swap area,
    // never walk it.
    System sys(swapConfig(1));
    sys.boot();
    sys.runProcess("swapper", [&](UserApi &api) {
        hw::Vaddr base = api.allocGhost(kPages);
        EXPECT_NE(base, 0u);
        if (!base)
            return 1;
        const SwapArea &area = *sys.kernel().swapArea();
        uint64_t v = 0;
        for (int pass = 0; pass < 8; pass++) {
            EXPECT_EQ(sys.kernel().swapOutGhost(api.pid(), kPages),
                      kPages);
            uint64_t highest = 0;
            for (uint64_t s = 0; s < area.slotCount(); s++)
                if (area.slots()[s].used)
                    highest = s;
            EXPECT_LT(highest, kPages + Kernel::evictBatchPages)
                << "pass " << pass;
            for (uint64_t i = 0; i < kPages; i++)
                EXPECT_TRUE(api.ghostRead(
                    base + (i * 7 % kPages) * hw::pageSize, &v, sizeof(v)));
            EXPECT_EQ(area.usedSlots(), 0u);
        }
        return 0;
    });
}
