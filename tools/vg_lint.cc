/**
 * @file
 * vg_lint: run the machine-code safety verifier from the command line.
 *
 * Compiles a VIR module exactly as the kernel's trusted translator
 * would (same passes, same layout) and then runs McodeVerifier over the
 * resulting image, printing each finding as
 *
 *     vg_lint: <function> @ 0x<addr>: [VG-xx-nn] <message>
 *
 * Compilation flags (--no-sandbox/--no-cfi/--native) and the
 * verification policy (--require-sandbox/--require-cfi) are controlled
 * independently, so a module compiled without CFI can be linted against
 * a CFI-requiring policy — that is the CI known-bad fixture. --inject
 * applies one miscompile kind from minject.hh after layout, modelling a
 * buggy pass pipeline, and --self-test sweeps every kind x site on an
 * embedded module and demands 100% detection.
 *
 * Exit status: 0 clean, 1 findings (or failed self-test), 2 usage or
 * translation error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "compiler/iflow.hh"
#include "compiler/minject.hh"
#include "compiler/mverify.hh"
#include "compiler/translator.hh"
#include "fleet/fleet.hh"
#include "kernel/system.hh"
#include "sim/context.hh"
#include "sva/iflow_meta.hh"

namespace
{

using namespace vg;

constexpr uint64_t kCodeBase = 0xffffff9000000000ull;

/** Built-in module for --self-test (same shape as the CI fixture). */
const char *kSelfTestSrc = R"(
func @checksum(2) {
entry:
  %2 = const 0
  %3 = const 0
  br head
head:
  %4 = icmp ult %3, %1
  condbr %4, body, done
body:
  %5 = add %0, %3
  %6 = load.i8 %5
  %2 = add %2, %6
  %7 = const 1
  %3 = add %3, %7
  br head
done:
  ret %2
}

func @copy8(2) {
entry:
  %2 = const 8
  memcpy %1, %0, %2
  %3 = load.i64 %1
  store.i64 %0, %3
  ret %3
}

func @dispatch(2) {
entry:
  %2 = funcaddr @checksum
  %3 = callind %2(%0, %1)
  %4 = call @copy8(%0, %1)
  %5 = add %3, %4
  ret %5
}
)";

/** Built-in ghost-handling module for the iflow leg of --self-test:
 *  sealed flows to every channel class, so all three static injection
 *  kinds (drop-seal, raw-store, stat-leak) have sites. */
const char *kIflowSelfTestSrc = R"(
func @beacon(1) {
entry:
  %1 = call @sva_ghost_read(%0)
  %2 = call @sva_seal(%1)
  %3 = call @k_nic_tx(%2)
  ret %3
}

func @swap_out(2) {
entry:
  %2 = call @sva_ghost_read(%0)
  %3 = call @sva_seal(%2)
  %4 = call @k_swap_slot_ptr(%1)
  store.i64 %4, %3
  %5 = call @k_swap_store(%1, %3)
  %6 = call @k_stat_add(%1)
  ret %5
}
)";

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: vg_lint [options] <module.vir | ->\n"
        "       vg_lint --self-test\n"
        "\n"
        "Compile a VIR module with the trusted translator's passes and\n"
        "run the machine-code safety verifier over the result.\n"
        "\n"
        "compilation flags:\n"
        "  --native          compile with all instrumentation off\n"
        "  --no-sandbox      disable the sandboxing pass\n"
        "  --no-cfi          disable the CFI pass\n"
        "\n"
        "verification policy (defaults follow the compilation flags):\n"
        "  --require-sandbox enforce VG-SB rules regardless of flags\n"
        "  --require-cfi     enforce VG-CFI rules regardless of flags\n"
        "  --iflow           also run the information-flow verifier\n"
        "                    (rules VG-IF-01..05) and count its\n"
        "                    findings in the exit status\n"
        "\n"
        "fault injection:\n"
        "  --inject KIND[:SITE]  apply one miscompile after layout\n"
        "                        (drop-mask, clobber-mask,\n"
        "                        strip-entry-label, strip-return-label,\n"
        "                        raw-ret, raw-callind, bad-jump-target,\n"
        "                        forge-label, iflow-drop-seal,\n"
        "                        iflow-raw-store, iflow-stat-leak);\n"
        "                        SITE defaults to 0\n"
        "\n"
        "  --self-test       sweep every kind x site on built-in\n"
        "                    modules (mcode kinds against the safety\n"
        "                    verifier, iflow kinds against the\n"
        "                    information-flow verifier); exit 0 iff\n"
        "                    detection is 100%% and both report 0\n"
        "                    findings when clean\n"
        "\n"
        "information flow:\n"
        "  --dump-iflow      print the extern information-flow\n"
        "                    lattice (sources, declassifiers, sinks\n"
        "                    and their channels) followed by the\n"
        "                    module's iflow findings; exit 1 if any\n"
        "\n"
        "async I/O:\n"
        "  --dump-rings      boot a machine, run a small disk+net\n"
        "                    workload through the descriptor rings and\n"
        "                    print live ring state (head/tail,\n"
        "                    in-flight descriptors, IRQ lines, the\n"
        "                    coalescing timer); takes no module\n"
        "\n"
        "ghost swap:\n"
        "  --dump-swap       boot a machine, push a ghost working set\n"
        "                    through the batched eviction pipeline and\n"
        "                    print the swap-slot table, the clock\n"
        "                    hand, batch sizes and the seal-key\n"
        "                    generation; takes no module\n"
        "\n"
        "fleet serving:\n"
        "  --dump-fleet      run a small fleet (with one injected\n"
        "                    machine failure) and print the fabric\n"
        "                    topology, per-machine LB connection\n"
        "                    counts and per-tenant key-chain state;\n"
        "                    takes no module\n"
        "\n"
        "exit status: 0 clean, 1 findings, 2 usage/translate error\n");
}

int
usage()
{
    printUsage(stderr);
    return 2;
}

struct Options
{
    sim::VgConfig config;
    bool requireSandbox = false;
    bool requireCfi = false;
    bool haveInject = false;
    cc::Miscompile injectKind = cc::Miscompile::DropMask;
    size_t injectSite = 0;
    bool selfTest = false;
    bool iflow = false;
    bool dumpIflow = false;
    bool dumpRings = false;
    bool dumpSwap = false;
    bool dumpFleet = false;
    std::string input;
};

cc::McodePolicy
policyFor(const Options &opt)
{
    cc::McodePolicy policy = cc::McodePolicy::fromConfig(opt.config);
    policy.requireSandbox |= opt.requireSandbox;
    policy.requireCfi |= opt.requireCfi;
    return policy;
}

/** Translate with both verifier gates off: vg_lint runs the verifiers
 *  itself so it can report findings instead of a refusal. */
cc::TranslateResult
compile(const Options &opt, const std::string &text)
{
    sim::VgConfig cfg = opt.config;
    cfg.verifyMcode = false;
    cfg.verifyIflow = false;
    sim::SimContext ctx(cfg);
    std::vector<uint8_t> key(32, 0x42);
    cc::Translator translator(key, ctx);
    return translator.translateText(text, kCodeBase);
}

int
lint(const Options &opt, const std::string &text)
{
    cc::TranslateResult tr = compile(opt, text);
    if (!tr.ok) {
        std::fprintf(stderr, "vg_lint: translation failed: %s\n",
                     tr.error.c_str());
        return 2;
    }

    cc::MachineImage image = *tr.image;
    if (opt.haveInject) {
        auto sites = cc::miscompileSites(image, opt.injectKind);
        if (!cc::injectMiscompile(image, opt.injectKind,
                                  opt.injectSite)) {
            std::fprintf(stderr,
                         "vg_lint: --inject %s: site %zu out of range "
                         "(%zu sites)\n",
                         cc::miscompileName(opt.injectKind),
                         opt.injectSite, sites.size());
            return 2;
        }
    }

    cc::McodeVerifier verifier(policyFor(opt));
    cc::McodeVerifyResult res = verifier.verify(image);
    for (const cc::McodeFinding &f : res.findings)
        std::printf("vg_lint: %s\n", f.render().c_str());
    size_t findings = res.findings.size();
    if (opt.iflow) {
        cc::IflowResult ires = cc::IflowVerifier{}.verify(image);
        for (const cc::IflowFinding &f : ires.findings)
            std::printf("vg_lint: %s\n", f.render().c_str());
        findings += ires.findings.size();
    }
    std::printf("vg_lint: %s: %llu function(s), %llu instruction(s), "
                "%zu finding(s)\n",
                image.moduleName.empty() ? "<module>"
                                         : image.moduleName.c_str(),
                (unsigned long long)res.functionsChecked,
                (unsigned long long)res.instsChecked, findings);
    return findings == 0 ? 0 : 1;
}

/**
 * --dump-iflow: print the extern information-flow lattice the verifier
 * trusts (the only policy input it has), then the module's findings.
 * The lattice dump doubles as documentation: it is generated from
 * sva/iflow_meta.hh, so it cannot drift from what is enforced.
 */
int
dumpIflow(const Options &opt, const std::string &text)
{
    std::printf("vg_lint: extern information-flow lattice:\n");
    size_t count = 0;
    const sva::IfExternEntry *table = sva::iflowExternTable(count);
    for (size_t i = 0; i < count; i++) {
        const sva::IfExternEntry &e = table[i];
        const char *role = "?";
        switch (e.info.role) {
        case sva::IfRole::SourceData:
            role = "source";
            break;
        case sva::IfRole::SourcePtr:
            role = "source-ptr";
            break;
        case sva::IfRole::Declassifier:
            role = "declassifier";
            break;
        case sva::IfRole::Sink:
            role = "sink";
            break;
        case sva::IfRole::SinkPtr:
            role = "sink-ptr";
            break;
        }
        std::printf("vg_lint:   %-16s %-12s channel=%-6s %s\n", e.name,
                    role, sva::iflowChannelName(e.info.channel),
                    e.desc);
    }
    std::printf("vg_lint:   <unknown extern>  sink         "
                "channel=extern default-deny\n");

    cc::TranslateResult tr = compile(opt, text);
    if (!tr.ok) {
        std::fprintf(stderr, "vg_lint: translation failed: %s\n",
                     tr.error.c_str());
        return 2;
    }
    cc::MachineImage image = *tr.image;
    if (opt.haveInject &&
        !cc::injectMiscompile(image, opt.injectKind, opt.injectSite)) {
        std::fprintf(stderr, "vg_lint: --inject %s: site %zu out of "
                             "range\n",
                     cc::miscompileName(opt.injectKind),
                     opt.injectSite);
        return 2;
    }
    cc::IflowResult res = cc::IflowVerifier{}.verify(image);
    for (const cc::IflowFinding &f : res.findings)
        std::printf("vg_lint: %s\n", f.render().c_str());
    std::printf("vg_lint: %s: %llu function(s), %llu instruction(s), "
                "%zu iflow finding(s)\n",
                image.moduleName.empty() ? "<module>"
                                         : image.moduleName.c_str(),
                (unsigned long long)res.functionsChecked,
                (unsigned long long)res.instsChecked,
                res.findings.size());
    return res.findings.empty() ? 0 : 1;
}

const char *
slotName(hw::DescRing::Slot s)
{
    switch (s) {
    case hw::DescRing::Slot::Free:
        return "free";
    case hw::DescRing::Slot::Posted:
        return "posted";
    case hw::DescRing::Slot::InFlight:
        return "in-flight";
    case hw::DescRing::Slot::Done:
        return "done";
    }
    return "?";
}

void
printRing(const char *name, const hw::DescRing &ring)
{
    std::printf("vg_lint: ring %s: size %u head %llu tail %llu "
                "in-flight %u pending-completions %llu\n",
                name, ring.size(), (unsigned long long)ring.head(),
                (unsigned long long)ring.tail(), ring.inFlight(),
                (unsigned long long)ring.pendingCompletions());
    for (uint32_t i = 0; i < ring.size(); i++) {
        const hw::DescRing::Entry &e = ring.slot(i);
        if (e.state == hw::DescRing::Slot::Free)
            continue;
        std::printf("vg_lint:   slot %u: %s gen %u len %u %s "
                    "cookie 0x%llx doneAt %llu%s\n",
                    i, slotName(e.state), e.gen, e.desc.len,
                    e.desc.useDma ? "dma"
                    : e.desc.write ? "host-write"
                                   : "host",
                    (unsigned long long)e.desc.cookie,
                    (unsigned long long)e.doneAt,
                    e.error ? " ERROR" : "");
    }
}

void
printIrq(const hw::IrqLine &irq)
{
    std::printf("vg_lint: irq %s: cpu %u pending %s at %llu "
                "raises %llu\n",
                irq.name().c_str(), irq.cpu(),
                irq.pending() ? "yes" : "no",
                (unsigned long long)irq.pendingAt(),
                (unsigned long long)irq.raises());
}

/**
 * --dump-rings: boot a machine, push a small disk + network workload
 * through the async stack, then leave a few descriptors posted so the
 * dump shows live in-flight state, not just drained rings.
 */
int
dumpRings()
{
    kern::SystemConfig cfg;
    cfg.memFrames = 4096;
    cfg.diskBlocks = 4096;
    cfg.rsaBits = 384;
    kern::System sys(cfg);
    sys.boot();

    sys.runProcess("ringdump", [&](kern::UserApi &api) {
        // Network leg: a loopback echo so both NIC rings carry
        // traffic.
        uint64_t srv = api.fork([](kern::UserApi &capi) {
            int ls = capi.socket();
            capi.bind(ls, 7);
            capi.listen(ls);
            int c = capi.accept(ls);
            char buf[2048];
            while (capi.recvHost(c, buf, sizeof(buf)) > 0) {
            }
            capi.close(c);
            capi.close(ls);
            return 0;
        });
        for (int i = 0; i < 4; i++)
            api.yield();
        int fd = api.connect(7);
        std::vector<uint8_t> msg(4096, 0x7e);
        for (int chunk = 0; chunk < 4; chunk++) {
            // Let the server block in recvHost first so delivery runs
            // the full doorbell -> IRQ -> softirq -> wake path.
            for (int i = 0; i < 4; i++)
                api.yield();
            api.sendHost(fd, msg.data(), msg.size());
        }
        api.close(fd);
        int status = -1;
        api.waitpid(srv, status);

        // Disk leg: dirty some blocks and force writeback through the
        // request queue.
        int f = api.open("/rings.dat", true);
        hw::Vaddr va = api.mmap(8 * hw::pageSize);
        std::vector<uint8_t> data(16 * 1024, 0x5d);
        api.copyToUser(va, data.data(), data.size());
        api.write(f, va, data.size());
        api.fsync(f);
        api.close(f);
        return 0;
    });

    // Post (but do not doorbell) a few descriptors so the dump shows
    // live occupancy.
    static std::vector<uint8_t> payload(600, 0xab);
    hw::RingDesc tx;
    tx.host = payload.data();
    tx.len = uint32_t(payload.size());
    tx.cookie = 1;
    sys.nicA().txPost(tx);
    tx.cookie = 2;
    sys.nicA().txPost(tx);
    static std::vector<uint8_t> block(hw::Disk::blockSize);
    hw::RingDesc rd;
    rd.block = 5;
    rd.hostOut = block.data();
    rd.len = uint32_t(block.size());
    rd.cookie = 3;
    sys.disk().submit(rd);

    std::printf("vg_lint: ring size %u; coalescing window %u us "
                "(%.0f cycles)\n",
                hw::ringSlots, kern::Kernel::irqHoldoffUs,
                kern::Kernel::irqHoldoffUs * sim::Clock::cyclesPerUsec);
    printRing("nicA.tx", sys.nicA().txRing());
    printRing("nicA.rx", sys.nicA().rxRing());
    printRing("nicB.tx", sys.nicB().txRing());
    printRing("nicB.rx", sys.nicB().rxRing());
    printRing("disk.queue", sys.disk().queue());
    printIrq(sys.nicA().irq());
    printIrq(sys.nicB().irq());
    printIrq(sys.disk().irq());
    for (unsigned c = 0; c < sys.ctx().vcpuCount(); c++)
        std::printf("vg_lint: coalescing timer cpu%u: last device "
                    "irq at %llu (clock %llu)\n",
                    c, (unsigned long long)sys.kernel().lastIrqAt(c),
                    (unsigned long long)sys.ctx().clockOf(c).now());
    std::printf("vg_lint: stats: device_irqs %llu coalesced %llu "
                "softirq_wakes %llu zero_copy_sends %llu\n",
                (unsigned long long)sys.ctx().stats().get(
                    "kernel.device_irqs"),
                (unsigned long long)sys.ctx().stats().get(
                    "kernel.irqs_coalesced"),
                (unsigned long long)sys.ctx().stats().get(
                    "kernel.softirq_wakes"),
                (unsigned long long)sys.ctx().stats().get(
                    "kernel.zero_copy_sends"));
    return 0;
}

/**
 * --dump-swap: boot a machine, drive a ghost working set through the
 * eviction pipeline (swap everything eligible out in one batch, fault
 * part of it back in), then print the swap-slot table, the clock hand,
 * batch geometry and the seal-key generation — the state the paging
 * tentpole keeps, none of which lets the OS read a page.
 */
int
dumpSwap()
{
    kern::SystemConfig cfg;
    cfg.memFrames = 4096;
    cfg.diskBlocks = 4096;
    cfg.rsaBits = 384;
    kern::System sys(cfg);
    sys.boot();

    int rc = sys.runProcess("swapdump", [&](kern::UserApi &api) {
        uint64_t pid = api.pid();
        constexpr uint64_t kPages = 12;
        hw::Vaddr base = api.allocGhost(kPages);
        if (!base)
            return 1;
        std::vector<uint8_t> page(hw::pageSize, 0x6b);
        for (uint64_t i = 0; i < kPages; i++) {
            page[0] = uint8_t(i);
            if (!api.ghostWrite(base + i * hw::pageSize, page.data(),
                                page.size()))
                return 1;
        }
        // Evict eight pages through the batched pipeline, then fault
        // three back, so the dump shows used slots, a mid-ring clock
        // hand and nonzero batch/cluster counters all at once. The
        // clock evicts in ring order, so the faulted vas were swapped.
        if (sys.kernel().swapOutGhost(pid, 8) != 8)
            return 1;
        uint64_t v = 0;
        for (uint64_t i = 0; i < 3; i++)
            if (!api.ghostRead(base + i * hw::pageSize, &v, sizeof(v)))
                return 1;

        const kern::SwapArea *swap = sys.kernel().swapArea();
        std::printf("vg_lint: ghost swap: eviction batch %u page(s), "
                    "read cluster %u slot(s), seal-key gen %llu\n",
                    kern::Kernel::evictBatchPages,
                    kern::SwapArea::readaheadSlots,
                    (unsigned long long)sys.vm().sealKeyGeneration());
        std::printf("vg_lint: swap area: %llu slot(s) x %llu blocks "
                    "at block %llu; used %llu free %llu; last batch "
                    "%llu page(s)\n",
                    (unsigned long long)swap->slotCount(),
                    (unsigned long long)kern::SwapArea::blocksPerSlot,
                    (unsigned long long)swap->firstBlock(),
                    (unsigned long long)swap->usedSlots(),
                    (unsigned long long)swap->freeSlots(),
                    (unsigned long long)swap->lastBatchPages());
        const std::vector<kern::SwapSlot> &slots = swap->slots();
        for (uint32_t i = 0; i < slots.size(); i++) {
            const kern::SwapSlot &s = slots[i];
            if (!s.used)
                continue;
            std::printf("vg_lint:   slot %u: pid %llu va 0x%llx gen "
                        "%llu len %u block %llu\n",
                        i, (unsigned long long)s.pid,
                        (unsigned long long)s.va,
                        (unsigned long long)s.gen, s.len,
                        (unsigned long long)(swap->firstBlock() +
                                             uint64_t(i) *
                                                 kern::SwapArea::
                                                     blocksPerSlot));
        }
        const kern::GhostClock &clock = sys.kernel().ghostClock();
        if (auto hand = clock.handPage())
            std::printf("vg_lint: clock: %zu resident ghost page(s); "
                        "hand at pid %llu va 0x%llx\n",
                        clock.size(), (unsigned long long)hand->first,
                        (unsigned long long)hand->second);
        else
            std::printf("vg_lint: clock: empty\n");
        const sim::StatSet &st = sys.ctx().stats();
        std::printf("vg_lint: stats: pages_stored %llu pages_loaded "
                    "%llu write_batches %llu read_clusters %llu "
                    "ghost_swapouts %llu ghost_swapins %llu\n",
                    (unsigned long long)st.get("swap.pages_stored"),
                    (unsigned long long)st.get("swap.pages_loaded"),
                    (unsigned long long)st.get("swap.write_batches"),
                    (unsigned long long)st.get("swap.read_clusters"),
                    (unsigned long long)st.get("kernel.ghost_swapouts"),
                    (unsigned long long)st.get("kernel.ghost_swapins"));
        return 0;
    });
    if (rc != 0)
        std::fprintf(stderr,
                     "vg_lint: --dump-swap workload failed (%d)\n", rc);
    return rc == 0 ? 0 : 2;
}

/**
 * --dump-fleet: run a small fleet with one injected machine failure,
 * then print the control-plane state the fleet subsystem keeps — the
 * fabric topology (link state, frame counters), the balancer's
 * per-machine health and connection accounting, and every tenant's
 * key-chain position. Keys themselves are never printed: the dump
 * shows generations, the only thing the control plane holds.
 */
int
dumpFleet()
{
    fleet::FleetConfig cfg;
    cfg.machines = 3;
    cfg.tenants = 8;
    cfg.system.memFrames = 4096;
    cfg.system.diskBlocks = 4096;
    cfg.system.rsaBits = 384;
    cfg.policy = fleet::LbPolicy::ConsistentHash;
    cfg.mode = fleet::TrafficMode::OpenLoop;
    cfg.requests = 48;
    // Slow arrivals: the run spans several epochs, so the epoch-2
    // failure injection lands mid-workload.
    cfg.openLoopRps = 4000.0;
    cfg.knobs.concurrency = 6;
    cfg.knobs.ghostPagesPerTenant = 4;

    fleet::Fleet fl(cfg);
    fl.scheduleFailure(1, 2);
    fleet::FleetResult res = fl.run();

    std::printf("vg_lint: fleet: %u machine(s), %u tenant(s), seed "
                "%llu, policy %s; %llu served %llu failed %llu "
                "dropped in %llu epoch(s)\n",
                cfg.machines, cfg.tenants,
                (unsigned long long)cfg.system.vg.seed,
                fleet::lbPolicyName(cfg.policy),
                (unsigned long long)res.served,
                (unsigned long long)res.failures,
                (unsigned long long)res.dropped,
                (unsigned long long)res.epochs);

    fleet::Fabric &fab = fl.fabric();
    fleet::LoadBalancer &lb = fl.lb();
    std::printf("vg_lint: fabric: %u point-to-point DescRing pair(s), "
                "LB node is its own clock domain\n",
                fab.machineCount());
    for (unsigned m = 0; m < fab.machineCount(); m++)
        std::printf("vg_lint:   link %u: %s, %llu frame(s) to machine, "
                    "%llu to LB; lb %s, active conns %llu, routed "
                    "%llu, served %llu\n",
                    m, fab.linkDown(m) ? "DOWN" : "up",
                    (unsigned long long)fab.framesToMachine(m),
                    (unsigned long long)fab.framesToLb(m),
                    lb.healthy(m) ? "healthy" : "EJECTED",
                    (unsigned long long)lb.activeConns(m),
                    (unsigned long long)lb.routedTotal(m),
                    (unsigned long long)res.machineServed[m]);

    for (const fleet::Tenant &t : fl.tenants().all())
        std::printf("vg_lint:   tenant %u (%s): primary %u, key gen "
                    "%llu, %llu migration(s), %llu request(s) "
                    "%llu byte(s)\n",
                    t.id, t.name.c_str(), t.primary,
                    (unsigned long long)t.keyGeneration,
                    (unsigned long long)t.migrations,
                    (unsigned long long)t.requestsServed,
                    (unsigned long long)t.bytesServed);

    bool ok = res.served > 0 && res.tenantFailures == 0 &&
              !lb.healthy(1);
    if (!ok)
        std::fprintf(stderr,
                     "vg_lint: --dump-fleet workload failed (served "
                     "%llu, tenant failures %llu, machine 1 %s)\n",
                     (unsigned long long)res.served,
                     (unsigned long long)res.tenantFailures,
                     lb.healthy(1) ? "not ejected" : "ejected");
    return ok ? 0 : 2;
}

int
selfTest()
{
    Options opt; // full instrumentation, full policy
    cc::TranslateResult tr = compile(opt, kSelfTestSrc);
    if (!tr.ok) {
        std::fprintf(stderr, "vg_lint: self-test translate failed: %s\n",
                     tr.error.c_str());
        return 1;
    }
    cc::McodeVerifier verifier(policyFor(opt));

    cc::McodeVerifyResult clean = verifier.verify(*tr.image);
    if (!clean.ok()) {
        std::fprintf(stderr,
                     "vg_lint: self-test FAILED: %zu finding(s) on the "
                     "clean compile:\n%s\n",
                     clean.findings.size(), clean.message().c_str());
        return 1;
    }

    size_t injected = 0, detected = 0;
    for (cc::Miscompile kind : cc::allMiscompiles()) {
        size_t sites =
            cc::miscompileSites(*tr.image, kind).size();
        for (size_t s = 0; s < sites; s++) {
            cc::MachineImage bad = *tr.image;
            cc::injectMiscompile(bad, kind, s);
            injected++;
            if (!verifier.verify(bad).ok())
                detected++;
            else
                std::fprintf(stderr,
                             "vg_lint: self-test MISS: %s site %zu "
                             "went undetected\n",
                             cc::miscompileName(kind), s);
        }
    }
    std::printf("vg_lint: self-test: 0 findings clean, %zu/%zu "
                "injected miscompiles detected\n",
                detected, injected);
    if (detected != injected || injected == 0)
        return 1;

    // Iflow leg: the ghost-handling module compiles clean, and every
    // information-flow miscompile site is caught by the IflowVerifier
    // while remaining invisible to the safety verifier.
    cc::TranslateResult gtr = compile(opt, kIflowSelfTestSrc);
    if (!gtr.ok) {
        std::fprintf(stderr,
                     "vg_lint: self-test translate failed: %s\n",
                     gtr.error.c_str());
        return 1;
    }
    cc::IflowVerifier iverifier;
    cc::IflowResult iclean = iverifier.verify(*gtr.image);
    if (!iclean.ok()) {
        std::fprintf(stderr,
                     "vg_lint: self-test FAILED: %zu iflow finding(s) "
                     "on the clean compile:\n%s\n",
                     iclean.findings.size(),
                     iclean.message().c_str());
        return 1;
    }
    size_t iinjected = 0, idetected = 0;
    const cc::Miscompile iflowKinds[] = {
        cc::Miscompile::IflowDropSeal,
        cc::Miscompile::IflowRawStore,
        cc::Miscompile::IflowStatLeak,
    };
    for (cc::Miscompile kind : iflowKinds) {
        size_t sites = cc::miscompileSites(*gtr.image, kind).size();
        for (size_t s = 0; s < sites; s++) {
            cc::MachineImage bad = *gtr.image;
            cc::injectMiscompile(bad, kind, s);
            iinjected++;
            bool caught = !iverifier.verify(bad).ok();
            bool invisible = verifier.verify(bad).ok();
            if (caught && invisible)
                idetected++;
            else
                std::fprintf(stderr,
                             "vg_lint: self-test MISS: %s site %zu "
                             "(%s)\n",
                             cc::miscompileName(kind), s,
                             caught ? "visible to mverify"
                                    : "undetected by iflow");
        }
    }
    std::printf("vg_lint: self-test: 0 iflow findings clean, %zu/%zu "
                "injected leaks detected\n",
                idetected, iinjected);
    return idetected == iinjected && iinjected > 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--native")
            opt.config = sim::VgConfig::native();
        else if (arg == "--no-sandbox")
            opt.config.sandboxMemory = false;
        else if (arg == "--no-cfi")
            opt.config.cfi = false;
        else if (arg == "--require-sandbox")
            opt.requireSandbox = true;
        else if (arg == "--require-cfi")
            opt.requireCfi = true;
        else if (arg == "--self-test")
            opt.selfTest = true;
        else if (arg == "--iflow")
            opt.iflow = true;
        else if (arg == "--dump-iflow")
            opt.dumpIflow = true;
        else if (arg == "--dump-rings")
            opt.dumpRings = true;
        else if (arg == "--dump-swap")
            opt.dumpSwap = true;
        else if (arg == "--dump-fleet")
            opt.dumpFleet = true;
        else if (arg == "--inject") {
            if (++i >= argc)
                return usage();
            std::string spec = argv[i];
            size_t colon = spec.find(':');
            std::string kind = spec.substr(0, colon);
            if (!cc::parseMiscompile(kind, opt.injectKind)) {
                std::fprintf(stderr,
                             "vg_lint: unknown miscompile kind '%s'\n",
                             kind.c_str());
                return 2;
            }
            if (colon != std::string::npos)
                opt.injectSite =
                    (size_t)std::strtoull(spec.c_str() + colon + 1,
                                          nullptr, 10);
            opt.haveInject = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::fprintf(stderr, "vg_lint: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        } else if (opt.input.empty())
            opt.input = arg;
        else
            return usage();
    }

    if (opt.selfTest)
        return selfTest();
    if (opt.dumpRings)
        return dumpRings();
    if (opt.dumpSwap)
        return dumpSwap();
    if (opt.dumpFleet)
        return dumpFleet();
    if (opt.input.empty())
        return usage();

    std::string text;
    if (opt.input == "-") {
        std::ostringstream ss;
        ss << std::cin.rdbuf();
        text = ss.str();
    } else {
        std::ifstream f(opt.input);
        if (!f) {
            std::fprintf(stderr, "vg_lint: cannot open '%s'\n",
                         opt.input.c_str());
            return 2;
        }
        std::ostringstream ss;
        ss << f.rdbuf();
        text = ss.str();
    }
    if (opt.dumpIflow)
        return dumpIflow(opt, text);
    return lint(opt, text);
}
