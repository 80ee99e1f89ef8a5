/**
 * @file
 * Microbenchmarks of the substrate itself (google-benchmark, real
 * wall-clock): crypto primitives, translator passes, simulated-CPU
 * execution. These measure the *implementation*, not the simulated
 * system — useful to keep the simulator fast and to size experiments.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <optional>

#include "common.hh"
#include "compiler/exec.hh"
#include "compiler/translator.hh"
#include "crypto/aes.hh"
#include "crypto/drbg.hh"
#include "crypto/hmac.hh"
#include "crypto/bignum.hh"
#include "crypto/rsa.hh"
#include "crypto/sealed.hh"
#include "crypto/sha256.hh"
#include "hw/layout.hh"
#include "hw/tpm.hh"
#include "kernel/kmem.hh"
#include "kernel/system.hh"
#include "vir/text.hh"

using namespace vg;
using namespace vg::crypto;

namespace
{

/** Kernel argument of the crypto throughput benches. */
enum Kernel : int64_t { kPortable = 0, kHardware = 1 };

const char *const kNoHardware =
    "cpuid lacks the AES-NI/SHA-NI instructions this kernel needs";

} // namespace

/** SHA-256 of Arg(0) bytes on the portable or SHA-NI kernel (Arg(1)). */
static void
BM_Sha256(benchmark::State &state)
{
    detail::Sha256Blocks kernel = state.range(1) == kHardware
                                      ? detail::hardwareSha256()
                                      : detail::portableSha256;
    if (!kernel) {
        state.SkipWithError(kNoHardware);
        return;
    }
    std::vector<uint8_t> data(size_t(state.range(0)), 0x5a);
    for (auto _ : state) {
        Sha256 h(kernel);
        h.update(data.data(), data.size());
        benchmark::DoNotOptimize(h.final());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Sha256)
    ->ArgsProduct({{64, 4096, 1 << 16}, {kPortable, kHardware}})
    ->ArgNames({"bytes", "hw"});

/**
 * One 4 KB page into each of Arg(0) hashers through one updateLanes()
 * call, on this host's kernel: SHA-NI lanes run interleaved, four at a
 * time.
 */
static void
BM_Sha256Lanes(benchmark::State &state)
{
    const size_t lanes = size_t(state.range(0));
    std::vector<uint8_t> data(lanes * 4096, 0x5a);
    std::vector<const uint8_t *> in;
    for (size_t i = 0; i < lanes; i++)
        in.push_back(data.data() + 4096 * i);
    for (auto _ : state) {
        std::vector<Sha256> hashers(lanes);
        std::vector<Sha256 *> ptrs;
        for (Sha256 &h : hashers)
            ptrs.push_back(&h);
        Sha256::updateLanes(ptrs, in, 4096);
        for (Sha256 &h : hashers)
            benchmark::DoNotOptimize(h.final());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(data.size()));
}
BENCHMARK(BM_Sha256Lanes)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->ArgName("lanes");

/** AES-CTR over Arg(0) bytes on the T-table or AES-NI kernels (Arg(1)). */
static void
BM_AesCtr(benchmark::State &state)
{
    const detail::AesKernels *kernels = state.range(1) == kHardware
                                            ? detail::hardwareAes()
                                            : &detail::portableAes();
    if (!kernels) {
        state.SkipWithError(kNoHardware);
        return;
    }
    AesKey key{};
    Aes128 aes(key, *kernels);
    AesBlock nonce{};
    std::vector<uint8_t> data(size_t(state.range(0)), 0x11);
    for (auto _ : state) {
        aes.ctrCrypt(data.data(), data.size(), nonce);
        benchmark::DoNotOptimize(data.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_AesCtr)
    ->ArgsProduct({{4096, 1 << 16}, {kPortable, kHardware}})
    ->ArgNames({"bytes", "hw"});

static void
BM_HmacSha256(benchmark::State &state)
{
    std::vector<uint8_t> key(32, 0x22);
    std::vector<uint8_t> data(4096, 0x33);
    for (auto _ : state)
        benchmark::DoNotOptimize(hmacSha256(key, data));
    state.SetBytesProcessed(int64_t(state.iterations()) * 4096);
}
BENCHMARK(BM_HmacSha256);

static void
BM_RsaSign(benchmark::State &state)
{
    CtrDrbg rng({'b', 'm'});
    RsaPrivateKey key = rsaGenerate(rng, size_t(state.range(0)));
    std::vector<uint8_t> msg(128, 0x44);
    for (auto _ : state)
        benchmark::DoNotOptimize(rsaSign(key, msg));
}
BENCHMARK(BM_RsaSign)->Arg(384)->Arg(512);

static void
BM_RsaVerify(benchmark::State &state)
{
    CtrDrbg rng({'b', 'v'});
    RsaPrivateKey key = rsaGenerate(rng, 384);
    std::vector<uint8_t> msg(128, 0x44);
    auto sig = rsaSign(key, msg);
    for (auto _ : state)
        benchmark::DoNotOptimize(rsaVerify(key.publicKey(), msg, sig));
}
BENCHMARK(BM_RsaVerify);

/** Whole key generation from a fixed DRBG seed: the same key, and so
 *  the same candidate sequence, every iteration. 384-bit is the size
 *  SvaVm::install generates at every simulated boot. */
static void
BM_RsaGenerate(benchmark::State &state)
{
    for (auto _ : state) {
        CtrDrbg rng({'b', 'g'});
        benchmark::DoNotOptimize(rsaGenerate(rng, size_t(state.range(0))));
    }
}
BENCHMARK(BM_RsaGenerate)->Arg(384)->Arg(512)->Unit(benchmark::kMicrosecond);

/** One private-key decryption (the exec-time key-section unwrap). */
static void
BM_RsaDecrypt(benchmark::State &state)
{
    CtrDrbg rng({'b', 'd'});
    RsaPrivateKey key = rsaGenerate(rng, size_t(state.range(0)));
    auto cipher =
        rsaEncrypt(key.publicKey(), rng, std::vector<uint8_t>(16, 0x5a));
    bool ok = false;
    for (auto _ : state)
        benchmark::DoNotOptimize(rsaDecrypt(key, cipher, ok));
}
BENCHMARK(BM_RsaDecrypt)->Arg(384)->Arg(512);

namespace
{

const char *kModuleSrc = R"(
func @work(1) {
entry:
  %1 = const 0
  %2 = const 0
  br head
head:
  %3 = icmp ult %2, %0
  condbr %3, body, done
body:
  %4 = alloca 64
  store.i64 %4, %2
  %5 = load.i64 %4
  %1 = add %1, %5
  %6 = const 1
  %2 = add %2, %6
  br head
done:
  ret %1
}
)";

class NullPort : public cc::MemPort
{
  public:
    bool
    read(uint64_t, unsigned, uint64_t &out) override
    {
        out = 0;
        return true;
    }
    bool write(uint64_t, unsigned, uint64_t) override { return true; }
    bool copy(uint64_t, uint64_t, uint64_t) override { return true; }
};

} // namespace

static void
BM_TranslateModule(benchmark::State &state)
{
    sim::SimContext ctx;
    std::vector<uint8_t> key(32, 1);
    for (auto _ : state) {
        // Fresh translator each time so the cache doesn't shortcut.
        cc::Translator tr(key, ctx);
        auto r = tr.translateText(kModuleSrc, 0xffffff9000000000ull);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_TranslateModule);

static void
BM_ExecutorInstrumented(benchmark::State &state)
{
    sim::SimContext ctx(sim::VgConfig::full());
    std::vector<uint8_t> key(32, 1);
    cc::Translator tr(key, ctx);
    auto r = tr.translateText(kModuleSrc, 0xffffff9000000000ull);
    NullPort port;
    cc::ExternTable externs;
    cc::Executor exec(*r.image, port, externs, ctx,
                      0xffffffa000000000ull, 1 << 20);
    for (auto _ : state) {
        auto res = exec.call("work", {uint64_t(state.range(0))});
        benchmark::DoNotOptimize(res.value);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_ExecutorInstrumented)->Arg(1000);

static void
BM_SandboxPass(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        auto parsed = vir::parse(kModuleSrc);
        state.ResumeTiming();
        benchmark::DoNotOptimize(cc::sandboxPass(parsed.module));
    }
}
BENCHMARK(BM_SandboxPass);

// --------------------------------------------------------------------
// Kmem hot path: host cost of instrumented kernel memory access
// through the last-translation cache and page-chunked copies.
// --------------------------------------------------------------------

namespace
{

/** Hand-built address space with user pages, plus a Kmem on top. */
struct KmemRig
{
    sim::SimContext ctx;
    hw::PhysMem mem;
    hw::Mmu mmu;
    hw::Iommu iommu;
    hw::Tpm tpm;
    sva::SvaVm vm;
    kern::Kmem kmem;

    static constexpr hw::Vaddr userBase = 0x400000;
    static constexpr int userPages = 16;

    KmemRig()
        : ctx(sim::VgConfig::full()), mem(64), mmu(mem, ctx),
          iommu(mem, ctx), tpm({'b', 'k'}),
          vm(ctx, mem, mmu, iommu, tpm), kmem(ctx, mem, mmu, vm)
    {
        // Page tables in frames 0..3; user pages in frames 8..23.
        using namespace hw;
        for (int i = 0; i < userPages; i++) {
            Vaddr va = userBase + uint64_t(i) * pageSize;
            mem.write64(0 * pageSize + ptIndex(va, PtLevel::L4) * 8,
                        pte::make(1, true, true, false));
            mem.write64(1 * pageSize + ptIndex(va, PtLevel::L3) * 8,
                        pte::make(2, true, true, false));
            mem.write64(2 * pageSize + ptIndex(va, PtLevel::L2) * 8,
                        pte::make(3, true, true, false));
            mem.write64(3 * pageSize + ptIndex(va, PtLevel::L1) * 8,
                        pte::make(Frame(8 + i), true, true, false));
        }
        mmu.setRoot(0);
    }
};

} // namespace

/** Module-port copy between two mapped user pages (one page). */
static void
BM_KmemCopyUserPage(benchmark::State &state)
{
    KmemRig rig;
    for (auto _ : state) {
        bool ok = rig.kmem.copy(KmemRig::userBase + hw::pageSize,
                                KmemRig::userBase, hw::pageSize);
        benchmark::DoNotOptimize(ok);
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(hw::pageSize));
}
BENCHMARK(BM_KmemCopyUserPage);

/** Module-port copy through the kernel direct map (8 pages). */
static void
BM_KmemCopyKernelHalf(benchmark::State &state)
{
    KmemRig rig;
    const uint64_t len = 8 * hw::pageSize;
    for (auto _ : state) {
        bool ok = rig.kmem.copy(hw::kernelBase + 24 * hw::pageSize,
                                hw::kernelBase + 8 * hw::pageSize,
                                len);
        benchmark::DoNotOptimize(ok);
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(len));
}
BENCHMARK(BM_KmemCopyKernelHalf);

/** Repeated same-page native kernel loads (the kread fast path). */
static void
BM_KmemReadSamePage(benchmark::State &state)
{
    KmemRig rig;
    for (auto _ : state) {
        uint64_t sum = 0;
        for (uint64_t off = 0; off < hw::pageSize; off += 8) {
            uint64_t v = 0;
            rig.kmem.kread(KmemRig::userBase + off, 8, v);
            sum += v;
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(hw::pageSize / 8));
}
BENCHMARK(BM_KmemReadSamePage);

/** copyout+copyin of one page — the syscall file-I/O data path. */
static void
BM_KmemCopyOutIn(benchmark::State &state)
{
    KmemRig rig;
    std::vector<uint8_t> buf(hw::pageSize, 0x5c);
    for (auto _ : state) {
        bool ok = rig.kmem.copyOut(KmemRig::userBase, buf.data(),
                                   buf.size());
        ok = ok && rig.kmem.copyIn(KmemRig::userBase, buf.data(),
                                   buf.size());
        benchmark::DoNotOptimize(ok);
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * 2 *
                            int64_t(hw::pageSize));
}
BENCHMARK(BM_KmemCopyOutIn);

// --------------------------------------------------------------------
// Crypto hot path: host cost of precomputed HMAC states, Montgomery
// modExp, cached seal keys and the ghost-page swap round trip (AES-CTR
// and SHA-256 throughput are BM_AesCtr and BM_Sha256 above).
// --------------------------------------------------------------------

/**
 * Short-message HMAC with a long-lived key: reuses the precomputed
 * ipad/opad states instead of rehashing the key blocks.
 */
static void
BM_CryptoHmacPerKey(benchmark::State &state)
{
    std::vector<uint8_t> key(32, 0x22);
    std::vector<uint8_t> msg(64, 0x33);
    HmacSha256 mac(key);
    for (auto _ : state)
        benchmark::DoNotOptimize(mac.mac(msg));
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_CryptoHmacPerKey);

/**
 * modExp with a full-width exponent over a fixed odd modulus of Arg
 * bits. 384-bit is the simulator's RSA key size (SystemConfig::rsaBits).
 */
static void
BM_CryptoModExp(benchmark::State &state)
{
    size_t bits = size_t(state.range(0));
    CtrDrbg rng({'m', 'e'});
    BigNum mod = BigNum::fromBytes(rng.generate(bits / 8));
    mod.setBit(bits - 1);
    mod.setBit(0);
    BigNum base = BigNum::fromBytes(rng.generate(bits / 8)) % mod;
    BigNum exp = BigNum::fromBytes(rng.generate(bits / 8));
    for (auto _ : state)
        benchmark::DoNotOptimize(base.modExp(exp, mod));
}
BENCHMARK(BM_CryptoModExp)->Arg(384)->Arg(512)->Arg(2048);

/**
 * Seal Arg(0) pages in place with one N-frame sealInPlace() under a
 * fixed master key (derived-key cache hit), each page with its own
 * 24-byte aad as a swap-out batch has.
 */
static void
BM_CryptoSeal(benchmark::State &state)
{
    const size_t frames = size_t(state.range(0));
    AesKey master{};
    master[0] = 0x7e;
    CtrDrbg rng({'s', 'l'});
    std::vector<std::vector<uint8_t>> wires(
        frames, std::vector<uint8_t>(sealedHeaderBytes + hw::pageSize, 0x44));
    std::vector<uint8_t *> ptrs;
    for (std::vector<uint8_t> &w : wires)
        ptrs.push_back(w.data());
    std::vector<std::vector<uint8_t>> aads(frames,
                                           std::vector<uint8_t>(24, 0x12));
    for (auto _ : state) {
        sealInPlace(master, rng, ptrs, hw::pageSize, aads);
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(frames * hw::pageSize));
}
BENCHMARK(BM_CryptoSeal)->Arg(1)->Arg(32)->ArgName("frames");

/** Unseal one page under a fixed master key. */
static void
BM_CryptoUnseal(benchmark::State &state)
{
    AesKey master{};
    master[0] = 0x7f;
    CtrDrbg rng({'u', 'l'});
    std::vector<uint8_t> plain(hw::pageSize, 0x45);
    std::vector<uint8_t> wire = seal(master, rng, plain);
    for (auto _ : state) {
        bool ok = false;
        benchmark::DoNotOptimize(unseal(master, wire, ok));
        benchmark::DoNotOptimize(ok);
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(plain.size()));
}
BENCHMARK(BM_CryptoUnseal);

namespace
{

/** Booted SvaVm with one ghost page, for the swap round trip. */
struct GhostSwapRig
{
    sim::SimContext ctx;
    hw::PhysMem mem;
    hw::Mmu mmu;
    hw::Iommu iommu;
    hw::Tpm tpm;
    sva::SvaVm vm;
    std::deque<hw::Frame> freeFrames;

    GhostSwapRig()
        : ctx(sim::VgConfig::full()), mem(256), mmu(mem, ctx),
          iommu(mem, ctx), tpm({'b', 'g'}),
          vm(ctx, mem, mmu, iommu, tpm)
    {
        vm.install(192);
        vm.boot();
        for (hw::Frame f = 64; f < 128; f++)
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
        vm.declarePtPage(0, 4, &err);
        vm.allocGhostMemory(1, 0, hw::ghostBase, 1, &err);
    }
};

} // namespace

/** Ghost-page swap-out + swap-in round trip (seal/unseal + MMU). */
static void
BM_CryptoGhostSwap(benchmark::State &state)
{
    GhostSwapRig rig;
    sva::SvaError err;
    for (auto _ : state) {
        std::vector<std::vector<uint8_t>> wires =
            rig.vm.swapOutGhostBatch(1, 0, {hw::ghostBase}, &err);
        if (wires.empty()) {
            state.SkipWithError("swap-out failed");
            break;
        }
        if (!rig.vm.swapInGhostPage(1, 0, hw::ghostBase,
                                    std::move(wires[0]), &err)) {
            state.SkipWithError("swap-in failed");
            break;
        }
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(hw::pageSize));
}
BENCHMARK(BM_CryptoGhostSwap);

// --------------------------------------------------------------------
// Process switch: host cost of one simulated context switch. Processes
// ping-pong through yield(), with no syscall work in between; the first
// argument is the vCPU count and the second the process count: two on
// 1 vCPU, two on 4 (the SMP scheduler interleaving two busy CPUs), and
// 64 on 4 (sixteen-deep run queues). The processes share 10,000 yields
// in every row, so iteration times stay comparable. Only Kernel::run()
// is timed, not machine set-up; host_ns_per_switch divides that time
// by sva.context_switches.
// --------------------------------------------------------------------

namespace
{

constexpr int kPingPongYields = 10000;

} // namespace

static void
BM_ContextSwitch(benchmark::State &state)
{
    kern::SystemConfig cfg;
    cfg.vg.vcpus = unsigned(state.range(0));
    cfg.memFrames = 4096;
    cfg.diskBlocks = 4096;
    const int procs = int(state.range(1));
    const int yields = kPingPongYields / procs;
    double run_s = 0;
    uint64_t switches = 0;
    for (auto _ : state) {
        kern::System sys(cfg);
        sys.boot();
        for (int p = 0; p < procs; p++)
            sys.kernel().spawn("pingpong", [yields](kern::UserApi &api) {
                for (int i = 0; i < yields; i++)
                    api.yield();
                return 0;
            });
        sim::StatSet &stats = sys.ctx().stats();
        const uint64_t before = stats.get("sva.context_switches");
        const auto t0 = std::chrono::steady_clock::now();
        sys.kernel().run();
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        state.SetIterationTime(s);
        run_s += s;
        switches += stats.get("sva.context_switches") - before;
        benchmark::DoNotOptimize(sys.kernel().exitCodes().size());
    }
    state.counters["switches"] =
        double(switches) / double(state.iterations());
    state.counters["host_ns_per_switch"] =
        switches ? run_s * 1e9 / double(switches) : 0.0;
}
BENCHMARK(BM_ContextSwitch)
    ->ArgNames({"vcpus", "procs"})
    ->Args({1, 2})
    ->Args({4, 2})
    ->Args({4, 64})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------
// Machine set-up: host cost of constructing, booting and destroying
// one standard benchmark machine (64 MB RAM, 128 MB disk, 384-bit RSA)
// at 1 vCPU (Arg 1) and at 4 (Arg 4). Each iteration is one machine.
// --------------------------------------------------------------------

static void
BM_MachineBuild(benchmark::State &state)
{
    sim::VgConfig vg = sim::VgConfig::full();
    vg.vcpus = unsigned(state.range(0));
    const kern::SystemConfig cfg = bench::benchConfig(vg);
    for (auto _ : state) {
        kern::System sys(cfg);
        sys.boot();
        benchmark::DoNotOptimize(sys.mem().sizeBytes());
    }
}
BENCHMARK(BM_MachineBuild)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/**
 * Like BENCHMARK_MAIN(), but defaults --benchmark_out to
 * BENCH_micro.json (JSON format) so this binary emits machine-readable
 * results like every other bench harness. An explicit --benchmark_out
 * on the command line wins.
 */
int
main(int argc, char **argv)
{
    static char out_arg[] = "--benchmark_out=BENCH_micro.json";
    static char fmt_arg[] = "--benchmark_out_format=json";

    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; i++)
        if (!std::strncmp(argv[i], "--benchmark_out", 15))
            has_out = true;
    if (!has_out) {
        args.push_back(out_arg);
        args.push_back(fmt_arg);
    }
    int n = int(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
