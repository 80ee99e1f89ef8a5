/**
 * @file
 * Edge cases and failure injection: executor widths/recursion/stack
 * limits, ghost-memory exhaustion, cache pressure, kill-while-blocked,
 * wrap-around and boundary conditions.
 */

#include <gtest/gtest.h>

#include <map>

#include "compiler/exec.hh"
#include "compiler/translator.hh"
#include "ghost/runtime.hh"
#include "kernel/system.hh"
#include "vir/builder.hh"

using namespace vg;
using namespace vg::cc;
using namespace vg::kern;

namespace
{

constexpr uint64_t kCodeBase = 0xffffff9000000000ull;
constexpr uint64_t kStackBase = 0xffffffa000000000ull;

class FlatPort : public MemPort
{
  public:
    bool
    read(uint64_t va, unsigned bytes, uint64_t &out) override
    {
        out = 0;
        for (unsigned i = 0; i < bytes; i++) {
            auto it = mem.find(va + i);
            out |= uint64_t(it == mem.end() ? 0 : it->second)
                   << (8 * i);
        }
        return true;
    }

    bool
    write(uint64_t va, unsigned bytes, uint64_t val) override
    {
        for (unsigned i = 0; i < bytes; i++)
            mem[va + i] = uint8_t(val >> (8 * i));
        return true;
    }

    bool
    copy(uint64_t dst, uint64_t src, uint64_t len) override
    {
        for (uint64_t i = 0; i < len; i++) {
            uint64_t b;
            read(src + i, 1, b);
            write(dst + i, 1, b);
        }
        return true;
    }

    std::map<uint64_t, uint8_t> mem;
};

ExecResult
runSrc(const char *src, const std::string &fn,
       const std::vector<uint64_t> &args,
       sim::VgConfig cfg = sim::VgConfig::native())
{
    sim::SimContext ctx(cfg);
    Translator tr(std::vector<uint8_t>(32, 3), ctx);
    auto t = tr.translateText(src, kCodeBase);
    EXPECT_TRUE(t.ok) << t.error;
    FlatPort port;
    ExternTable externs;
    Executor exec(*t.image, port, externs, ctx, kStackBase, 1 << 20);
    return exec.call(fn, args);
}

} // namespace

// --------------------------------------------------------------------
// Executor edges
// --------------------------------------------------------------------

TEST(ExecEdge, NarrowWidthsTruncateAndZeroExtend)
{
    const char *src = R"(
func @f(1) {
entry:
  %1 = alloca 16
  store.i8 %1, %0
  %2 = load.i8 %1
  store.i16 %1, %0
  %3 = load.i16 %1
  store.i32 %1, %0
  %4 = load.i32 %1
  %5 = const 0
  %6 = shl %3, %5
  %7 = add %2, %6
  %8 = add %7, %4
  ret %8
}
)";
    auto r = runSrc(src, "f", {0x1234567890abcdefull});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 0xefull + 0xcdefull + 0x90abcdefull);
}

TEST(ExecEdge, ArithmeticWrapsModulo64)
{
    const char *src = R"(
func @f(2) {
entry:
  %2 = add %0, %1
  %3 = mul %0, %1
  %4 = sub %2, %3
  ret %4
}
)";
    uint64_t a = ~0ull, b = 2;
    auto r = runSrc(src, "f", {a, b});
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, (a + b) - (a * b));
}

TEST(ExecEdge, AshrSignExtends)
{
    const char *src = R"(
func @f(2) {
entry:
  %2 = ashr %0, %1
  ret %2
}
)";
    auto r = runSrc(src, "f", {0x8000000000000000ull, 63});
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, ~0ull);
    auto r2 = runSrc(src, "f", {0x4000000000000000ull, 62});
    EXPECT_EQ(r2.value, 1u);
}

TEST(ExecEdge, DeepRecursionHitsStackLimit)
{
    const char *src = R"(
func @down(1) {
entry:
  %1 = alloca 4096
  %2 = const 0
  %3 = icmp eq %0, %2
  condbr %3, base, rec
base:
  ret %0
rec:
  %4 = const 1
  %5 = sub %0, %4
  %6 = call @down(%5)
  ret %6
}
)";
    // 1 MB stack, ~4 KB frames: a few hundred levels fit, 10000 don't.
    auto ok = runSrc(src, "down", {100});
    EXPECT_TRUE(ok.ok) << ok.detail;
    auto deep = runSrc(src, "down", {10000});
    EXPECT_FALSE(deep.ok);
    EXPECT_EQ(deep.fault, ExecFault::StackOverflow);
}

TEST(ExecEdge, MemcpyZeroAndOverlap)
{
    const char *src = R"(
func @f(0) {
entry:
  %0 = alloca 64
  %1 = const 0x1122334455667788
  store.i64 %0, %1
  %2 = const 0
  memcpy %0, %0, %2
  %3 = const 8
  %4 = add %0, %3
  %5 = const 16
  memcpy %4, %0, %3
  %6 = load.i64 %4
  ret %6
}
)";
    auto r = runSrc(src, "f", {});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 0x1122334455667788ull);
}

TEST(ExecEdge, UremAndShiftMasking)
{
    const char *src = R"(
func @f(2) {
entry:
  %2 = urem %0, %1
  %3 = const 70
  %4 = shl %2, %3      ; shift count masked to 6 bits -> << 6
  ret %4
}
)";
    auto r = runSrc(src, "f", {103, 10});
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, uint64_t(3) << 6);
}

TEST(ExecEdge, CallindWithWrongArgCountStillRuns)
{
    // Extra args are dropped; missing args read as zero (C ABI-ish).
    const char *src = R"(
func @takes2(2) {
entry:
  %2 = add %0, %1
  ret %2
}

func @f(0) {
entry:
  %0 = funcaddr @takes2
  %1 = const 5
  %2 = callind %0(%1)
  ret %2
}
)";
    auto r = runSrc(src, "f", {});
    ASSERT_TRUE(r.ok) << r.detail;
    EXPECT_EQ(r.value, 5u);
}

// --------------------------------------------------------------------
// Kernel failure injection
// --------------------------------------------------------------------

namespace
{

SystemConfig
tinyConfig(uint64_t frames)
{
    SystemConfig cfg;
    cfg.memFrames = frames;
    cfg.diskBlocks = 2048;
    cfg.rsaBits = 384;
    return cfg;
}

} // namespace

TEST(KernelEdge, GhostAllocationExhaustionIsGraceful)
{
    System sys(tinyConfig(512)); // 2 MB RAM
    sys.boot();
    sys.runProcess("hog", [&](UserApi &api) {
        // Grab ghost memory until the OS runs out of frames; the
        // failing allocgm must return 0, not corrupt state.
        uint64_t got = 0;
        while (true) {
            hw::Vaddr va = api.allocGhost(16);
            if (va == 0)
                break;
            got += 16;
        }
        EXPECT_GT(got, 0u);
        // The failed call handed back every frame it took: the VM and
        // the eviction clock agree, and those frames fill a small
        // allocation.
        EXPECT_EQ(sys.vm().ghostPageCount(api.pid()),
                  sys.kernel().ghostClock().size());
        EXPECT_NE(api.allocGhost(1), 0u);
        return 0;
    });
    // Violations were recorded but nothing crashed.
    EXPECT_GT(sys.vm().violationCount(), 0u);
}

TEST(KernelEdge, KillWhileBlockedInAccept)
{
    System sys(tinyConfig(4096));
    sys.boot();
    int code = sys.runProcess("main", [](UserApi &api) {
        uint64_t victim = api.fork([](UserApi &capi) {
            int ls = capi.socket();
            capi.bind(ls, 7000);
            capi.listen(ls);
            capi.accept(ls); // blocks forever
            return 1;
        });
        for (int i = 0; i < 3; i++)
            api.yield();
        api.kill(victim, 9);
        int status = -1;
        api.waitpid(victim, status);
        return status;
    });
    EXPECT_EQ(code, 137);
}

TEST(KernelEdge, ZeroByteIo)
{
    System sys(tinyConfig(4096));
    sys.boot();
    sys.runProcess("zero", [](UserApi &api) {
        int fd = api.open("/z", true);
        hw::Vaddr buf = api.mmap(4096);
        EXPECT_EQ(api.write(fd, buf, 0), 0);
        EXPECT_EQ(api.read(fd, buf, 0), 0);
        api.close(fd);
        return 0;
    });
}

TEST(KernelEdge, BadFdsRejected)
{
    System sys(tinyConfig(4096));
    sys.boot();
    sys.runProcess("badfd", [](UserApi &api) {
        hw::Vaddr buf = api.mmap(4096);
        EXPECT_EQ(api.read(99, buf, 8), -1);
        EXPECT_EQ(api.write(-1, buf, 8), -1);
        EXPECT_EQ(api.close(42), -1);
        EXPECT_EQ(api.lseek(5, 0, 0), -1);
        EXPECT_EQ(api.accept(7), -1);
        return 0;
    });
}

TEST(KernelEdge, ConnectToClosedPortFails)
{
    System sys(tinyConfig(4096));
    sys.boot();
    sys.runProcess("noconn", [](UserApi &api) {
        EXPECT_EQ(api.connect(12345), -1);
        return 0;
    });
}

TEST(KernelEdge, UnmappedUserAccessFails)
{
    System sys(tinyConfig(4096));
    sys.boot();
    sys.runProcess("wild", [](UserApi &api) {
        uint64_t v = 0;
        // No area reserved at this address: fault not resolvable.
        EXPECT_FALSE(api.peek(0x00005555deadb000ull, 8, v));
        EXPECT_FALSE(api.poke(0x00005555deadb000ull, 8, 1));
        return 0;
    });
}

TEST(KernelEdge, PageStraddlingUserAccessTranslatesEachPage)
{
    System sys(tinyConfig(4096));
    sys.boot();
    hw::PhysMem &mem = sys.mem();
    sys.runProcess("straddle", [&mem](UserApi &api) {
        const uint64_t val = 0x1122334455667788ull;

        // One page, then the unmapped guard gap mmap leaves after it:
        // the upper four bytes would land in the gap and must fault,
        // not spill into whatever frame sits next in physical memory.
        hw::Vaddr one = api.mmap(hw::pageSize);
        EXPECT_TRUE(api.poke(one, 8, 0));
        hw::Paddr pa = 0;
        EXPECT_TRUE(api.kernel().handleUserAccess(
            api.proc(), one, hw::Access::Read, pa));
        hw::Paddr next_frame = hw::pageOf(pa) + hw::pageSize;
        std::vector<uint8_t> before(8), after(8);
        mem.readBytes(next_frame, before.data(), before.size());
        uint64_t v = 0;
        EXPECT_FALSE(api.poke(one + hw::pageSize - 4, 8, val));
        EXPECT_FALSE(api.peek(one + hw::pageSize - 4, 8, v));
        mem.readBytes(next_frame, after.data(), after.size());
        EXPECT_EQ(before, after);

        // Two mapped pages, faulted in back to front so they do not
        // sit in adjacent frames: a straddling access reads and writes
        // the bytes of both virtual pages.
        hw::Vaddr two = api.mmap(2 * hw::pageSize);
        EXPECT_TRUE(api.poke(two + hw::pageSize, 4, 0xaabbccdd));
        EXPECT_TRUE(api.poke(two + hw::pageSize - 4, 4, 0x01020304));
        EXPECT_TRUE(api.peek(two + hw::pageSize - 4, 8, v));
        EXPECT_EQ(v, 0xaabbccdd01020304ull);
        EXPECT_TRUE(api.poke(two + hw::pageSize - 4, 8, val));
        uint64_t lo = 0, hi = 0;
        EXPECT_TRUE(api.peek(two + hw::pageSize - 4, 4, lo));
        EXPECT_TRUE(api.peek(two + hw::pageSize, 4, hi));
        EXPECT_EQ(lo, val & 0xffffffffu);
        EXPECT_EQ(hi, val >> 32);
        return 0;
    });
}

TEST(KernelEdge, MunmapWrongLengthRejected)
{
    System sys(tinyConfig(4096));
    sys.boot();
    sys.runProcess("badun", [](UserApi &api) {
        hw::Vaddr va = api.mmap(4 * 4096);
        EXPECT_EQ(api.munmap(va, 2 * 4096), -1); // partial unmap
        EXPECT_EQ(api.munmap(va + 4096, 4 * 4096), -1);
        EXPECT_EQ(api.munmap(va, 4 * 4096), 0);
        return 0;
    });
}

TEST(KernelEdge, ForkBombBounded)
{
    System sys(tinyConfig(2048));
    sys.boot();
    int code = sys.runProcess("bomb", [](UserApi &api) {
        // Many sequential fork/waits: table frames must be recycled
        // or this exhausts 8 MB of RAM quickly.
        for (int i = 0; i < 120; i++) {
            uint64_t child = api.fork([](UserApi &capi) {
                hw::Vaddr va = capi.mmap(4096);
                capi.poke(va, 8, 1);
                return 0;
            });
            int status = -1;
            api.waitpid(child, status);
            if (status != 0)
                return 1;
        }
        return 0;
    });
    EXPECT_EQ(code, 0);
}

TEST(KernelEdge, SecureFileGarbageRejected)
{
    System sys(tinyConfig(4096));
    sys.boot();
    crypto::AesKey key{};
    sva::AppBinary bin = sys.vm().packageApp("a", "c", key);
    // Plant garbage where a sealed file is expected.
    Ino ino = 0;
    sys.kernel().fs().create("/garbage", ino);
    sys.kernel().fs().write(ino, 0, "short", 5);

    sys.runProcess("g", [&](UserApi &api) {
        return api.execve(&bin, [](UserApi &napi) {
            vg::ghost::GhostRuntime rt(napi);
            std::vector<uint8_t> out;
            EXPECT_FALSE(rt.readSecureFile("/garbage", out));
            EXPECT_FALSE(rt.readSecureFile("/nonexistent", out));
            return 0;
        });
    });
}
