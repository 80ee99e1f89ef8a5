/**
 * @file
 * Kernel integration tests: processes, syscalls, fork/exec/wait,
 * signals via SVA, sockets, ghost memory and module interposition, and
 * the frame allocator's reuse order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cstring>
#include <map>
#include <stdexcept>
#include <tuple>

#include "golden.hh"
#include "kernel/kalloc.hh"
#include "kernel/system.hh"
#include "sim/interleave.hh"

using namespace vg;
using namespace vg::kern;

namespace
{

SystemConfig
smallConfig(sim::VgConfig vg = sim::VgConfig::full())
{
    SystemConfig cfg;
    cfg.vg = vg;
    cfg.memFrames = 4096;  // 16 MB
    cfg.diskBlocks = 4096; // 16 MB
    cfg.rsaBits = 384;
    return cfg;
}

} // namespace

TEST(Kernel, TrivialProcessRuns)
{
    System sys(smallConfig());
    sys.boot();
    int code = sys.runProcess("init", [](UserApi &api) {
        EXPECT_GT(api.getpid(), 0);
        return 42;
    });
    EXPECT_EQ(code, 42);
}

TEST(Kernel, FileSyscallsThroughUserMemory)
{
    System sys(smallConfig());
    sys.boot();
    int code = sys.runProcess("filer", [](UserApi &api) {
        int fd = api.open("/test.txt", true);
        if (fd < 0)
            return 1;

        hw::Vaddr buf = api.mmap(4096);
        const char *msg = "ghost data";
        if (!api.copyToUser(buf, msg, 10))
            return 2;
        if (api.write(fd, buf, 10) != 10)
            return 3;
        if (api.lseek(fd, 0, 0) != 0)
            return 4;

        hw::Vaddr buf2 = api.mmap(4096);
        if (api.read(fd, buf2, 10) != 10)
            return 5;
        char back[16] = {};
        if (!api.copyFromUser(buf2, back, 10))
            return 6;
        if (std::memcmp(back, msg, 10) != 0)
            return 7;

        FileStat st;
        if (api.stat("/test.txt", st) != 0 || st.size != 10)
            return 8;
        if (api.close(fd) != 0)
            return 9;
        if (api.unlink("/test.txt") != 0)
            return 10;
        return 0;
    });
    EXPECT_EQ(code, 0);
}

TEST(Kernel, MmapDemandZeroAndPageFaults)
{
    System sys(smallConfig());
    sys.boot();
    sys.runProcess("pf", [&](UserApi &api) {
        hw::Vaddr va = api.mmap(8 * 4096);
        EXPECT_NE(va, 0u);
        uint64_t before = sys.ctx().stats().get("kernel.page_faults");
        uint64_t v = 1;
        EXPECT_TRUE(api.peek(va, 8, v));
        EXPECT_EQ(v, 0u); // demand-zero
        EXPECT_TRUE(api.poke(va, 8, 0x1234));
        EXPECT_TRUE(api.peek(va, 8, v));
        EXPECT_EQ(v, 0x1234u);
        uint64_t after = sys.ctx().stats().get("kernel.page_faults");
        EXPECT_EQ(after, before + 1); // one page touched once
        // Touch the rest.
        for (int i = 1; i < 8; i++)
            api.poke(va + uint64_t(i) * 4096, 8, uint64_t(i));
        EXPECT_EQ(sys.ctx().stats().get("kernel.page_faults"),
                  before + 8);
        EXPECT_EQ(api.munmap(va, 8 * 4096), 0);
        return 0;
    });
}

TEST(Kernel, ForkCopiesMemoryAndWaitReturnsStatus)
{
    System sys(smallConfig());
    sys.boot();
    int code = sys.runProcess("parent", [](UserApi &api) {
        hw::Vaddr shared = api.mmap(4096);
        api.poke(shared, 8, 111);

        uint64_t child = api.fork([shared](UserApi &capi) {
            uint64_t v = 0;
            capi.peek(shared, 8, v);
            if (v != 111)
                return 50; // fork must copy parent memory
            capi.poke(shared, 8, 222);
            return 7;
        });
        int status = 0;
        if (api.waitpid(child, status) != 0)
            return 1;
        if (status != 7)
            return 2;
        uint64_t v = 0;
        api.peek(shared, 8, v);
        // Child wrote its own copy; the parent's page is unchanged.
        if (v != 111)
            return 3;
        return 0;
    });
    EXPECT_EQ(code, 0);
}

TEST(Kernel, ExecveReplacesImage)
{
    System sys(smallConfig());
    sys.boot();
    int code = sys.runProcess("execer", [](UserApi &api) {
        hw::Vaddr old_map = api.mmap(4096);
        api.poke(old_map, 8, 9);
        return api.execve(nullptr, [old_map](UserApi &napi) {
            // The old mapping is gone after exec.
            uint64_t v = 0;
            if (napi.peek(old_map, 8, v))
                return 1;
            return 99;
        });
    });
    EXPECT_EQ(code, 99);
}

TEST(Kernel, SignalsDeliverToRegisteredHandler)
{
    System sys(smallConfig());
    sys.boot();
    sys.runProcess("sig", [](UserApi &api) {
        int got = 0;
        api.installSignalHandler(
            10, [&](int signum) { got = signum; }, true);

        uint64_t self = api.pid();
        uint64_t child = api.fork([self](UserApi &capi) {
            capi.kill(self, 10);
            return 0;
        });
        int status = 0;
        api.waitpid(child, status);
        // Delivery happens at a syscall boundary; waitpid qualifies.
        EXPECT_EQ(got, 10);
        return 0;
    });
}

TEST(Kernel, UnhandledTermKillsProcess)
{
    System sys(smallConfig());
    sys.boot();
    int code = sys.runProcess("killer", [](UserApi &api) {
        uint64_t victim = api.fork([](UserApi &capi) {
            // Sleep forever on a select timeout loop.
            while (true)
                capi.select({}, 100000);
            return 0;
        });
        api.kill(victim, 15);
        int status = 0;
        api.waitpid(victim, status);
        return status;
    });
    EXPECT_EQ(code, 137);
}

TEST(Kernel, SocketsTransferData)
{
    System sys(smallConfig());
    sys.boot();
    sys.runProcess("net", [](UserApi &api) {
        uint64_t server = api.fork([](UserApi &sapi) {
            int ls = sapi.socket();
            sapi.bind(ls, 8080);
            sapi.listen(ls);
            int conn = sapi.accept(ls);
            if (conn < 0)
                return 1;
            char buf[64] = {};
            int64_t n = sapi.recvHost(conn, buf, sizeof(buf));
            if (n <= 0)
                return 2;
            // Echo back.
            sapi.sendHost(conn, buf, uint64_t(n));
            sapi.close(conn);
            sapi.close(ls);
            return 0;
        });

        api.yield(); // let the server reach listen()
        int fd = api.connect(8080);
        EXPECT_GE(fd, 0);
        const char *msg = "ping!";
        EXPECT_EQ(api.sendHost(fd, msg, 5), 5);
        char back[8] = {};
        EXPECT_EQ(api.recvHost(fd, back, sizeof(back)), 5);
        EXPECT_EQ(std::memcmp(back, msg, 5), 0);
        api.close(fd);
        int status = 0;
        api.waitpid(server, status);
        EXPECT_EQ(status, 0);
        return 0;
    });
}

TEST(Kernel, SocketEofAfterClose)
{
    System sys(smallConfig());
    sys.boot();
    sys.runProcess("eof", [](UserApi &api) {
        uint64_t server = api.fork([](UserApi &sapi) {
            int ls = sapi.socket();
            sapi.bind(ls, 9000);
            sapi.listen(ls);
            int conn = sapi.accept(ls);
            sapi.sendHost(conn, "x", 1);
            sapi.close(conn);
            return 0;
        });
        api.yield();
        int fd = api.connect(9000);
        char c = 0;
        EXPECT_EQ(api.recvHost(fd, &c, 1), 1);
        EXPECT_EQ(api.recvHost(fd, &c, 1), 0); // EOF
        api.close(fd);
        int status;
        api.waitpid(server, status);
        return 0;
    });
}

TEST(Kernel, LargeSocketTransferWithFlowControl)
{
    System sys(smallConfig());
    sys.boot();
    constexpr uint64_t total = 2 << 20; // 2 MB > window
    sys.runProcess("bulk", [](UserApi &api) {
        uint64_t server = api.fork([](UserApi &sapi) {
            int ls = sapi.socket();
            sapi.bind(ls, 9100);
            sapi.listen(ls);
            int conn = sapi.accept(ls);
            uint64_t received = 0;
            std::vector<char> buf(65536);
            while (received < total) {
                int64_t n = sapi.recvHost(conn, buf.data(),
                                          buf.size());
                if (n <= 0)
                    break;
                received += uint64_t(n);
            }
            sapi.close(conn);
            return received == total ? 0 : 1;
        });
        api.yield();
        int fd = api.connect(9100);
        std::vector<char> chunk(65536, 'z');
        uint64_t sent = 0;
        while (sent < total) {
            int64_t n = api.sendHost(fd, chunk.data(), chunk.size());
            EXPECT_GT(n, 0);
            if (n <= 0)
                break;
            sent += uint64_t(n);
        }
        api.close(fd);
        int status = -1;
        api.waitpid(server, status);
        EXPECT_EQ(status, 0);
        return 0;
    });
}

TEST(Kernel, SelectReportsReadiness)
{
    System sys(smallConfig());
    sys.boot();
    sys.runProcess("sel", [](UserApi &api) {
        int fd = api.open("/f", true);
        // Files are always ready.
        EXPECT_EQ(api.select({fd}, 0), 1);

        int ls = api.socket();
        api.bind(ls, 9200);
        api.listen(ls);
        EXPECT_EQ(api.select({ls}, 0), 0); // nothing pending

        uint64_t child = api.fork([](UserApi &capi) {
            int c = capi.connect(9200);
            capi.close(c);
            return 0;
        });
        // Block in select until the child connects.
        EXPECT_EQ(api.select({ls}, 1000000), 1);
        int status;
        api.waitpid(child, status);
        return 0;
    });
}

TEST(Kernel, GhostMemoryVisibleToAppInvisibleToKernel)
{
    System sys(smallConfig());
    sys.boot();
    sys.runProcess("ghosty", [&](UserApi &api) {
        hw::Vaddr gva = api.allocGhost(2);
        EXPECT_NE(gva, 0u);
        EXPECT_TRUE(hw::isGhostAddr(gva));

        const char *secret = "TOPSECRET";
        EXPECT_TRUE(api.ghostWrite(gva, secret, 9));
        char back[16] = {};
        EXPECT_TRUE(api.ghostRead(gva, back, 9));
        EXPECT_EQ(std::memcmp(back, secret, 9), 0);

        // The kernel's own (instrumented) accessors deflect.
        uint64_t v = 0;
        sys.kernel().kmem().kread(gva, 8, v);
        uint64_t expect;
        std::memcpy(&expect, secret, 8);
        EXPECT_NE(v, expect);
        EXPECT_GT(sys.kernel().kmem().deflections(), 0u);

        EXPECT_TRUE(api.freeGhost(gva, 2));
        return 0;
    });
}

TEST(Kernel, GhostPagesSurviveContextSwitches)
{
    System sys(smallConfig());
    sys.boot();
    sys.runProcess("ctx", [](UserApi &api) {
        hw::Vaddr gva = api.allocGhost(1);
        api.ghostWrite(gva, "abc", 3);
        uint64_t child = api.fork([](UserApi &capi) {
            // The child has its own (shared-clone) view; just burn
            // time to force context switches.
            for (int i = 0; i < 3; i++)
                capi.yield();
            return 0;
        });
        for (int i = 0; i < 3; i++)
            api.yield();
        char back[4] = {};
        EXPECT_TRUE(api.ghostRead(gva, back, 3));
        EXPECT_EQ(std::memcmp(back, "abc", 3), 0);
        int status;
        api.waitpid(child, status);
        return 0;
    });
}

TEST(Kernel, ModuleInterposesSyscall)
{
    System sys(smallConfig());
    sys.boot();

    // A benign module that chains to the native read handler.
    const char *mod = R"(
module "chainer"
func @my_read(4) {
entry:
  %4 = call @k_read_native(%0, %1, %2, %3)
  ret %4
}
)";
    std::string err;
    ASSERT_TRUE(sys.kernel().loadModule("chainer", mod, &err)) << err;
    ASSERT_TRUE(sys.kernel().interposeSyscall(Sys::read, "chainer",
                                              "my_read"));

    int code = sys.runProcess("reader", [](UserApi &api) {
        int fd = api.open("/via_module", true);
        hw::Vaddr buf = api.mmap(4096);
        api.copyToUser(buf, "hello", 5);
        api.write(fd, buf, 5);
        api.lseek(fd, 0, 0);
        hw::Vaddr buf2 = api.mmap(4096);
        if (api.read(fd, buf2, 5) != 5)
            return 1;
        char back[8] = {};
        api.copyFromUser(buf2, back, 5);
        return std::memcmp(back, "hello", 5) == 0 ? 0 : 2;
    });
    EXPECT_EQ(code, 0);
    EXPECT_GT(sys.ctx().stats().get("exec.insts"), 0u);
}

namespace
{

/** Every value a module logged through klog, in order. */
std::vector<uint64_t>
loggedValues(const std::string &console)
{
    std::vector<uint64_t> values;
    const std::string needle = "[module] value=0x";
    for (size_t pos = console.find(needle); pos != std::string::npos;
         pos = console.find(needle, pos)) {
        pos += needle.size();
        values.push_back(std::stoull(console.substr(pos), nullptr, 16));
    }
    return values;
}

/** Handlers that log their four arguments and answer by themselves
 *  (len + 7000 for write, len + 9000 for sendfile). */
const char *kSpyModule = R"(
module "spy"

func @spy_write(4) {
entry:
  %4 = call @klog(%0)
  %5 = call @klog(%1)
  %6 = call @klog(%2)
  %7 = call @klog(%3)
  %8 = const 7000
  %9 = add %2, %8
  ret %9
}

func @spy_sendfile(4) {
entry:
  %4 = call @klog(%0)
  %5 = call @klog(%1)
  %6 = call @klog(%2)
  %7 = call @klog(%3)
  %8 = const 9000
  %9 = add %2, %8
  ret %9
}
)";

} // namespace

TEST(Kernel, ModuleInterposesWriteAndSendfile)
{
    System sys(smallConfig());
    sys.boot();
    Kernel &k = sys.kernel();
    std::string err;
    ASSERT_TRUE(k.loadModule("spy", kSpyModule, &err)) << err;
    ASSERT_TRUE(k.interposeSyscall(Sys::write, "spy", "spy_write"));
    ASSERT_TRUE(k.interposeSyscall(Sys::sendfile, "spy", "spy_sendfile"));

    int code = sys.runProcess("spied", [&k](UserApi &api) {
        sim::StatSet &stats = k.ctx().stats();
        int fd = api.open("/spied", true);
        hw::Vaddr buf = api.mmap(4096);
        api.copyToUser(buf, "hello", 5);
        FileStat st;

        // Hooked write: the handler gets (fd, buf, len, pid), its
        // return value is the result, and the native path never runs.
        size_t logged = k.console().output().size();
        EXPECT_EQ(api.write(fd, buf, 5), 7005);
        EXPECT_EQ(loggedValues(k.console().output().substr(logged)),
                  (std::vector<uint64_t>{uint64_t(fd), buf, 5, api.pid()}));
        EXPECT_EQ(api.stat("/spied", st), 0);
        EXPECT_EQ(st.size, 0u);

        int ls = api.socket();
        api.bind(ls, 8080);
        api.listen(ls);
        int client = api.connect(8080);
        api.accept(ls);

        // Hooked sendfile: the handler gets (out_fd, in_fd, len, pid)
        // and nothing goes on the wire.
        uint64_t sent = stats.get("net.bytes_sent");
        logged = k.console().output().size();
        EXPECT_EQ(api.sendfile(client, fd, 5), 9005);
        EXPECT_EQ(loggedValues(k.console().output().substr(logged)),
                  (std::vector<uint64_t>{uint64_t(client), uint64_t(fd), 5,
                                         api.pid()}));
        EXPECT_EQ(stats.get("net.bytes_sent"), sent);
        return 0;
    });
    EXPECT_EQ(code, 0);
}

TEST(Kernel, UnsignedModuleTextRefused)
{
    System sys(smallConfig());
    sys.boot();
    std::string err;
    EXPECT_FALSE(sys.kernel().loadModule("bad", "not vir", &err));
    EXPECT_FALSE(err.empty());
}

TEST(Kernel, OsRandomIsRiggableOnlyWithoutVg)
{
    // Hostile kernel, no VG: rigged /dev/random returns constants.
    System native(smallConfig(sim::VgConfig::native()));
    native.boot();
    native.kernel().setRngRigged(true);
    native.runProcess("iago", [](UserApi &api) {
        uint8_t buf[16];
        api.osRandom(buf, sizeof(buf));
        for (uint8_t b : buf)
            EXPECT_EQ(b, 0x41);
        return 0;
    });

    // Under VG the same request is served by the trusted generator.
    System vg(smallConfig());
    vg.boot();
    vg.kernel().setRngRigged(true);
    vg.runProcess("iago2", [](UserApi &api) {
        uint8_t buf[16];
        api.osRandom(buf, sizeof(buf));
        bool all_rigged = true;
        for (uint8_t b : buf)
            all_rigged = all_rigged && b == 0x41;
        EXPECT_FALSE(all_rigged);
        return 0;
    });
}

TEST(Kernel, AppKeyRoundtripThroughExec)
{
    System sys(smallConfig());
    sys.boot();

    crypto::AesKey app_key{};
    for (int i = 0; i < 16; i++)
        app_key[size_t(i)] = uint8_t(0x80 + i);
    sva::AppBinary binary =
        sys.vm().packageApp("secureapp", "code-v1", app_key);

    int code = sys.runProcess("loader", [&](UserApi &api) {
        return api.execve(&binary, [&](UserApi &napi) {
            auto key = napi.getKey();
            if (!key)
                return 1;
            return *key == app_key ? 0 : 2;
        });
    });
    EXPECT_EQ(code, 0);

    // A tampered binary refuses to start.
    sva::AppBinary evil = binary;
    evil.codeIdentity = "trojan";
    int code2 = sys.runProcess("loader2", [&](UserApi &api) {
        return api.execve(&evil, [](UserApi &) { return 0; });
    });
    EXPECT_EQ(code2, -1);
}

TEST(Kernel, VgSyscallsCostMoreThanNative)
{
    auto measure = [](sim::VgConfig cfg) {
        System sys(smallConfig(cfg));
        sys.boot();
        sim::Cycles spent = 0;
        sys.runProcess("bench", [&](UserApi &api) {
            sim::Stopwatch sw(sys.ctx().clock());
            for (int i = 0; i < 100; i++)
                api.getpid();
            spent = sw.elapsed();
            return 0;
        });
        return spent;
    };
    sim::Cycles native = measure(sim::VgConfig::native());
    sim::Cycles vg = measure(sim::VgConfig::full());
    EXPECT_GT(vg, 2 * native);
}

// --------------------------------------------------------------------
// Process fibers: stack lifecycle and unwinding
// --------------------------------------------------------------------

namespace
{

/** Recurse through @p depth frames of ~1 KB each and switch out and
 *  back at the bottom; returns depth + 1. */
uint64_t
burnStack(UserApi &api, unsigned depth)
{
    volatile uint8_t frame[1024];
    frame[0] = 1;
    if (depth == 0) {
        api.yield();
        return frame[0];
    }
    return burnStack(api, depth - 1) + frame[0];
}

} // namespace

TEST(FiberLifecycle, ForkExitWaitRoundsLeaveNoStacks)
{
    System sys(smallConfig());
    sys.boot();
    uint64_t most_live = 0;
    int code = sys.runProcess("forker", [&](UserApi &api) {
        for (int i = 0; i < 2000; i++) {
            uint64_t child =
                api.fork([](UserApi &capi) -> int { capi.exit(3); });
            int status = -1;
            if (api.waitpid(child, status) != 0 || status != 3)
                return 1;
            most_live =
                std::max(most_live, sys.kernel().liveFiberStacks());
        }
        return 0;
    });
    EXPECT_EQ(code, 0);
    // Each child's stack was gone before its parent reaped it.
    EXPECT_EQ(most_live, 1u);
    EXPECT_EQ(sys.kernel().liveFiberStacks(), 0u);
}

TEST(FiberLifecycle, WaitpidReapsTheChild)
{
    System sys(smallConfig());
    sys.boot();
    int first = -2, status = -1, second = -2;
    bool reaped = false;
    int code = sys.runProcess("reaper", [&](UserApi &api) {
        uint64_t child =
            api.fork([](UserApi &capi) -> int { capi.exit(3); });
        first = api.waitpid(child, status);
        reaped = sys.kernel().process(child) == nullptr;
        // The pid is gone: a second wait fails instead of sleeping.
        int again = -1;
        second = api.waitpid(child, again);
        return 0;
    });
    EXPECT_EQ(code, 0);
    EXPECT_EQ(first, 0);
    EXPECT_EQ(status, 3);
    EXPECT_TRUE(reaped);
    EXPECT_EQ(second, -1);
}

TEST(FiberLifecycle, KillWhileBlockedInRecvUnwindsTheFiber)
{
    System sys(smallConfig());
    sys.boot();
    bool guard_ran = false;
    bool victim_blocked = false;
    int code = sys.runProcess("killer", [&](UserApi &api) {
        int ls = api.socket();
        api.bind(ls, 9300);
        api.listen(ls);
        uint64_t victim = api.fork([&guard_ran](UserApi &vapi) {
            struct Guard
            {
                bool &ran;
                ~Guard() { ran = true; }
            } guard{guard_ran};
            int fd = vapi.connect(9300);
            char c = 0;
            vapi.recvHost(fd, &c, 1); // nobody ever sends
            return 0;
        });
        int conn = api.accept(ls);
        victim_blocked =
            sys.kernel().process(victim)->state == ProcState::Blocked;
        api.kill(victim, 9);
        int status = -1;
        api.waitpid(victim, status);
        api.close(conn);
        api.close(ls);
        return status;
    });
    EXPECT_TRUE(victim_blocked);
    EXPECT_EQ(code, 137);
    EXPECT_TRUE(guard_ran);
}

TEST(FiberLifecycle, DestroyingSystemWithUnstartedProcessIsClean)
{
    bool ran = false;
    {
        System sys(smallConfig());
        sys.boot();
        sys.kernel().spawn("never", [&ran](UserApi &) {
            ran = true;
            return 0;
        });
        EXPECT_EQ(sys.kernel().liveFiberStacks(), 1u);
    }
    EXPECT_FALSE(ran);
}

namespace
{

/** Keep twelve accumulators live across @p rounds yields under
 *  rounding mode @p mode, checking the mode (x87 control word) and an
 *  SSE division (MXCSR) after every switch. Returns 0, or the first
 *  failed check. */
int
yieldWithLiveRegisters(UserApi &api, int mode, uint64_t seed,
                       uint64_t rounds)
{
    if (fesetround(mode) != 0)
        return 1;
    volatile double num = 1.0, den = 3.0;
    const double third = num / den;
    uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0, a4 = 0, a5 = 0;
    uint64_t a6 = 0, a7 = 0, a8 = 0, a9 = 0, a10 = 0, a11 = 0;
    for (uint64_t i = 0; i < rounds; i++) {
        a0 += i * 1 + seed * 0;
        a1 += i * 3 + seed * 1;
        a2 += i * 5 + seed * 2;
        a3 += i * 7 + seed * 3;
        a4 += i * 9 + seed * 4;
        a5 += i * 11 + seed * 5;
        a6 += i * 13 + seed * 6;
        a7 += i * 15 + seed * 7;
        a8 += i * 17 + seed * 8;
        a9 += i * 19 + seed * 9;
        a10 += i * 21 + seed * 10;
        a11 += i * 23 + seed * 11;
        api.yield();
        if (fegetround() != mode)
            return 2;
        if (num / den != third)
            return 3;
    }
    // acc[k] = sum over i of (2k + 1) i + k seed.
    const uint64_t tri = rounds * (rounds - 1) / 2;
    const uint64_t got[] = {a0, a1, a2, a3, a4, a5,
                            a6, a7, a8, a9, a10, a11};
    for (uint64_t k = 0; k < 12; k++)
        if (got[k] != (2 * k + 1) * tri + k * seed * rounds)
            return 4;
    return 0;
}

} // namespace

TEST(FiberLifecycle, SwitchKeepsEachProcessesRegistersAndRoundingMode)
{
    System sys(smallConfig());
    sys.boot();
    Kernel &k = sys.kernel();
    uint64_t up = k.spawn("up", [](UserApi &api) {
        return yieldWithLiveRegisters(api, FE_UPWARD, 1001, 1000);
    });
    uint64_t down = k.spawn("down", [](UserApi &api) {
        return yieldWithLiveRegisters(api, FE_DOWNWARD, 7777, 1000);
    });
    k.run();
    EXPECT_EQ(k.exitCodes().at(up), 0);
    EXPECT_EQ(k.exitCodes().at(down), 0);
    // The scheduler's own rounding mode never changed either.
    EXPECT_EQ(fegetround(), FE_TONEAREST);
}

TEST(FiberLifecycle, ExceptionEscapingABodyIsRethrownFromRun)
{
    System sys(smallConfig());
    sys.boot();
    Kernel &k = sys.kernel();
    k.spawn("peer", [](UserApi &api) {
        for (int i = 0; i < 4; i++)
            api.yield();
        return 0;
    });
    k.spawn("thrower", [](UserApi &api) -> int {
        api.yield();
        throw std::runtime_error("thrown on a fiber");
    });
    try {
        k.run();
        ADD_FAILURE() << "run() returned normally";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "thrown on a fiber");
    }
    // Leaving scope destroys the machine with both fibers unfinished.
}

TEST(FiberLifecycle, DeepRecursionFitsTheFiberStack)
{
    System sys(smallConfig());
    sys.boot();
    uint64_t frames = 0;
    int code = sys.runProcess("deep", [&frames](UserApi &api) {
        frames = burnStack(api, 2048); // ~2 MB of stack
        return 0;
    });
    EXPECT_EQ(code, 0);
    EXPECT_EQ(frames, 2049u);
}

// --------------------------------------------------------------------
// Syscall entry path: every gated UserApi entry, digest-pinned
// --------------------------------------------------------------------

namespace
{

/** Interposes the three hookable calls: read chains to the native
 *  handler, write chains through k_exfil_fd, sendfile answers itself. */
const char *kSweepModule = R"(
module "sweep"

func @hook_read(4) {
entry:
  %4 = call @k_read_native(%0, %1, %2, %3)
  ret %4
}

func @hook_write(4) {
entry:
  %4 = call @k_exfil_fd(%3, %0, %1, %2)
  ret %4
}

func @hook_sendfile(4) {
entry:
  %4 = call @k_stat_add(%2)
  ret %2
}
)";

/** Gated UserApi entries sweepEveryEntry() calls, each exactly once. */
constexpr uint64_t kGatedCalls = 31;

/**
 * One process calls every gated UserApi entry once, with sizes drawn
 * from @p seed, and every ungated one at least once. Each gated call
 * must cross the gate exactly once (sva.syscalls + 1); each ungated
 * call must not cross it at all.
 */
int
sweepEveryEntry(UserApi &api, uint64_t seed)
{
    sim::StatSet &stats = api.kernel().ctx().stats();
    sim::SplitMix64 rng(seed);
    const uint64_t len = 64 + rng.next() % 3000;
    const uint64_t msg = 16 + rng.next() % (len - 16);
    const uint64_t burst = 1000 + rng.next() % 50000;
    const uint16_t port = uint16_t(2000 + rng.next() % 1000);
    std::vector<uint8_t> data(len);
    for (uint8_t &b : data)
        b = uint8_t(rng.next());
    std::vector<uint8_t> back(len);

    auto gated = [&stats](const char *name, auto &&call) {
        uint64_t before = stats.get("sva.syscalls");
        auto r = call();
        EXPECT_EQ(stats.get("sva.syscalls"), before + 1) << name;
        return r;
    };
    auto ungated = [&stats](const char *name, auto &&call) {
        uint64_t before = stats.get("sva.syscalls");
        auto r = call();
        EXPECT_EQ(stats.get("sva.syscalls"), before) << name;
        return r;
    };

    const uint64_t pid = api.pid();
    EXPECT_EQ(gated("getpid", [&] { return api.getpid(); }), int(pid));

    int signals = 0;
    gated("installSignalHandler", [&] {
        return api.installSignalHandler(
            10, [&signals](int) { signals++; }, true);
    });
    EXPECT_EQ(gated("kill", [&] { return api.kill(pid, 10); }), 0);
    EXPECT_EQ(signals, 1);

    uint8_t rnd[16];
    gated("osRandom", [&] {
        api.osRandom(rnd, sizeof(rnd));
        return 0;
    });
    ungated("secureRandom", [&] {
        api.secureRandom(rnd, sizeof(rnd));
        return 0;
    });
    ungated("getKey", [&] { return api.getKey().has_value(); });
    ungated("compute", [&] {
        api.compute(burst);
        return 0;
    });
    ungated("yield", [&] {
        api.yield();
        return 0;
    });

    // Files through user memory; read and write are hooked.
    int fd = gated("open", [&] { return api.open("/sweep", true); });
    EXPECT_GE(fd, 0);
    hw::Vaddr va = gated("mmap", [&] { return api.mmap(2 * len); });
    EXPECT_NE(va, 0u);
    EXPECT_TRUE(ungated("copyToUser", [&] {
        return api.copyToUser(va, data.data(), len);
    }));
    uint64_t word = 0;
    EXPECT_TRUE(ungated("poke", [&] { return api.poke(va + len, 8, ~0ull); }));
    EXPECT_TRUE(ungated("peek", [&] { return api.peek(va + len, 8, word); }));
    EXPECT_EQ(word, ~0ull);
    EXPECT_EQ(gated("write", [&] { return api.write(fd, va, len); }),
              int64_t(len));
    EXPECT_EQ(gated("lseek", [&] { return api.lseek(fd, 0, 0); }), 0);
    const uint64_t half = len / 2;
    EXPECT_EQ(gated("readHost",
                    [&] { return api.readHost(fd, back.data(), half); }),
              int64_t(half));
    EXPECT_EQ(gated("read",
                    [&] { return api.read(fd, va + len, len - half); }),
              int64_t(len - half));
    EXPECT_TRUE(ungated("copyFromUser", [&] {
        return api.copyFromUser(va + len, back.data() + half, len - half);
    }));
    EXPECT_EQ(back, data);
    EXPECT_EQ(gated("fsync", [&] { return api.fsync(fd); }), 0);
    FileStat st;
    EXPECT_EQ(gated("stat", [&] { return api.stat("/sweep", st); }), 0);
    EXPECT_EQ(st.size, len);
    EXPECT_EQ(gated("mkdir", [&] { return api.mkdir("/sweep.d"); }), 0);
    hw::Vaddr fva = gated("mmapFile", [&] { return api.mmapFile(fd, len); });
    EXPECT_NE(fva, 0u);
    EXPECT_TRUE(ungated("peek", [&] { return api.peek(fva, 1, word); }));
    EXPECT_EQ(word, data[0]);
    EXPECT_EQ(gated("munmap", [&] { return api.munmap(fva, len); }), 0);

    // Ghost memory.
    hw::Vaddr ghost = gated("allocGhost", [&] { return api.allocGhost(1); });
    EXPECT_NE(ghost, 0u);
    EXPECT_TRUE(ungated("ghostWrite", [&] {
        return api.ghostWrite(ghost, data.data(), len);
    }));
    std::vector<uint8_t> gback(len);
    EXPECT_TRUE(ungated("ghostRead", [&] {
        return api.ghostRead(ghost, gback.data(), len);
    }));
    EXPECT_EQ(gback, data);
    EXPECT_TRUE(gated("freeGhost", [&] { return api.freeGhost(ghost, 1); }));

    // Sockets: a loopback connection to ourselves; sendfile is hooked.
    int ls = gated("socket", [&] { return api.socket(); });
    EXPECT_EQ(gated("bind", [&] { return api.bind(ls, port); }), 0);
    EXPECT_EQ(gated("listen", [&] { return api.listen(ls); }), 0);
    int client = gated("connect", [&] { return api.connect(port); });
    int server = gated("accept", [&] { return api.accept(ls); });
    EXPECT_GE(client, 0);
    EXPECT_GE(server, 0);
    EXPECT_EQ(gated("sendHost",
                    [&] { return api.sendHost(client, data.data(), msg); }),
              int64_t(msg));
    EXPECT_EQ(gated("select", [&] { return api.select({server}, 1000000); }),
              1);
    EXPECT_GT(gated("recvHost",
                    [&] { return api.recvHost(server, back.data(), msg); }),
              0);
    EXPECT_EQ(gated("sendfile",
                    [&] { return api.sendfile(client, fd, len); }),
              int64_t(len));
    EXPECT_EQ(gated("close", [&] { return api.close(client); }), 0);
    EXPECT_EQ(gated("unlink", [&] { return api.unlink("/sweep"); }), 0);

    // Processes.
    uint64_t child = gated("fork", [&] {
        return api.fork([](UserApi &) { return 3; });
    });
    int status = -1;
    EXPECT_EQ(gated("waitpid", [&] { return api.waitpid(child, status); }),
              0);
    EXPECT_EQ(status, 3);

    uint64_t before_exec = stats.get("sva.syscalls");
    return api.execve(nullptr, [&stats, before_exec](UserApi &) {
        EXPECT_EQ(stats.get("sva.syscalls"), before_exec + 1) << "execve";
        return 5;
    });
}

/** Machine digests (vCPU clocks + stat map), recorded before the
 *  entry points were folded into one gate; key is (seed, vcpus). */
const std::map<std::pair<int, unsigned>, uint64_t> kSyscallGolden = {
    {{1, 1}, 0x973e87ab8e747a95ull},
    {{1, 2}, 0x45da21d2a97b762eull},
    {{1, 4}, 0x82a7d9714f32beeeull},
    {{2, 1}, 0x5f0b5ca7072ce4bdull},
    {{2, 2}, 0x1ef89ad437c6ab98ull},
    {{2, 4}, 0x586dfcb1f9009d58ull},
    {{3, 1}, 0x3fe16304e164b085ull},
    {{3, 2}, 0xd32c98be92dfb671ull},
    {{3, 4}, 0x33ed0eb9b7d6b731ull},
};

} // namespace

class SyscallGoldenSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>>
{};

TEST_P(SyscallGoldenSweep, EveryEntryCrossesTheGateOnce)
{
    auto [seed, vcpus] = GetParam();
    SystemConfig cfg = smallConfig();
    cfg.vg.seed = uint64_t(seed);
    cfg.vg.vcpus = vcpus;
    System sys(cfg);
    sys.boot();
    Kernel &k = sys.kernel();
    std::string err;
    ASSERT_TRUE(k.loadModule("sweep", kSweepModule, &err)) << err;
    ASSERT_TRUE(k.interposeSyscall(Sys::read, "sweep", "hook_read"));
    ASSERT_TRUE(k.interposeSyscall(Sys::write, "sweep", "hook_write"));
    ASSERT_TRUE(k.interposeSyscall(Sys::sendfile, "sweep", "hook_sendfile"));

    uint64_t before = sys.ctx().stats().get("sva.syscalls");
    int code = sys.runProcess("sweep", [seed](UserApi &api) {
        return sweepEveryEntry(api, uint64_t(seed));
    });
    EXPECT_EQ(code, 5);
    EXPECT_EQ(sys.ctx().stats().get("sva.syscalls"), before + kGatedCalls);

    // Machine digest without the verifiers' host-time counters
    // (*.wall_ns, different on every run) and without never-bumped
    // counters (registering a stat handle alone must not move it).
    std::map<std::string, uint64_t> stats = sys.ctx().stats().all();
    std::erase_if(stats, [](const auto &kv) {
        return kv.second == 0 || kv.first.ends_with(".wall_ns");
    });
    test::Golden g;
    for (unsigned c = 0; c < sys.ctx().vcpuCount(); c++)
        g.u64(sys.ctx().clockOf(c).now());
    g.stats(stats).str(k.console().output());
    EXPECT_TRUE(test::matchesGolden(
        g.h, kSyscallGolden.at({seed, vcpus})));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SyscallGoldenSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1u, 2u, 4u)));

TEST(FrameAllocator, FreshAllocatorCountsUp)
{
    sim::SimContext ctx;
    FrameAllocator frames(5, 6, ctx);
    for (hw::Frame want = 5; want < 11; want++)
        EXPECT_EQ(frames.alloc(), want);
    EXPECT_EQ(frames.alloc(), std::nullopt);
    EXPECT_EQ(frames.freeCount(), 0u);
    EXPECT_EQ(frames.totalCount(), 6u);
}

TEST(FrameAllocator, MostRecentlyFreedComesBackFirst)
{
    sim::SimContext ctx;
    FrameAllocator frames(1, 8, ctx);
    for (int i = 0; i < 4; i++)
        frames.alloc(); // 1..4 out
    frames.free(2);
    frames.free(4);
    frames.free(3);
    EXPECT_EQ(frames.alloc(), 3u);
    EXPECT_EQ(frames.alloc(), 4u);
    EXPECT_EQ(frames.alloc(), 2u);
    // Then the untouched frames, still in ascending order.
    EXPECT_EQ(frames.alloc(), 5u);
    EXPECT_EQ(frames.freeCount(), 3u);
}
