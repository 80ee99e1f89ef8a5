/**
 * @file
 * Kernel integration tests: processes, syscalls, fork/exec/wait,
 * signals via SVA, sockets, ghost memory and module interposition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "kernel/system.hh"

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
