/**
 * @file
 * Application-suite integration tests: ghost heap, secure file I/O,
 * the OpenSSH trio end-to-end, thttpd + ApacheBench, Postmark.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <string>

#include "apps/postmark.hh"
#include "apps/ssh_common.hh"
#include "apps/thttpd.hh"
#include "kernel/system.hh"

#include "golden.hh"

using namespace vg;
using namespace vg::kern;
using namespace vg::apps;

namespace
{

SystemConfig
appConfig(sim::VgConfig vg = sim::VgConfig::full())
{
    SystemConfig cfg;
    cfg.vg = vg;
    cfg.memFrames = 8192;  // 32 MB
    cfg.diskBlocks = 8192; // 32 MB
    cfg.rsaBits = 384;
    return cfg;
}

crypto::AesKey
testAppKey()
{
    crypto::AesKey key{};
    for (int i = 0; i < 16; i++)
        key[size_t(i)] = uint8_t(0x20 + i);
    return key;
}

/** Write a deterministic file straight into the filesystem. */
void
plantFile(Kernel &kernel, const std::string &path, uint64_t size)
{
    Ino ino = 0;
    ASSERT_EQ(kernel.fs().create(path, ino), FsStatus::Ok);
    std::vector<uint8_t> data(size);
    for (uint64_t i = 0; i < size; i++)
        data[i] = uint8_t(i * 37 + 11);
    ASSERT_EQ(kernel.fs().write(ino, 0, data.data(), size),
              int64_t(size));
}

std::vector<uint8_t>
expectedFile(uint64_t size)
{
    std::vector<uint8_t> data(size);
    for (uint64_t i = 0; i < size; i++)
        data[i] = uint8_t(i * 37 + 11);
    return data;
}

} // namespace

// --------------------------------------------------------------------
// Ghost heap
// --------------------------------------------------------------------

TEST(GhostHeap, AllocFreeReuse)
{
    System sys(appConfig());
    sys.boot();
    sys.runProcess("heap", [](UserApi &api) {
        ghost::GhostHeap heap(api);
        hw::Vaddr a = heap.gmalloc(100);
        hw::Vaddr b = heap.gmalloc(200);
        EXPECT_NE(a, 0u);
        EXPECT_NE(b, 0u);
        EXPECT_NE(a, b);
        EXPECT_TRUE(hw::isGhostAddr(a));
        EXPECT_EQ(heap.blockSize(a), 112u); // 16-byte aligned
        EXPECT_EQ(heap.bytesInUse(), 112u + 208u);

        heap.gfree(a);
        hw::Vaddr c = heap.gmalloc(50);
        EXPECT_EQ(c, a); // first-fit reuse
        heap.gfree(b);
        heap.gfree(c);
        EXPECT_EQ(heap.bytesInUse(), 0u);
        return 0;
    });
}

TEST(GhostHeap, DataRoundtrip)
{
    System sys(appConfig());
    sys.boot();
    sys.runProcess("heap2", [](UserApi &api) {
        ghost::GhostHeap heap(api);
        hw::Vaddr a = heap.gmalloc(64);
        std::vector<uint8_t> data(64);
        for (int i = 0; i < 64; i++)
            data[size_t(i)] = uint8_t(i);
        EXPECT_TRUE(heap.write(a, data.data(), data.size()));

        std::vector<uint8_t> back(64);
        EXPECT_TRUE(heap.read(a, back.data(), back.size()));
        EXPECT_EQ(back, data);
        return 0;
    });
}

TEST(GhostHeap, GrowsArenaAcrossPages)
{
    System sys(appConfig());
    sys.boot();
    sys.runProcess("heap3", [](UserApi &api) {
        ghost::GhostHeap heap(api);
        std::vector<hw::Vaddr> blocks;
        for (int i = 0; i < 40; i++) {
            hw::Vaddr va = heap.gmalloc(8192);
            EXPECT_NE(va, 0u);
            blocks.push_back(va);
        }
        EXPECT_GE(heap.arenaBytes(), 40u * 8192u);
        for (hw::Vaddr va : blocks)
            heap.gfree(va);
        return 0;
    });
}

// --------------------------------------------------------------------
// Secure file I/O through the hostile OS
// --------------------------------------------------------------------

TEST(SecureIo, RoundtripAndTamperDetection)
{
    System sys(appConfig());
    sys.boot();
    crypto::AesKey key = testAppKey();
    sva::AppBinary bin = sys.vm().packageApp("app", "code", key);

    int code = sys.runProcess("sec", [&](UserApi &api) {
        return api.execve(&bin, [](UserApi &napi) {
            ghost::GhostRuntime rt(napi);
            std::vector<uint8_t> secret = {'k', 'e', 'y', 's'};
            if (!rt.writeSecureFile("/vault", secret))
                return 1;
            std::vector<uint8_t> back;
            if (!rt.readSecureFile("/vault", back))
                return 2;
            if (back != secret)
                return 3;
            return 0;
        });
    });
    EXPECT_EQ(code, 0);

    // The hostile OS flips a ciphertext bit on disk.
    Ino ino = 0;
    ASSERT_EQ(sys.kernel().fs().lookup("/vault", ino), FsStatus::Ok);
    uint8_t byte = 0;
    sys.kernel().fs().read(ino, 40, &byte, 1);
    byte ^= 0x1;
    sys.kernel().fs().write(ino, 40, &byte, 1);

    int code2 = sys.runProcess("sec2", [&](UserApi &api) {
        return api.execve(&bin, [](UserApi &napi) {
            ghost::GhostRuntime rt(napi);
            std::vector<uint8_t> back;
            // Corruption must be detected, not silently returned.
            return rt.readSecureFile("/vault", back) ? 1 : 0;
        });
    });
    EXPECT_EQ(code2, 0);
}

TEST(SecureIo, OsSeesOnlyCiphertext)
{
    System sys(appConfig());
    sys.boot();
    crypto::AesKey key = testAppKey();
    sva::AppBinary bin = sys.vm().packageApp("app", "code", key);

    std::string secret = "private authentication key material";
    sys.runProcess("writer", [&](UserApi &api) {
        return api.execve(&bin, [&](UserApi &napi) {
            ghost::GhostRuntime rt(napi);
            rt.writeSecureFile(
                "/id", std::vector<uint8_t>(secret.begin(),
                                            secret.end()));
            return 0;
        });
    });

    Ino ino = 0;
    ASSERT_EQ(sys.kernel().fs().lookup("/id", ino), FsStatus::Ok);
    FileStat st;
    sys.kernel().fs().stat(ino, st);
    std::vector<uint8_t> raw(st.size);
    sys.kernel().fs().read(ino, 0, raw.data(), st.size);
    std::string raw_str(raw.begin(), raw.end());
    EXPECT_EQ(raw_str.find(secret), std::string::npos);
}

// --------------------------------------------------------------------
// OpenSSH suite end-to-end
// --------------------------------------------------------------------

namespace
{

/** keygen, then serve one connection and fetch a file. */
SshResult
sshRoundtrip(System &sys, const sva::AppBinary &bin, uint64_t file_size,
             bool ghosting)
{
    plantFile(sys.kernel(), "/payload", file_size);
    SshResult result;

    sys.runProcess("init", [&](UserApi &api) {
        // ssh-keygen writes the (encrypted) auth keys.
        uint64_t kg = api.fork([&](UserApi &capi) {
            return capi.execve(&bin, [](UserApi &napi) {
                return sshKeygen(napi);
            });
        });
        int status = -1;
        api.waitpid(kg, status);
        if (status != 0)
            return 1;

        uint64_t srv = api.fork([&](UserApi &capi) {
            SshdConfig cfg;
            cfg.maxConnections = 1;
            return sshd(capi, cfg);
        });
        // Let the server reach accept().
        for (int i = 0; i < 4; i++)
            api.yield();

        uint64_t cli = api.fork([&](UserApi &capi) {
            return capi.execve(&bin, [&](UserApi &napi) {
                result = sshFetch(napi, "/payload", ghosting,
                                  /*keep_data=*/true);
                return result.ok ? 0 : 1;
            });
        });
        api.waitpid(cli, status);
        api.waitpid(srv, status);
        return 0;
    });
    return result;
}

} // namespace

TEST(Ssh, KeygenProtectsPrivateKeyOnDisk)
{
    System sys(appConfig());
    sys.boot();
    crypto::AesKey key = testAppKey();
    sva::AppBinary bin = sys.vm().packageApp("openssh", "ssh-code", key);

    int code = sys.runProcess("kg", [&](UserApi &api) {
        return api.execve(&bin, [](UserApi &napi) {
            return sshKeygen(napi);
        });
    });
    ASSERT_EQ(code, 0);

    // The public key is plaintext and parses; the private key file
    // does not contain the serialized private key in the clear.
    Ino pub = 0, priv = 0;
    ASSERT_EQ(sys.kernel().fs().lookup(authPubPath, pub), FsStatus::Ok);
    ASSERT_EQ(sys.kernel().fs().lookup(authKeyPath, priv),
              FsStatus::Ok);

    FileStat st;
    sys.kernel().fs().stat(pub, st);
    std::vector<uint8_t> pub_raw(st.size);
    sys.kernel().fs().read(pub, 0, pub_raw.data(), st.size);
    bool ok = false;
    crypto::RsaPublicKey parsed =
        crypto::RsaPublicKey::deserialize(pub_raw, ok);
    EXPECT_TRUE(ok);
    EXPECT_GT(parsed.n.bitLength(), 200u);

    FileStat pst;
    sys.kernel().fs().stat(priv, pst);
    std::vector<uint8_t> priv_raw(pst.size);
    sys.kernel().fs().read(priv, 0, priv_raw.data(), pst.size);
    // The modulus bytes appear in the public file; they must not be
    // findable in the encrypted private file.
    std::string priv_str(priv_raw.begin(), priv_raw.end());
    std::string needle(pub_raw.begin() + 2, pub_raw.begin() + 18);
    EXPECT_EQ(priv_str.find(needle), std::string::npos);
}

TEST(Ssh, TransferNonGhosting)
{
    System sys(appConfig());
    sys.boot();
    sva::AppBinary bin =
        sys.vm().packageApp("openssh", "ssh-code", testAppKey());
    SshResult r = sshRoundtrip(sys, bin, 64 * 1024, false);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.bytes, 64u * 1024u);
    EXPECT_EQ(r.data, expectedFile(64 * 1024));
}

TEST(Ssh, TransferGhostingClient)
{
    System sys(appConfig());
    sys.boot();
    sva::AppBinary bin =
        sys.vm().packageApp("openssh", "ssh-code", testAppKey());
    SshResult r = sshRoundtrip(sys, bin, 64 * 1024, true);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.data, expectedFile(64 * 1024));
    // Ghost pages were actually used.
    EXPECT_GT(sys.ctx().stats().get("sva.ghost_pages_allocated"), 0u);
}

namespace
{

/** A forged sshd: it speaks vgssh up to the client's GET, answers with
 *  @p size_line and hangs up. It accepts any signature and publishes
 *  the client's own public key as the host key, so the client's
 *  session key wraps to a key this server never uses. */
int
fakeSizeServer(UserApi &api, const std::string &size_line)
{
    ghost::GhostRuntime rt(api);
    std::vector<uint8_t> pub;
    if (!rt.readFile(authPubPath, pub) || !rt.writeFile(hostKeyPath, pub))
        return 1;
    int ls = api.socket();
    if (api.bind(ls, sshdPort) != 0 || api.listen(ls) != 0)
        return 2;
    int conn = api.accept(ls);
    if (conn < 0)
        return 3;
    std::string banner, request;
    std::vector<uint8_t> ignored;
    bool ok = recvStr(api, conn, banner) &&
              sendMsg(api, conn, std::vector<uint8_t>(16, 7)) &&
              recvMsg(api, conn, ignored) && sendStr(api, conn, "OK") &&
              recvMsg(api, conn, ignored) &&
              recvStr(api, conn, request) &&
              sendStr(api, conn, size_line);
    api.close(conn);
    api.close(ls);
    return ok ? 0 : 4;
}

} // namespace

TEST(Ssh, MalformedSizeLineFailsSession)
{
    // The SIZE line crosses the OS: a non-number, trailing junk or a
    // value past 64 bits fails the session without throwing out of
    // the simulated process.
    for (const char *line :
         {"SIZE abc", "SIZE 12x", "SIZE 99999999999999999999999"}) {
        System sys(appConfig());
        sys.boot();
        sva::AppBinary bin =
            sys.vm().packageApp("openssh", "ssh-code", testAppKey());
        SshResult result;
        result.ok = true;
        int server_status = -1;
        int client_status = -1;
        sys.runProcess("init", [&](UserApi &api) {
            uint64_t kg = api.fork([&](UserApi &capi) {
                return capi.execve(&bin, [](UserApi &napi) {
                    return sshKeygen(napi);
                });
            });
            int status = -1;
            api.waitpid(kg, status);
            if (status != 0)
                return 1;
            uint64_t srv = api.fork([&](UserApi &capi) {
                return fakeSizeServer(capi, line);
            });
            for (int i = 0; i < 4; i++)
                api.yield();
            uint64_t cli = api.fork([&](UserApi &capi) {
                return capi.execve(&bin, [&](UserApi &napi) {
                    result = sshFetch(napi, "/payload", false,
                                      /*keep_data=*/true);
                    return result.ok ? 0 : 1;
                });
            });
            api.waitpid(cli, client_status);
            api.waitpid(srv, server_status);
            return 0;
        });
        EXPECT_EQ(server_status, 0) << line;
        EXPECT_EQ(client_status, 1) << line;
        EXPECT_FALSE(result.ok) << line;
        EXPECT_EQ(result.bytes, 0u) << line;
        EXPECT_TRUE(result.data.empty()) << line;
    }
}

// --------------------------------------------------------------------
// ssh golden guard: one keygen + session per payload size and client
// mode, digested as simulated cycles, stat deltas and received bytes.
// The sizes straddle the 32 KB chunk: empty tail, one full chunk, one
// byte over, and many chunks.
// --------------------------------------------------------------------

namespace
{

constexpr uint64_t kSshGoldenSizes[] = {1,         1024,   32 * 1024,
                                        32 * 1024 + 1, 100001,
                                        1024 * 1024};

/** Recorded digests: ghosting -> one per kSshGoldenSizes entry. */
const std::map<bool, std::array<uint64_t, 6>> kSshGolden = {
    {false,
     {0x75d63a9966a0971eull, 0x0932a51ef6af02a7ull,
      0xc29948d9375b1710ull, 0x7d8b749c56b95ae9ull,
      0x0e171573feaae976ull, 0xdf0699e2e6a9d6e4ull}},
    {true,
     {0x9959f85fb96575d0ull, 0xc98e386f0193b31bull,
      0x2ede2c09818e0bb3ull, 0x1914e45f9b04d592ull,
      0x1532b22fbb9f2d97ull, 0x8e3a1497413102b2ull}},
};

void
checkSshGolden(bool ghosting)
{
    for (size_t i = 0; i < std::size(kSshGoldenSizes); i++) {
        uint64_t size = kSshGoldenSizes[i];
        System sys(appConfig());
        sys.boot();
        sva::AppBinary bin =
            sys.vm().packageApp("openssh", "ssh-code", testAppKey());
        sim::SimContext &ctx = sys.ctx();
        std::vector<uint64_t> clocks;
        for (unsigned c = 0; c < ctx.vcpuCount(); c++)
            clocks.push_back(ctx.clockOf(c).now());
        std::map<std::string, uint64_t> before = ctx.stats().all();

        SshResult r = sshRoundtrip(sys, bin, size, ghosting);
        ASSERT_TRUE(r.ok) << "size " << size;
        ASSERT_EQ(r.data, expectedFile(size)) << "size " << size;

        test::Golden g;
        g.u64(size).u64(ghosting);
        for (unsigned c = 0; c < ctx.vcpuCount(); c++)
            g.u64(ctx.clockOf(c).now() - clocks[c]);
        std::map<std::string, uint64_t> delta;
        for (const auto &[name, value] : ctx.stats().all())
            if (value != before[name])
                delta[name] = value - before[name];
        g.stats(delta).u64(r.bytes).vec(r.data);
        EXPECT_TRUE(
            test::matchesGolden(g.h, kSshGolden.at(ghosting)[i]))
            << "size " << size;
    }
}

} // namespace

TEST(SshGoldenSweep, PlainSessions)
{
    checkSshGolden(false);
}

TEST(SshGoldenSweep, GhostingSessions)
{
    checkSshGolden(true);
}

TEST(Ssh, AgentSignsChallenges)
{
    System sys(appConfig());
    sys.boot();
    sva::AppBinary bin =
        sys.vm().packageApp("openssh", "ssh-code", testAppKey());

    sys.runProcess("init", [&](UserApi &api) {
        uint64_t kg = api.fork([&](UserApi &capi) {
            return capi.execve(&bin, [](UserApi &napi) {
                return sshKeygen(napi);
            });
        });
        int status = -1;
        api.waitpid(kg, status);
        EXPECT_EQ(status, 0);

        uint64_t agent = api.fork([&](UserApi &capi) {
            return capi.execve(&bin, [](UserApi &napi) {
                AgentConfig cfg;
                cfg.maxRequests = 1;
                return sshAgent(napi, cfg);
            });
        });
        for (int i = 0; i < 4; i++)
            api.yield();

        // Client: ask the agent to sign a challenge, verify with the
        // installed public key.
        int fd = api.connect(agentPort);
        EXPECT_GE(fd, 0);
        sendStr(api, fd, "PING");
        std::string pong;
        EXPECT_TRUE(recvStr(api, fd, pong));
        EXPECT_EQ(pong, "PONG");

        std::string challenge = "SIGN abcdef0123456789";
        sendStr(api, fd, challenge);
        std::vector<uint8_t> signature;
        EXPECT_TRUE(recvMsg(api, fd, signature));

        Ino ino = 0;
        api.kernel().fs().lookup(authorizedPath, ino);
        FileStat st;
        api.kernel().fs().stat(ino, st);
        std::vector<uint8_t> pub_raw(st.size);
        api.kernel().fs().read(ino, 0, pub_raw.data(), st.size);
        bool ok = false;
        auto pub = crypto::RsaPublicKey::deserialize(pub_raw, ok);
        EXPECT_TRUE(ok);
        std::vector<uint8_t> msg(challenge.begin() + 5,
                                 challenge.end());
        EXPECT_TRUE(crypto::rsaVerify(pub, msg, signature));

        sendStr(api, fd, "QUIT");
        api.close(fd);
        api.waitpid(agent, status);
        EXPECT_EQ(status, 0);
        return 0;
    });
}

// --------------------------------------------------------------------
// thttpd + ApacheBench
// --------------------------------------------------------------------

TEST(Thttpd, ServesFilesToApacheBench)
{
    System sys(appConfig());
    sys.boot();
    plantFile(sys.kernel(), "/index.html", 4096);

    AbResult ab;
    sys.runProcess("init", [&](UserApi &api) {
        uint64_t srv = api.fork([](UserApi &capi) {
            ThttpdConfig cfg;
            cfg.maxRequests = 10;
            return thttpd(capi, cfg);
        });
        for (int i = 0; i < 4; i++)
            api.yield();

        uint64_t cli = api.fork([&](UserApi &capi) {
            ab = apacheBench(capi, "/index.html", 10);
            return 0;
        });
        int status;
        api.waitpid(cli, status);
        api.waitpid(srv, status);
        return 0;
    });

    EXPECT_EQ(ab.requests, 10u);
    EXPECT_EQ(ab.failures, 0u);
    EXPECT_EQ(ab.bytes, 10u * 4096u);
    EXPECT_GT(ab.cycles, 0u);
}

TEST(Thttpd, Returns404ForMissingFiles)
{
    System sys(appConfig());
    sys.boot();

    AbResult ab;
    sys.runProcess("init", [&](UserApi &api) {
        uint64_t srv = api.fork([](UserApi &capi) {
            ThttpdConfig cfg;
            cfg.maxRequests = 1;
            return thttpd(capi, cfg);
        });
        for (int i = 0; i < 4; i++)
            api.yield();
        uint64_t cli = api.fork([&](UserApi &capi) {
            ab = apacheBench(capi, "/nope", 1);
            return 0;
        });
        int status;
        api.waitpid(cli, status);
        api.waitpid(srv, status);
        return 0;
    });
    EXPECT_EQ(ab.requests, 1u);
    EXPECT_EQ(ab.bytes, 0u);
}

// --------------------------------------------------------------------
// Postmark
// --------------------------------------------------------------------

TEST(Postmark, SmallRunCompletes)
{
    System sys(appConfig());
    sys.boot();

    PostmarkResult pm;
    sys.runProcess("postmark", [&](UserApi &api) {
        PostmarkConfig cfg;
        cfg.baseFiles = 20;
        cfg.transactions = 300;
        pm = postmark(api, cfg);
        return 0;
    });

    EXPECT_EQ(pm.transactions, 300u);
    EXPECT_GE(pm.filesCreated, 20u);
    EXPECT_GT(pm.bytesRead, 0u);
    EXPECT_GT(pm.bytesWritten, 0u);
    EXPECT_GT(pm.cycles, 0u);
    // Everything got deleted at the end.
    Ino dir = 0;
    sys.kernel().fs().lookup("/pm", dir);
    std::vector<std::string> names;
    sys.kernel().fs().readdir(dir, names);
    EXPECT_TRUE(names.empty());
}

TEST(Postmark, VgSlowerThanNative)
{
    auto run = [](sim::VgConfig cfg) {
        System sys(appConfig(cfg));
        sys.boot();
        PostmarkResult pm;
        sys.runProcess("postmark", [&](UserApi &api) {
            PostmarkConfig c;
            c.baseFiles = 20;
            c.transactions = 200;
            pm = postmark(api, c);
            return 0;
        });
        return pm.cycles;
    };
    sim::Cycles native = run(sim::VgConfig::native());
    sim::Cycles vg = run(sim::VgConfig::full());
    EXPECT_GT(vg, native * 2);
}
