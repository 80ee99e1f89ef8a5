/**
 * @file
 * Ring-based I/O golden sweep. A mixed thttpd + sshd + postmark corpus
 * runs at 1-4 vCPUs and each run is checked against two recorded
 * digests:
 *
 *  - content: payload bytes delivered, postmark results and the
 *    work-done device/fs counters. The retired synchronous device
 *    stack produced the same content digests, so the ring stack moves
 *    exactly the bytes and does exactly the work the request-response
 *    model did.
 *  - machine: the vCPU clocks and the full stat map. Any change to how
 *    the ring stack charges cycles or wakes sleepers shows up here.
 *
 * The disk request queue is the kernel's only path to the media, so
 * the last tests pack it full before a buffer-cache read and a ghost
 * swap-out/swap-in: Disk::submitDraining must drain it and the bytes
 * must still come back. The last one reaps a ring out of order, as a
 * hostile OS may, and checks no completion is delivered twice.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/postmark.hh"
#include "apps/ssh_common.hh"
#include "apps/thttpd.hh"
#include "hw/ring.hh"
#include "kernel/system.hh"

#include "golden.hh"

using namespace vg;
using namespace vg::kern;
using namespace vg::apps;

namespace
{

/** What one corpus run produced. */
struct WorkloadResult
{
    uint64_t httpBytes = 0;
    uint64_t httpDigest = 0;
    uint64_t sshBytes = 0;
    uint64_t sshDigest = 0;
    uint64_t pmCreated = 0;
    uint64_t pmDeleted = 0;
    uint64_t pmBytesRead = 0;
    uint64_t pmBytesWritten = 0;
    std::map<std::string, uint64_t> stats;
    /** Clock and full stat map digest of the machine. */
    uint64_t machine = 0;

    /** Payload, postmark and work-done counter digest. */
    uint64_t
    content() const
    {
        test::Golden g;
        g.u64(httpBytes).u64(httpDigest).u64(sshBytes).u64(sshDigest);
        g.u64(pmCreated).u64(pmDeleted).u64(pmBytesRead);
        g.u64(pmBytesWritten).stats(stats);
        return g.h;
    }
};

/** Stats that count *work done*, not how it was charged or delivered:
 *  the counters the synchronous stack also kept, so the content digest
 *  excludes the ring-only counters (kernel.device_irqs,
 *  kernel.irqs_coalesced, kernel.softirq_wakes, kernel.zero_copy_sends)
 *  and anything timing-dependent. */
const char *kInvariantStats[] = {
    "nic.tx_packets",   "nic.tx_bytes",     "nic.rx_packets",
    "disk.requests",    "disk.blocks",      "bcache.writebacks",
    "fs.creates",       "fs.unlinks",       "fs.bytes_read",
    "fs.bytes_written", "net.bytes_sent",   "kernel.forks",
    "kernel.execs",     "nic.ring_blocked_dma",
    "disk.ring_blocked_dma",
};

SystemConfig
sweepConfig(unsigned vcpus)
{
    SystemConfig cfg;
    cfg.vg = sim::VgConfig::full();
    cfg.vg.vcpus = vcpus;
    cfg.memFrames = 8192;
    cfg.diskBlocks = 8192;
    cfg.rsaBits = 384;
    return cfg;
}

/** One HTTP GET with the body digested (apacheBench discards it). */
void
httpFetch(UserApi &api, uint16_t port, WorkloadResult &out)
{
    int fd = api.connect(port);
    ASSERT_GE(fd, 0);
    const char *req = "GET /file.bin HTTP/1.0\r\n\r\n";
    api.sendHost(fd, req, std::strlen(req));
    std::vector<uint8_t> buf(16 * 1024);
    std::string head;
    bool headers_done = false;
    test::Golden body;
    while (true) {
        int64_t n = api.recvHost(fd, buf.data(), buf.size());
        if (n <= 0)
            break;
        size_t body_off = 0;
        if (!headers_done) {
            head.append(reinterpret_cast<char *>(buf.data()),
                        size_t(n));
            size_t hdr_end = head.find("\r\n\r\n");
            if (hdr_end == std::string::npos)
                continue;
            headers_done = true;
            // Bytes of this chunk that belong to the body.
            size_t consumed = head.size() - size_t(n);
            body_off = hdr_end + 4 > consumed ? hdr_end + 4 - consumed
                                              : 0;
        }
        body.bytes(buf.data() + body_off, size_t(n) - body_off);
        out.httpBytes += size_t(n) - body_off;
    }
    api.close(fd);
    out.httpDigest = body.h;
}

WorkloadResult
runCorpus(unsigned vcpus)
{
    WorkloadResult out;
    System sys(sweepConfig(vcpus));
    sys.boot();

    crypto::AesKey app_key{};
    for (int i = 0; i < 16; i++)
        app_key[size_t(i)] = uint8_t(i);
    sva::AppBinary bin =
        sys.vm().packageApp("openssh", "ssh-code", app_key);

    // Content corpus: an HTTP file and an ssh payload with
    // non-uniform bytes so digests catch reordering or truncation.
    Ino ino = 0;
    sys.kernel().fs().create("/file.bin", ino);
    std::vector<uint8_t> web(24 * 1024);
    for (size_t i = 0; i < web.size(); i++)
        web[i] = uint8_t(i * 7 + 3);
    sys.kernel().fs().write(ino, 0, web.data(), web.size());

    sys.kernel().fs().create("/payload", ino);
    std::vector<uint8_t> pay(32 * 1024);
    for (size_t i = 0; i < pay.size(); i++)
        pay[i] = uint8_t(i * 13 + 5);
    sys.kernel().fs().write(ino, 0, pay.data(), pay.size());

    sys.runProcess("init", [&](UserApi &api) {
        int status = -1;

        // ssh host keys first (the servers need them).
        uint64_t kg = api.fork([&](UserApi &capi) {
            return capi.execve(&bin, [](UserApi &napi) {
                return sshKeygen(napi);
            });
        });
        api.waitpid(kg, status);
        EXPECT_EQ(status, 0);

        // Servers: one thttpd (8 requests) and one sshd session.
        uint64_t web_srv = api.fork([](UserApi &capi) {
            ThttpdConfig cfg;
            cfg.port = 80;
            cfg.maxRequests = 8;
            return thttpd(capi, cfg);
        });
        uint64_t ssh_srv = api.fork([](UserApi &capi) {
            SshdConfig cfg;
            cfg.maxConnections = 1;
            return sshd(capi, cfg);
        });
        for (int i = 0; i < 4; i++)
            api.yield();

        // Clients + postmark run concurrently so the stacks are
        // exercised under contention, not one flow at a time.
        uint64_t http_cli = api.fork([&](UserApi &capi) {
            for (int r = 0; r < 8; r++) {
                WorkloadResult one;
                httpFetch(capi, 80, one);
                out.httpBytes += one.httpBytes;
                out.httpDigest ^= one.httpDigest + 0x9e3779b9 +
                                  (out.httpDigest << 6);
            }
            return 0;
        });
        uint64_t ssh_cli = api.fork([&](UserApi &capi) {
            return capi.execve(&bin, [&](UserApi &napi) {
                SshResult r = sshFetch(napi, "/payload", false,
                                       /*keep_data=*/true);
                EXPECT_TRUE(r.ok);
                out.sshBytes = r.bytes;
                out.sshDigest = test::fnv1a(r.data.data(), r.data.size());
                return r.ok ? 0 : 1;
            });
        });
        uint64_t pm = api.fork([&](UserApi &capi) {
            PostmarkConfig cfg;
            cfg.baseFiles = 20;
            cfg.transactions = 120;
            cfg.maxSize = 4000;
            PostmarkResult r = postmark(capi, cfg);
            out.pmCreated = r.filesCreated;
            out.pmDeleted = r.filesDeleted;
            out.pmBytesRead = r.bytesRead;
            out.pmBytesWritten = r.bytesWritten;
            return 0;
        });

        api.waitpid(http_cli, status);
        api.waitpid(ssh_cli, status);
        api.waitpid(pm, status);
        api.waitpid(web_srv, status);
        api.waitpid(ssh_srv, status);
        return 0;
    });

    for (const char *k : kInvariantStats)
        out.stats[k] = sys.ctx().stats().get(k);
    out.machine = test::Golden().machine(sys.ctx()).h;
    return out;
}

/** Recorded {content, machine} digests for vcpus = 1..4. */
constexpr uint64_t kIoGolden[4][2] = {
    {0x3ee3048890d5fe30ull, 0x96d03ff875c452e9ull},
    {0x3ee3048890d5fe30ull, 0x9d0e566a8c13700full},
    {0x3ee3048890d5fe30ull, 0xeb896328017943e9ull},
    {0x3ee3048890d5fe30ull, 0x51e2ba9cfac877f6ull},
};

} // namespace

TEST(IoRing, IoRingGoldenSweep)
{
    for (unsigned vcpus = 1; vcpus <= 4; vcpus++) {
        SCOPED_TRACE("vcpus=" + std::to_string(vcpus));
        WorkloadResult ring = runCorpus(vcpus);
        EXPECT_GT(ring.httpBytes, 0u);
        EXPECT_GT(ring.sshBytes, 0u);
        // Nothing was blocked: this is the benign workload.
        EXPECT_EQ(ring.stats["nic.ring_blocked_dma"], 0u);
        EXPECT_EQ(ring.stats["disk.ring_blocked_dma"], 0u);

        EXPECT_TRUE(
            test::matchesGolden(ring.content(), kIoGolden[vcpus - 1][0]))
            << "content";
        EXPECT_TRUE(
            test::matchesGolden(ring.machine, kIoGolden[vcpus - 1][1]))
            << "machine";
    }
}

TEST(IoRing, RingSizeDefault)
{
    System sys(sweepConfig(1));
    EXPECT_GE(hw::ringSlots, 2u);
    EXPECT_EQ(sys.nicA().txRing().size(), hw::ringSlots);
    EXPECT_EQ(sys.nicA().rxRing().size(), hw::ringSlots);
    EXPECT_EQ(sys.disk().queue().size(), hw::ringSlots);
}

namespace
{

/** Act as the OS: fill the disk queue with harmless reads that are
 *  posted but never doorbelled (vg_lint --dump-rings leaves three). */
void
packDiskQueue(System &sys, std::vector<uint8_t> &sink)
{
    hw::RingDesc rd;
    rd.block = 5;
    rd.hostOut = sink.data();
    rd.len = uint32_t(sink.size());
    for (unsigned i = 0; i < hw::ringSlots; i++)
        ASSERT_TRUE(sys.disk().submit(rd)) << "slot " << i;
    ASSERT_TRUE(sys.disk().queue().full());
}

} // namespace

TEST(IoRing, PackedDiskQueueDrainsForBcacheRead)
{
    System sys(sweepConfig(1));
    sys.boot();
    std::vector<uint8_t> sink(hw::Disk::blockSize);
    std::vector<uint8_t> data(3 * hw::Disk::blockSize);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = uint8_t(i * 13 + 5);

    sys.runProcess("drain", [&](UserApi &api) {
        int f = api.open("/drain.dat", true);
        hw::Vaddr va = api.mmap(data.size());
        EXPECT_TRUE(api.copyToUser(va, data.data(), data.size()));
        EXPECT_EQ(api.write(f, va, data.size()), int64_t(data.size()));
        api.fsync(f);
        api.close(f);
        sys.kernel().dropCaches();

        packDiskQueue(sys, sink);
        f = api.open("/drain.dat");
        std::vector<uint8_t> back(data.size());
        EXPECT_EQ(api.read(f, va, back.size()), int64_t(back.size()));
        EXPECT_TRUE(api.copyFromUser(va, back.data(), back.size()));
        api.close(f);
        EXPECT_EQ(back, data);
        EXPECT_EQ(sys.disk().queue().inFlight(), 0u);
        return 0;
    });
}

TEST(IoRing, PackedDiskQueueDrainsForGhostSwap)
{
    System sys(sweepConfig(1));
    sys.boot();
    std::vector<uint8_t> sink(hw::Disk::blockSize);

    sys.runProcess("drain", [&](UserApi &api) {
        constexpr uint64_t kPages = 4;
        hw::Vaddr gva = api.allocGhost(kPages);
        std::vector<uint8_t> page(hw::pageSize);
        for (uint64_t p = 0; p < kPages; p++) {
            std::fill(page.begin(), page.end(), uint8_t(0x30 + p));
            EXPECT_TRUE(api.ghostWrite(gva + p * hw::pageSize,
                                       page.data(), page.size()));
        }

        packDiskQueue(sys, sink);
        EXPECT_EQ(sys.kernel().swapOutGhost(api.pid(), kPages), kPages);
        EXPECT_EQ(sys.disk().queue().inFlight(), 0u);

        packDiskQueue(sys, sink);
        for (uint64_t p = 0; p < kPages; p++) {
            EXPECT_TRUE(api.ghostRead(gva + p * hw::pageSize,
                                      page.data(), page.size()));
            EXPECT_EQ(page, std::vector<uint8_t>(hw::pageSize,
                                                 uint8_t(0x30 + p)))
                << "page " << p;
        }
        EXPECT_EQ(sys.disk().queue().inFlight(), 0u);
        EXPECT_EQ(sys.ctx().stats().get("swap.pages_loaded"), kPages);
        return 0;
    });
}

TEST(IoRing, OutOfOrderReapThenReapAll)
{
    // A hostile OS may reap one completion by (index, gen) ahead of
    // the driver's in-order reapAll(); neither may hand a completion
    // out twice or strand a slot.
    hw::DescRing ring(4);
    for (uint64_t cookie = 1; cookie <= 3; cookie++) {
        hw::RingDesc d;
        d.cookie = cookie;
        ASSERT_TRUE(ring.post(d));
    }
    ring.processPosted([](hw::DescRing::Entry &e) {
        e.doneAt = 100 * e.desc.cookie;
        e.state = hw::DescRing::Slot::Done;
        return true;
    });
    ASSERT_EQ(ring.pendingCompletions(), 3u);

    ASSERT_TRUE(ring.reapAt(1, ring.slot(1).gen));
    EXPECT_EQ(ring.pendingCompletions(), 2u);
    EXPECT_EQ(ring.earliestDone(), 100u);

    std::vector<hw::RingCompletion> got = ring.reapAll();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].cookie, 1u);
    EXPECT_EQ(got[1].cookie, 3u);
    EXPECT_EQ(ring.inFlight(), 0u);
    EXPECT_EQ(ring.pendingCompletions(), 0u);
    EXPECT_EQ(ring.earliestDone(), 0u);
    for (uint32_t i = 0; i < ring.size(); i++)
        EXPECT_EQ(ring.slot(i).state, hw::DescRing::Slot::Free)
            << "slot " << i;

    // Every slot is postable again.
    for (unsigned i = 0; i < ring.size(); i++)
        EXPECT_TRUE(ring.post(hw::RingDesc{})) << "post " << i;
    EXPECT_TRUE(ring.full());
}
