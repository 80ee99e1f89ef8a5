/**
 * @file
 * The benchmark's four workloads. Each builds its own machines through
 * the harness, runs a fixed amount of work made from the seed, checks
 * the outputs, and records result rows, unit-of-work latency samples
 * and workload-specific counts into the current Rep. The seed only
 * shapes the inputs (size order and slivers, payload bytes, the web
 * request split, the Postmark seeds, the fault-back shuffles and read
 * lengths); the simulator's own configuration stays at its defaults.
 */

#include <algorithm>
#include <set>

#include "apps/lmbench.hh"
#include "apps/postmark.hh"
#include "apps/ssh_common.hh"
#include "apps/thttpd.hh"
#include "harness.hh"
#include "kernel/swap.hh"

namespace vgb
{

namespace
{

constexpr uint64_t KB = 1024;

/** Independent input stream per workload and purpose. */
sim::SplitMix64
inputs(const Bench &b, uint64_t stream)
{
    return sim::SplitMix64(b.seed * 0x9e3779b97f4a7c15ull + stream);
}

std::string
sizeLabel(uint64_t bytes)
{
    if (bytes >= KB * KB)
        return std::to_string(bytes / (KB * KB)) + " MB";
    return std::to_string(bytes / KB) + " KB";
}

/** Each size class plus a seeded sliver of at most 1/1024 of it, so
 *  that latency percentiles move with the seed while the totals stay
 *  put. */
std::vector<uint64_t>
jittered(sim::SplitMix64 &rng, const std::vector<uint64_t> &classes)
{
    std::vector<uint64_t> out;
    for (uint64_t c : classes)
        out.push_back(c + rng.below(c / 1024 + 1));
    return out;
}

const char *
sideName(Side side)
{
    return side == Side::Vg ? "vg" : "native";
}

/** The sides a row runs on: both, or only VG during the breakdown. */
std::vector<Side>
sides(const Bench &b)
{
    if (b.vgOnly())
        return {Side::Vg};
    return {Side::Native, Side::Vg};
}

// --- kernel_ops ------------------------------------------------------------

using LatFn = std::function<double(kern::UserApi &, uint64_t)>;

/** One LMBench latency row on a fresh machine; usec per operation. */
double
latencyRow(Bench &b, Side side, const std::string &name, const LatFn &fn,
           uint64_t iters)
{
    Machine m(b, "t2." + name + "." + sideName(side), side,
              b.config(side, 1));
    double out = 0;
    int rc = m.run(name, [&](kern::UserApi &api) {
        Timed t(b.tracer, "apps.lmbench");
        out = fn(api, iters);
        return 0;
    });
    b.op(rc == 0 && out > 0);
    if (side == Side::Vg)
        b.rep->units += iters;
    return out;
}

/**
 * A benign accounting module: per read() it runs a short mixing loop
 * over the arguments in a stack slot, bumps a kernel counter by the
 * length, and chains to the native handler.
 */
const char *accountingModule = R"(
module "acct"
func @acct_read(4) {
entry:
  %4 = alloca 16
  %5 = const 0
  store.i64 %4, %5
  %6 = const 8
  %7 = add %4, %6
  store.i64 %7, %2
  br loop
loop:
  %8 = load.i64 %4
  %9 = load.i64 %7
  %10 = const 31
  %11 = mul %9, %10
  %12 = add %11, %8
  store.i64 %7, %12
  %13 = const 1
  %14 = add %8, %13
  store.i64 %4, %14
  %15 = const 16
  %16 = icmp ult %14, %15
  condbr %16, loop, done
done:
  %17 = call @k_stat_add(%2)
  %18 = call @k_read_native(%0, %1, %2, %3)
  ret %18
}
)";

/** module_read: reads a planted file in 4 KB calls, on VG through the
 *  interposed accounting module; usec per read. */
double
moduleReadRow(Bench &b, Side side, const std::vector<uint8_t> &payload)
{
    const uint64_t chunk = 4 * KB;
    const unsigned passes = 8;
    Machine m(b, std::string("ext.module_read.") + sideName(side), side,
              b.config(side, 1));
    m.prepare([&](kern::System &sys) { plantFile(sys, "/mod.bin", payload); });
    if (side == Side::Vg) {
        std::string err;
        bool ok = m.loadModule("acct", accountingModule, &err) &&
                  m.sys().kernel().interposeSyscall(kern::Sys::read, "acct",
                                                    "acct_read");
        b.check("module_read.load", ok);
    }

    sim::StatSet &stats = m.sys().ctx().stats();
    const uint64_t adds0 = stats.get("kernel.module_stat_adds");
    uint64_t reads = 0, cycles = 0;
    bool same = true;
    int rc = m.run("module_read", [&](kern::UserApi &api) {
        int fd = b.call(api, "open", 0, [&] { return api.open("/mod.bin"); });
        hw::Vaddr buf = api.mmap(chunk);
        if (fd < 0 || !buf)
            return 1;
        std::vector<uint8_t> got(payload.size());
        uint64_t t0 = api.kernel().ctx().clock().now();
        for (unsigned p = 0; p < passes; p++) {
            b.call(api, "lseek", p, [&] { return api.lseek(fd, 0, 0); });
            for (uint64_t off = 0; off < payload.size(); off += chunk) {
                int64_t n = b.call(api, "read", reads, [&] {
                    return api.read(fd, buf, chunk);
                });
                reads++;
                b.op(n == int64_t(chunk));
                if (n != int64_t(chunk) ||
                    !api.copyFromUser(buf, got.data() + off, chunk))
                    return 1;
            }
            same = same && got == payload;
        }
        cycles = api.kernel().ctx().clock().now() - t0;
        b.call(api, "close", 0, [&] { return api.close(fd); });
        return 0;
    });
    b.check(std::string("module_read.bytes.") + sideName(side),
            rc == 0 && same);
    if (side == Side::Vg) {
        b.check("module_read.no_faults",
                stats.get("kernel.module_faults") == 0);
        // acct_read adds each read's length: every read went through it.
        b.check("module_read.interposed",
                stats.get("kernel.module_stat_adds") - adds0 ==
                    reads * chunk);
        b.rep->units += reads;
    }
    return reads ? sim::Clock::toUsec(cycles) / double(reads) : 0;
}

} // namespace

void
kernelOps(Bench &b)
{
    sim::SplitMix64 rng = inputs(b, 1);
    const unsigned pm_runs = 16;
    std::vector<uint64_t> pm_seeds(pm_runs);
    for (uint64_t &seed : pm_seeds)
        seed = rng.below(1 << 16);
    const std::vector<uint8_t> payload = randomBytes(rng, 64 * KB);

    // Table 2 (LMBench), at the iteration counts of bench_lmbench.
    struct LatRow
    {
        const char *name;
        LatFn fn;
        uint64_t iters;
    };
    const std::vector<LatRow> table2 = {
        {"null syscall", apps::latNullSyscall, 1000},
        {"open/close", apps::latOpenClose, 1000},
        {"mmap", apps::latMmap, 1000},
        {"page fault", apps::latPageFault, 250},
        {"signal handler install", apps::latSignalInstall, 1000},
        {"signal handler delivery", apps::latSignalDelivery, 1000},
        {"fork + exit",
         [](kern::UserApi &api, uint64_t n) { return apps::latForkExit(api, n); },
         100},
        {"fork + exec",
         [](kern::UserApi &api, uint64_t n) { return apps::latForkExec(api, n); },
         100},
        {"select",
         [](kern::UserApi &api, uint64_t n) { return apps::latSelect(api, n, 100); },
         1000},
    };
    for (const LatRow &r : table2) {
        double res[2] = {0, 0};
        for (Side s : sides(b))
            res[int(s)] = latencyRow(b, s, r.name, r.fn, r.iters);
        if (!b.vgOnly())
            b.row("t2", r.name, res[0], res[1]);
    }

    // Tables 3 and 4: create then delete 300 files of each size on one
    // machine; files per second.
    const uint64_t count = 300;
    for (uint64_t size : {uint64_t(0), KB, 4 * KB, 10 * KB}) {
        double create[2] = {0, 0}, del[2] = {0, 0};
        for (Side s : sides(b)) {
            Machine m(b, "t34." + std::to_string(size / KB) + "KB." +
                             sideName(s),
                      s, b.config(s, 1));
            int rc = m.run("files", [&](kern::UserApi &api) {
                Timed t(b.tracer, "apps.lmbench");
                create[int(s)] = apps::rateCreateFiles(api, count, size);
                del[int(s)] = apps::rateDeleteFiles(api, count);
                return 0;
            });
            b.op(rc == 0 && create[int(s)] > 0 && del[int(s)] > 0);
            if (s == Side::Vg)
                b.rep->units += 2 * count;
        }
        if (!b.vgOnly()) {
            std::string label = std::to_string(size / KB) + " KB";
            b.row("t4", label, create[0], create[1]);
            b.row("t3", label, del[0], del[1]);
        }
    }

    // Table 5: Postmark. Sixteen short back-to-back runs with seeded
    // transaction mixes on one machine, each its own process and timed
    // phase: a single long mix's pool size wanders far enough to swing
    // its simulated time by a third between seeds.
    apps::PostmarkConfig pm;
    pm.transactions = 2500;
    pm.baseFiles = 200;
    double pm_secs[2] = {0, 0};
    uint64_t pm_bytes[2][2] = {};
    for (Side s : sides(b)) {
        Machine m(b, std::string("t5.postmark.") + sideName(s), s,
                  b.config(s, 1));
        std::vector<apps::PostmarkResult> res(pm_runs);
        bool balanced = true;
        for (unsigned k = 0; k < pm_runs; k++) {
            pm.seed = pm_seeds[k];
            int rc = m.run("postmark", [&](kern::UserApi &api) {
                Timed t(b.tracer, "apps.postmark", k);
                res[k] = apps::postmark(api, pm);
                return 0;
            });
            balanced = balanced && rc == 0;
        }
        for (const apps::PostmarkResult &r : res) {
            b.rep->attempted += pm.transactions;
            b.rep->failed += pm.transactions -
                             std::min(r.transactions, pm.transactions);
            balanced = balanced && r.filesCreated == r.filesDeleted;
            pm_secs[int(s)] += r.seconds();
            pm_bytes[int(s)][0] += r.bytesRead;
            pm_bytes[int(s)][1] += r.bytesWritten;
            if (s == Side::Vg) {
                b.rep->samples.insert(b.rep->samples.end(),
                                      r.transactionCycles.begin(),
                                      r.transactionCycles.end());
                b.rep->units += r.transactions;
            }
        }
        kern::Ino dir = 0;
        std::vector<std::string> left;
        kern::Fs &fs = m.sys().kernel().fs();
        bool listed = fs.lookup("/pm", dir) == kern::FsStatus::Ok &&
                      fs.readdir(dir, left) == kern::FsStatus::Ok;
        b.check(std::string("postmark.no_files_left.") + sideName(s),
                listed && left.empty() && balanced);
        if (s == Side::Vg) {
            b.rep->extra["postmark.bytes_read"] = double(pm_bytes[1][0]);
            b.rep->extra["postmark.bytes_written"] = double(pm_bytes[1][1]);
        }
    }
    if (!b.vgOnly()) {
        b.check("postmark.bytes_repeat",
                pm_bytes[0][0] == pm_bytes[1][0] &&
                    pm_bytes[0][1] == pm_bytes[1][1]);
        b.row("t5", "postmark", pm_secs[0], pm_secs[1]);
    }

    // Extension: read() through an interposed VIR module.
    double mod[2] = {0, 0};
    for (Side s : sides(b))
        mod[int(s)] = moduleReadRow(b, s, payload);
    if (!b.vgOnly())
        b.row("ext", "module_read", mod[0], mod[1]);
}

// --- web_smp ---------------------------------------------------------------

namespace
{

/** One GET made with the benchmark's own socket calls; true when the
 *  body equals @p want. */
bool
verifyGet(Bench &b, kern::UserApi &api, const std::string &path,
          uint16_t port, const std::vector<uint8_t> &want)
{
    int fd = b.call(api, "connect", port, [&] { return api.connect(port); });
    if (fd < 0)
        return false;
    std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    int64_t sent = b.call(api, "send", port, [&] {
        return api.sendHost(fd, req.data(), req.size());
    });
    std::string got;
    std::vector<char> buf(64 * KB);
    while (sent == int64_t(req.size())) {
        int64_t n = b.call(api, "recv", port, [&] {
            return api.recvHost(fd, buf.data(), buf.size());
        });
        if (n <= 0)
            break;
        got.append(buf.data(), size_t(n));
    }
    b.call(api, "close", port, [&] { return api.close(fd); });
    size_t body = got.find("\r\n\r\n");
    return body != std::string::npos &&
           got.size() - body - 4 == want.size() &&
           std::equal(want.begin(), want.end(),
                      reinterpret_cast<const uint8_t *>(got.data()) +
                          body + 4);
}

} // namespace

void
webSmp(Bench &b)
{
    const unsigned vcpus = 4;
    const std::vector<uint64_t> classes = {KB,      4 * KB,   16 * KB,
                                           64 * KB, 256 * KB, 1024 * KB};
    // GETs per size, split unevenly over the four clients by the seed.
    // The small sizes get more, so that the median request lies inside
    // the 16 KB class instead of on the boundary between two classes.
    const uint64_t per_size[] = {64, 64, 64, 48, 48, 48};
    sim::SplitMix64 rng = inputs(b, 2);
    // Only sizes that fit one send window get a seeded sliver: at 4
    // vCPUs a few bytes more on a large file can shift a whole phase.
    std::vector<uint64_t> sizes;
    for (uint64_t c : classes)
        sizes.push_back(c <= 16 * KB ? c + rng.below(c / 64) : c);
    std::vector<size_t> order(sizes.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    shuffle(rng, order);
    std::vector<std::vector<uint8_t>> files;
    std::vector<std::vector<uint64_t>> split;
    for (size_t i = 0; i < sizes.size(); i++) {
        files.push_back(randomBytes(rng, sizes[i]));
        std::vector<uint64_t> gets(vcpus, per_size[i] / vcpus);
        for (unsigned c = 0; c + 1 < vcpus; c += 2) {
            uint64_t shift = rng.below(3);
            gets[c] -= shift;
            gets[c + 1] += shift;
        }
        split.push_back(gets);
    }

    double kbps[2][6] = {};
    for (size_t idx : order) {
        for (Side s : sides(b)) {
            const std::string path = "/w" + std::to_string(idx) + ".bin";
            const std::vector<uint64_t> &gets = split[idx];
            Machine m(b, "web." + sizeLabel(classes[idx]) + "." + sideName(s),
                      s, b.config(s, vcpus));
            m.prepare([&](kern::System &sys) {
                plantFile(sys, path, files[idx]);
            });
            apps::AbResult ab[vcpus];
            bool verified[vcpus] = {};
            uint64_t elapsed = 0;
            int rc = m.run("web", [&](kern::UserApi &api) {
                std::vector<uint64_t> servers, clients;
                for (unsigned i = 0; i < vcpus; i++)
                    servers.push_back(api.fork([&, i](kern::UserApi &capi) {
                        apps::ThttpdConfig cfg;
                        cfg.port = uint16_t(80 + i);
                        cfg.maxRequests = gets[i] + 1;
                        return apps::thttpd(capi, cfg);
                    }));
                for (int i = 0; i < 4; i++)
                    api.yield();
                uint64_t t0 = m.now();
                for (unsigned i = 0; i < vcpus; i++)
                    clients.push_back(api.fork([&, i](kern::UserApi &capi) {
                        uint16_t port = uint16_t(80 + i);
                        {
                            Timed t(b.tracer, "apps.apache_bench", i);
                            ab[i] = apps::apacheBench(capi, path, gets[i],
                                                      port);
                        }
                        verified[i] =
                            verifyGet(b, capi, path, port, files[idx]);
                        return 0;
                    }));
                int status = 0;
                for (uint64_t c : clients)
                    api.waitpid(c, status);
                elapsed = m.now() - t0;
                for (uint64_t srv : servers)
                    api.waitpid(srv, status);
                return 0;
            });
            uint64_t bytes = 0;
            bool ok = rc == 0;
            for (unsigned i = 0; i < vcpus; i++) {
                b.rep->attempted += gets[i];
                b.rep->failed += gets[i] - std::min(ab[i].requests -
                                                        ab[i].failures,
                                                    gets[i]);
                ok = ok && verified[i] && ab[i].failures == 0 &&
                     ab[i].bytes == gets[i] * sizes[idx];
                bytes += ab[i].bytes + sizes[idx];
                if (s == Side::Vg) {
                    b.rep->samples.insert(b.rep->samples.end(),
                                          ab[i].requestCycles.begin(),
                                          ab[i].requestCycles.end());
                    b.rep->units += ab[i].requests;
                }
            }
            b.check("web.bytes_and_pattern." + sizeLabel(classes[idx]) + "." +
                        sideName(s),
                    ok);
            double secs = sim::Clock::toSec(elapsed);
            kbps[int(s)][idx] = secs > 0 ? double(bytes) / KB / secs : 0;
        }
    }
    if (!b.vgOnly())
        for (size_t i = 0; i < sizes.size(); i++)
            b.row("f2", sizeLabel(classes[i]), kbps[0][i], kbps[1][i]);
}

// --- ssh_ghost -------------------------------------------------------------

void
sshGhost(Bench &b)
{
    const std::vector<uint64_t> classes = {KB,       4 * KB,    16 * KB,
                                           64 * KB,  256 * KB,  1024 * KB,
                                           4096 * KB};
    const unsigned sessions = 3; // per size and configuration
    sim::SplitMix64 rng = inputs(b, 3);
    const std::vector<uint64_t> sizes = jittered(rng, classes);
    std::vector<size_t> order(sizes.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    shuffle(rng, order);
    std::vector<std::vector<uint8_t>> files;
    for (uint64_t size : sizes)
        files.push_back(randomBytes(rng, size));

    struct Config
    {
        const char *name;
        Side side;
        bool ghosting;
    };
    std::vector<Config> configs = {{"native_plain", Side::Native, false},
                                   {"vg_plain", Side::Vg, false},
                                   {"vg_ghost", Side::Vg, true}};
    // Mean session cycles per configuration and size.
    double cycles[3][7] = {};
    for (size_t ci = 0; ci < configs.size(); ci++) {
        const Config &c = configs[ci];
        if (b.vgOnly() && c.side == Side::Native)
            continue;
        Machine m(b, std::string("ssh.") + c.name, c.side,
                  b.config(c.side, 1));
        sva::AppBinary bin;
        m.prepare([&](kern::System &sys) {
            crypto::AesKey key{};
            for (size_t i = 0; i < key.size(); i++)
                key[i] = uint8_t(i);
            bin = sys.vm().packageApp("openssh", "ssh-code", key);
            for (size_t i = 0; i < sizes.size(); i++)
                plantFile(sys, "/p" + std::to_string(i), files[i]);
        });
        int rc = m.prepareProcess("keygen", [&](kern::UserApi &api) {
            return api.execve(&bin, [](kern::UserApi &napi) {
                return apps::sshKeygen(napi);
            });
        });
        b.check(std::string("ssh.keygen.") + c.name, rc == 0);

        // One timed phase per session.
        bool all_ok = true;
        uint64_t req = 0;
        for (size_t idx : order) {
            for (unsigned k = 0; k < sessions; k++, req++) {
                rc = m.run("ssh", [&](kern::UserApi &api) {
                    int status = 0;
                    uint64_t srv = api.fork([](kern::UserApi &capi) {
                        apps::SshdConfig cfg;
                        cfg.maxConnections = 1;
                        return apps::sshd(capi, cfg);
                    });
                    for (int i = 0; i < 4; i++)
                        api.yield();
                    uint64_t cli = api.fork([&](kern::UserApi &capi) {
                        return capi.execve(&bin, [&](kern::UserApi &napi) {
                            sim::Stopwatch sw(napi.kernel().ctx().clock());
                            Timed t(b.tracer, "apps.ssh_fetch", req);
                            apps::SshResult r = apps::sshFetch(
                                napi, "/p" + std::to_string(idx), c.ghosting,
                                true);
                            t.stop();
                            uint64_t took = sw.elapsed();
                            bool ok = r.ok && r.data == files[idx];
                            b.op(ok);
                            all_ok = all_ok && ok;
                            cycles[ci][idx] += double(took) / sessions;
                            if (c.side == Side::Vg) {
                                b.rep->samples.push_back(took);
                                b.rep->units++;
                            }
                            return ok ? 0 : 1;
                        });
                    });
                    api.waitpid(cli, status);
                    api.waitpid(srv, status);
                    return 0;
                });
                all_ok = all_ok && rc == 0;
            }
        }
        b.check(std::string("ssh.payload_digest.") + c.name, all_ok);
    }
    if (b.vgOnly())
        return;
    auto kbps = [&](int ci, size_t i) {
        double secs = sim::Clock::toSec(uint64_t(cycles[ci][i]));
        return secs > 0 ? double(sizes[i]) / KB / secs : 0;
    };
    for (size_t i = 0; i < sizes.size(); i++) {
        b.row("f3", sizeLabel(classes[i]), kbps(0, i), kbps(1, i));
        b.row("f4", sizeLabel(classes[i]), kbps(1, i), kbps(2, i));
    }
}

// --- ghost_swap ------------------------------------------------------------

void
ghostSwap(Bench &b)
{
    const uint64_t pages = 1024;
    const uint64_t fault_back = pages * 3 / 4;
    const unsigned passes = 8;
    const uint64_t page = hw::pageSize;
    sim::SplitMix64 rng = inputs(b, 4);
    const std::vector<uint8_t> pattern = randomBytes(rng, pages * page);
    // Per pass: the fault-back order, and how much of each page the
    // application reads: 1 KB up to a seeded limit of 2-4 KB.
    const uint64_t max_len = 2 * KB + rng.below(2 * KB + 1);
    std::vector<std::vector<uint64_t>> orders, lens;
    for (unsigned p = 0; p < passes; p++) {
        std::vector<uint64_t> order(pages), len(fault_back);
        for (uint64_t i = 0; i < pages; i++)
            order[i] = i;
        if (p % 2 == 1)
            shuffle(rng, order);
        for (uint64_t &l : len)
            l = KB + rng.below(max_len - KB + 1);
        orders.push_back(order);
        lens.push_back(len);
    }

    // The paper has no swap figures; Table 2's page-fault row runs
    // beside the swap machine as this workload's paper anchor.
    double pf[2] = {0, 0};
    for (Side s : sides(b))
        pf[int(s)] = latencyRow(b, s, "page fault", apps::latPageFault, 250);
    if (!b.vgOnly())
        b.row("t2", "page fault", pf[0], pf[1]);

    Machine m(b, "swap.vg", Side::Vg, b.config(Side::Vg, 1));
    sim::StatSet &stats = m.sys().ctx().stats();
    uint64_t fault_cycles[2] = {0, 0}, fault_count[2] = {0, 0};
    double prefetched = 0, prefetch_used = 0;
    bool readback = true;
    int rc = m.run("ghost_swap", [&](kern::UserApi &api) {
        hw::Vaddr base = b.call(api, "ghost_alloc", 0, [&] {
            return api.allocGhost(pages);
        });
        if (!base)
            return 1;
        for (uint64_t i = 0; i < pages; i++)
            if (!b.call(api, "ghost_write", i, [&] {
                    return api.ghostWrite(base + i * page,
                                          pattern.data() + i * page, page);
                }))
                return 1;
        std::set<uint64_t> resident;
        for (uint64_t i = 0; i < pages; i++)
            resident.insert(i);
        std::vector<uint8_t> buf(page);
        auto fault = [&](uint64_t i, uint64_t len, uint64_t req) {
            bool ok = b.call(api, "ghost_read", req, [&] {
                return api.ghostRead(base + i * page, buf.data(), len);
            });
            ok = ok && std::equal(buf.begin(), buf.begin() + len,
                                  pattern.begin() + i * page);
            b.op(ok);
            readback = readback && ok;
            resident.insert(i);
        };

        uint64_t req = 0;
        for (unsigned p = 0; p < passes; p++) {
            uint64_t evicted = 0;
            {
                Timed t(b.tracer, "kernel.swap_out", p);
                evicted = m.sys().kernel().swapOutGhost(api.pid(), pages);
            }
            b.op(evicted == resident.size());
            resident.clear();
            uint64_t blocks0 = stats.get("disk.blocks");
            uint64_t clusters0 = stats.get("swap.read_clusters");
            uint64_t loaded0 = stats.get("swap.pages_loaded");
            for (uint64_t k = 0; k < fault_back; k++, req++) {
                uint64_t f0 = m.now();
                fault(orders[p][k], lens[p][k], req);
                uint64_t took = m.now() - f0;
                b.rep->samples.push_back(took);
                fault_cycles[p % 2] += took;
                fault_count[p % 2]++;
            }
            double clusters = double(stats.get("swap.read_clusters") - clusters0);
            double slots = double(stats.get("disk.blocks") - blocks0) /
                           double(kern::SwapArea::blocksPerSlot);
            prefetched += slots - clusters;
            prefetch_used +=
                double(stats.get("swap.pages_loaded") - loaded0) - clusters;
        }
        for (uint64_t i = 0; i < pages; i++)
            if (!resident.count(i))
                fault(i, page, req++);
        return 0;
    });
    b.check("ghost_swap.readback", rc == 0 && readback);
    b.rep->units += fault_count[0] + fault_count[1];
    b.rep->extra["swap.prefetched"] = prefetched;
    b.rep->extra["swap.prefetch_used"] = prefetch_used;
    if (!b.vgOnly())
        b.row("ext", "ghost fault shuffled vs sequential",
              sim::Clock::toUsec(fault_cycles[0]) / double(fault_count[0]),
              sim::Clock::toUsec(fault_cycles[1]) / double(fault_count[1]));
}

} // namespace vgb
