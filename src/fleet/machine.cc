#include "fleet/machine.hh"

#include <algorithm>
#include <cstring>
#include <deque>
#include <set>

#include "apps/thttpd.hh"

namespace vg::fleet
{

uint8_t
ghostPatternByte(const crypto::AesKey &key, uint64_t page, uint64_t i)
{
    return uint8_t(key[page % key.size()] ^ key[(page + 5) % key.size()] ^
                   uint8_t(i * 131));
}

Machine::Machine(const kern::SystemConfig &config)
    : _sys(std::make_unique<kern::System>(config))
{}

void
Machine::boot()
{
    _sys->boot();
}

void
Machine::plantContent(const Tenant &t, uint64_t file_bytes)
{
    // Tenant content lives under "/t/": make sure the directory
    // exists (idempotent — Exists is fine on every call but the
    // first).
    kern::Ino dir = 0;
    size_t slash = t.path.find_last_of('/');
    if (slash != std::string::npos && slash > 0)
        _sys->kernel().fs().mkdir(t.path.substr(0, slash), dir);
    kern::Ino ino = 0;
    _sys->kernel().fs().create(t.path, ino);
    // Content is public static data; the byte value keys off the
    // tenant id so a cross-tenant mixup would be visible.
    std::vector<uint8_t> data(file_bytes, uint8_t(0x20 + t.id % 0x5f));
    _sys->kernel().fs().write(ino, 0, data.data(), data.size());
}

void
Machine::provisionTenant(const Tenant &t)
{
    _binaries.erase(t.id);
    _binaries.emplace(
        t.id, _sys->vm().packageApp(t.name, "fleet-app-v1", t.key));
    _tenantGen[t.id] = t.keyGeneration;
}

uint64_t
Machine::now() const
{
    uint64_t t = 0;
    const sim::SimContext &ctx = _sys->ctx();
    for (unsigned c = 0; c < ctx.vcpuCount(); c++)
        t = std::max<uint64_t>(t, ctx.clockOf(c).now());
    return t;
}

std::map<std::string, uint64_t>
Machine::statsSnapshot() const
{
    return _sys->ctx().stats().all();
}

EpochResult
Machine::serveEpoch(const std::vector<MachineRequest> &batch,
                    const TenantDirectory &dir, const EpochKnobs &knobs)
{
    EpochResult out;
    if (batch.empty())
        return out;

    kern::System &sys = *_sys;
    unsigned vcpus = std::max(1u, sys.ctx().vcpuCount());

    // Round-robin the batch across per-vCPU client workers; each
    // worker drives the server instance on its own port.
    std::vector<std::vector<MachineRequest>> share(vcpus);
    for (size_t i = 0; i < batch.size(); i++)
        share[i % vcpus].push_back(batch[i]);

    // Tenants with traffic this epoch run their ghost worker. Sorted
    // set => deterministic fork order.
    std::set<unsigned> epoch_tenants;
    for (const MachineRequest &r : batch)
        if (_binaries.count(r.tenant))
            epoch_tenants.insert(r.tenant);

    out.served.resize(batch.size());
    for (size_t j = 0; j < batch.size(); j++) {
        out.served[j].id = batch[j].id;
        out.served[j].tenant = batch[j].tenant;
        out.served[j].arrivalUs = batch[j].arrivalUs;
    }

    uint64_t t0 = now();
    sys.runProcess("epoch", [&](kern::UserApi &api) {
        // --- per-tenant ghost workers --------------------------------
        std::vector<uint64_t> tenant_pids;
        for (unsigned tid : epoch_tenants) {
            const sva::AppBinary *bin = &_binaries.at(tid);
            const crypto::AesKey want = dir.tenant(tid).key;
            unsigned pages = knobs.ghostPagesPerTenant;
            tenant_pids.push_back(api.fork([bin, want, pages](
                                               kern::UserApi &capi) {
                return capi.execve(bin, [&](kern::UserApi &napi) {
                    auto key = napi.getKey();
                    if (!key || *key != want)
                        return 1;
                    // Ghost working-set churn: allocate, fill with the
                    // key-derived pattern, yield so sibling tenants
                    // pile pressure on the frame allocator, then read
                    // everything back (faulting swapped pages in
                    // through the sealed swap path) and verify.
                    hw::Vaddr va = napi.allocGhost(pages);
                    if (!va)
                        return 2;
                    std::vector<uint8_t> page(hw::pageSize);
                    for (unsigned p = 0; p < pages; p++) {
                        for (uint64_t i = 0; i < hw::pageSize; i++)
                            page[i] = ghostPatternByte(*key, p, i);
                        if (!napi.ghostWrite(va + p * hw::pageSize,
                                             page.data(), page.size()))
                            return 3;
                    }
                    napi.yield();
                    std::vector<uint8_t> back(hw::pageSize);
                    for (unsigned p = 0; p < pages; p++) {
                        if (!napi.ghostRead(va + p * hw::pageSize,
                                            back.data(), back.size()))
                            return 4;
                        for (uint64_t i = 0; i < hw::pageSize; i++)
                            if (back[i] != ghostPatternByte(*key, p, i))
                                return 5;
                    }
                    return 0;
                });
            }));
        }

        // --- servers: one event-driven thttpdMulti per vCPU ----------
        std::vector<uint64_t> servers;
        for (unsigned i = 0; i < vcpus; i++) {
            if (share[i].empty())
                continue;
            uint64_t reqs = share[i].size();
            unsigned slots = knobs.serverSlots;
            servers.push_back(api.fork([i, reqs,
                                        slots](kern::UserApi &capi) {
                apps::ThttpdMultiConfig cfg;
                cfg.port = uint16_t(80 + i);
                cfg.maxRequests = reqs;
                cfg.maxConcurrent = slots;
                return apps::thttpdMulti(capi, cfg);
            }));
        }
        for (int i = 0; i < 4; i++)
            api.yield();

        // --- clients: pipelined request issue per vCPU ----------------
        std::vector<uint64_t> clients;
        for (unsigned i = 0; i < vcpus; i++) {
            if (share[i].empty())
                continue;
            const std::vector<MachineRequest> *myshare = &share[i];
            // Result slots for this worker: batch indices i, i+vcpus,..
            clients.push_back(api.fork([i, vcpus, myshare, &dir, &knobs,
                                        &out](kern::UserApi &capi) {
                uint16_t port = uint16_t(80 + i);
                struct Open
                {
                    int fd;
                    size_t idx; ///< index into *myshare
                    uint64_t t0;
                };
                std::deque<Open> open;
                size_t next = 0;
                auto clock_now = [&]() {
                    return capi.kernel().ctx().clock().now();
                };
                auto openOne = [&]() {
                    const MachineRequest &r = (*myshare)[next];
                    size_t idx = next++;
                    uint64_t rt0 = clock_now();
                    int fd = capi.connect(port);
                    if (fd < 0)
                        return;
                    std::string req =
                        "GET " + dir.tenant(r.tenant).path +
                        " HTTP/1.0\r\n\r\n";
                    if (capi.sendHost(fd, req.data(), req.size()) !=
                        int64_t(req.size())) {
                        capi.close(fd);
                        return;
                    }
                    open.push_back({fd, idx, rt0});
                };
                while (next < myshare->size() &&
                       open.size() < knobs.concurrency)
                    openOne();
                std::vector<uint8_t> buf(64 * 1024);
                while (!open.empty()) {
                    Open o = open.front();
                    open.pop_front();
                    uint64_t got = 0;
                    bool headers_done = false;
                    std::string head;
                    while (true) {
                        int64_t n = capi.recvHost(o.fd, buf.data(),
                                                  buf.size());
                        if (n <= 0)
                            break;
                        if (!headers_done) {
                            head.append(
                                reinterpret_cast<char *>(buf.data()),
                                size_t(n));
                            size_t he = head.find("\r\n\r\n");
                            if (he != std::string::npos) {
                                headers_done = true;
                                got += head.size() - he - 4;
                            }
                        } else {
                            got += uint64_t(n);
                        }
                    }
                    capi.close(o.fd);
                    const MachineRequest &r = (*myshare)[o.idx];
                    ServedRequest &sr = out.served[o.idx * vcpus + i];
                    sr.id = r.id;
                    sr.tenant = r.tenant;
                    sr.bytes = got;
                    sr.ok = headers_done && got > 0;
                    sr.serviceCycles = clock_now() - o.t0;
                    if (next < myshare->size())
                        openOne();
                }
                return 0;
            }));
        }

        int status;
        for (uint64_t cli : clients)
            api.waitpid(cli, status);
        for (uint64_t srv : servers)
            api.waitpid(srv, status);
        for (uint64_t tp : tenant_pids) {
            api.waitpid(tp, status);
            if (status != 0)
                out.tenantFailures++;
        }
        return 0;
    });
    out.elapsedCycles = now() - t0;
    return out;
}

} // namespace vg::fleet
