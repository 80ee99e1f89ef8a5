/**
 * @file
 * The kernel API exported to loaded modules (the extern table the
 * simulated CPU resolves CallExt against).
 *
 * This is the surface the S 7 rootkit uses: logging, native-handler
 * chaining, victim-process manipulation (mmap into another process,
 * rewriting its signal-handler table, sending signals) and file
 * exfiltration. All of it is ordinary kernel functionality — the
 * point of the paper is that even with these powers, a module cannot
 * read ghost memory or hijack application control flow under VG.
 */

#include "kernel/kernel.hh"
#include "sim/log.hh"

namespace vg::kern
{

void
Kernel::setupModuleExterns()
{
    // klog(value): log a 64-bit value the module computed (e.g. data
    // it believes it stole).
    _moduleExterns.fns["klog"] =
        [this](const std::vector<uint64_t> &args) {
            _console.write(sim::strprintf(
                "[module] value=0x%lx\n",
                args.empty() ? 0ul : (unsigned long)args[0]));
            return uint64_t(0);
        };

    // klog_bytes(va, len): hex-dump kernel-visible memory.
    _moduleExterns.fns["klog_bytes"] =
        [this](const std::vector<uint64_t> &args) {
            if (args.size() < 2)
                return uint64_t(0);
            std::string line = "[module] bytes=";
            for (uint64_t i = 0; i < args[1] && i < 64; i++) {
                uint64_t b = 0;
                if (!_kmem->read(args[0] + i, 1, b))
                    break;
                line += sim::strprintf("%02x", unsigned(b));
            }
            _console.write(line + "\n");
            return uint64_t(0);
        };

    // k_read_native(fd, buf, len, pid): chain to the native read()
    // handler so the rootkit's interposition stays invisible.
    _moduleExterns.fns["k_read_native"] =
        [this](const std::vector<uint64_t> &args) {
            if (args.size() < 4)
                return uint64_t(-1);
            Process *proc = process(args[3]);
            if (!proc)
                return uint64_t(-1);
            return uint64_t(
                doRead(*proc, int(args[0]), args[1], args[2]));
        };

    // k_mmap_in_proc(pid, len): map anonymous memory inside a victim
    // process (the OS can always do this).
    _moduleExterns.fns["k_mmap_in_proc"] =
        [this](const std::vector<uint64_t> &args) {
            if (args.size() < 2)
                return uint64_t(0);
            Process *proc = process(args[0]);
            if (!proc)
                return uint64_t(0);
            return uint64_t(proc->reserveArea(
                (args[1] + hw::pageSize - 1) / hw::pageSize));
        };

    // k_install_handler(pid, signum, addr): rewrite the victim's
    // signal-handler table to point at arbitrary "code".
    _moduleExterns.fns["k_install_handler"] =
        [this](const std::vector<uint64_t> &args) {
            if (args.size() < 3)
                return uint64_t(-1);
            Process *proc = process(args[0]);
            if (!proc)
                return uint64_t(-1);
            proc->sigHandlers[int(args[1])] = args[2];
            return uint64_t(0);
        };

    // k_send_signal(pid, signum).
    _moduleExterns.fns["k_send_signal"] =
        [this](const std::vector<uint64_t> &args) {
            if (args.size() < 2)
                return uint64_t(-1);
            Process *proc = process(args[0]);
            if (!proc || !proc->alive())
                return uint64_t(-1);
            postSignal(*proc, int(args[1]));
            return uint64_t(0);
        };

    // k_exfil(va, len): append kernel-visible bytes at va to the
    // attacker's /exfil file.
    _moduleExterns.fns["k_exfil"] =
        [this](const std::vector<uint64_t> &args) {
            if (args.size() < 2)
                return uint64_t(-1);
            std::vector<uint8_t> data;
            for (uint64_t i = 0; i < args[1]; i++) {
                uint64_t b = 0;
                if (!_kmem->read(args[0] + i, 1, b))
                    break;
                data.push_back(uint8_t(b));
            }
            Ino ino = 0;
            if (_fs->lookup("/exfil", ino) != FsStatus::Ok &&
                _fs->create("/exfil", ino) != FsStatus::Ok)
                return uint64_t(-1);
            FileStat st;
            _fs->stat(ino, st);
            _fs->write(ino, st.size, data.data(), data.size());
            return uint64_t(data.size());
        };

    // k_open_exfil_in(pid): create /exfil and inject an open fd for
    // it into the victim's descriptor table (the OS owns that table).
    _moduleExterns.fns["k_open_exfil_in"] =
        [this](const std::vector<uint64_t> &args) {
            if (args.empty())
                return uint64_t(-1);
            Process *proc = process(args[0]);
            if (!proc)
                return uint64_t(-1);
            Ino ino = 0;
            if (_fs->lookup("/exfil", ino) != FsStatus::Ok &&
                _fs->create("/exfil", ino) != FsStatus::Ok)
                return uint64_t(-1);
            return uint64_t(proc->addFd(ino));
        };

    // k_exfil_fd(pid, fd, va, len): write victim-side data to an fd
    // of a process (used by exploit code running in user context).
    _moduleExterns.fns["k_exfil_fd"] =
        [this](const std::vector<uint64_t> &args) {
            if (args.size() < 4)
                return uint64_t(-1);
            Process *proc = process(args[0]);
            if (!proc)
                return uint64_t(-1);
            return uint64_t(
                doWrite(*proc, int(args[1]), args[2], args[3]));
        };

    // ---- Information-flow surface (sva/iflow_meta.hh) ----
    //
    // Deterministic models of the ghost-data intrinsics and the
    // OS-visible channels the IflowVerifier reasons about. The values
    // only need to be stable and data-dependent — modules built on
    // them run under the executor in tests and fixtures.

    // SplitMix64-style mixer shared by the models below.
    auto mix = [](uint64_t x) {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    };

    // sva_ghost_read(va): a 64-bit word of the caller's ghost memory
    // (modeled as a keyed mix of the address).
    _moduleExterns.fns["sva_ghost_read"] =
        [this, mix](const std::vector<uint64_t> &args) {
            _ctx.stats().add("kernel.module_ghost_reads");
            return mix(args.empty() ? 0 : args[0]);
        };

    // sva_ghost_ptr(): a pointer into the caller's ghost region.
    _moduleExterns.fns["sva_ghost_ptr"] =
        [this](const std::vector<uint64_t> &args) {
            (void)args;
            _ctx.stats().add("kernel.module_ghost_ptrs");
            return hw::ghostBase + 0x1000;
        };

    // sva_seal(w) / sva_hmac(w): the sanctioned declassifiers. The
    // model is a keyed mix — what matters to the verifier is the
    // annotation, not the cipher.
    _moduleExterns.fns["sva_seal"] =
        [this, mix](const std::vector<uint64_t> &args) {
            _ctx.stats().add("kernel.module_seals");
            return mix((args.empty() ? 0 : args[0]) ^
                       0x5ea15ea15ea15ea1ull);
        };
    _moduleExterns.fns["sva_hmac"] =
        [this, mix](const std::vector<uint64_t> &args) {
            _ctx.stats().add("kernel.module_hmacs");
            return mix((args.empty() ? 0 : args[0]) ^
                       0x4d4143004d414300ull);
        };

    // k_nic_tx(w): queue a word as a NIC descriptor payload.
    _moduleExterns.fns["k_nic_tx"] =
        [this](const std::vector<uint64_t> &args) {
            (void)args;
            _ctx.stats().add("kernel.module_nic_tx_words");
            return uint64_t(0);
        };

    // k_disk_write(block, w): write a word to a raw disk block.
    _moduleExterns.fns["k_disk_write"] =
        [this](const std::vector<uint64_t> &args) {
            (void)args;
            _ctx.stats().add("kernel.module_disk_writes");
            return uint64_t(0);
        };

    // k_swap_store(slot, w): store a word into a swap slot.
    _moduleExterns.fns["k_swap_store"] =
        [this](const std::vector<uint64_t> &args) {
            (void)args;
            _ctx.stats().add("kernel.module_swap_stores");
            return uint64_t(0);
        };

    // k_swap_slot_ptr(slot): a pointer into the swap staging window.
    _moduleExterns.fns["k_swap_slot_ptr"] =
        [this](const std::vector<uint64_t> &args) {
            _ctx.stats().add("kernel.module_swap_slot_ptrs");
            return hw::kernelBase + 0x200000 +
                   ((args.empty() ? 0 : args[0]) & 0xff) *
                       hw::pageSize;
        };

    // k_stat_add(v): bump a kernel stat counter by v.
    _moduleExterns.fns["k_stat_add"] =
        [this](const std::vector<uint64_t> &args) {
            _ctx.stats().add("kernel.module_stat_adds",
                             args.empty() ? 0 : args[0]);
            return uint64_t(0);
        };
}

} // namespace vg::kern
