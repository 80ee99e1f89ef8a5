#include "attacks/rootkit.hh"

#include <cstring>
#include <sstream>

#include "sim/log.hh"

namespace vg::attacks
{

namespace
{

/** Generate the attack-1 module: an evil read() handler that loads
 *  the secret qword-by-qword and logs each value, then chains. */
std::string
attack1Text(uint64_t secret_va, uint64_t qwords)
{
    std::ostringstream os;
    os << "module \"rootkit1\"\n\n";
    os << "func @evil_read(4) {\n";
    os << "entry:\n";
    int reg = 4;
    for (uint64_t i = 0; i < qwords; i++) {
        int addr = reg++;
        int val = reg++;
        int dummy = reg++;
        os << "  %" << addr << " = const " << (secret_va + i * 8)
           << "\n";
        os << "  %" << val << " = load.i64 %" << addr << "\n";
        os << "  %" << dummy << " = call @klog(%" << val << ")\n";
    }
    int result = reg++;
    os << "  %" << result
       << " = call @k_read_native(%0, %1, %2, %3)\n";
    os << "  ret %" << result << "\n";
    os << "}\n";
    return os.str();
}

/** Parse "[module] value=0x..." lines from the console. */
std::vector<uint64_t>
parseLoggedValues(const std::string &console)
{
    std::vector<uint64_t> values;
    size_t pos = 0;
    const std::string needle = "[module] value=0x";
    while ((pos = console.find(needle, pos)) != std::string::npos) {
        pos += needle.size();
        size_t end = console.find('\n', pos);
        values.push_back(std::stoull(
            console.substr(pos, end - pos), nullptr, 16));
    }
    return values;
}

} // namespace

bool
mountAttack1(kern::Kernel &kernel, uint64_t secret_va, std::string *err)
{
    // Two qwords cover a 16-byte secret.
    std::string text = attack1Text(secret_va, 2);
    if (!kernel.loadModule("rootkit1", text, err))
        return false;
    if (!kernel.interposeSyscall(kern::Sys::read, "rootkit1",
                                 "evil_read")) {
        if (err)
            *err = "interposition failed";
        return false;
    }
    return true;
}

AttackResult
checkAttack1(kern::Kernel &kernel, const std::vector<uint8_t> &secret)
{
    AttackResult result;
    result.mounted = true;
    std::vector<uint64_t> values =
        parseLoggedValues(kernel.console().output());
    for (uint64_t v : values) {
        for (int i = 0; i < 8; i++)
            result.loot.push_back(uint8_t(v >> (8 * i)));
    }
    // Did any 16-byte window of the loot match the secret?
    if (result.loot.size() >= secret.size()) {
        for (size_t off = 0;
             off + secret.size() <= result.loot.size(); off++) {
            if (std::equal(secret.begin(), secret.end(),
                           result.loot.begin() + long(off))) {
                result.dataStolen = true;
                break;
            }
        }
    }
    result.detail = result.dataStolen
                        ? "attack 1 read the secret from kernel code"
                        : "attack 1 captured only deflected junk";
    return result;
}

AttackResult
mountAttack2(kern::Kernel &kernel, uint64_t victim_pid,
             uint64_t secret_va, uint64_t secret_len)
{
    AttackResult result;

    // Step 1: kernel-side preparation, via module functions so every
    // step is translated, instrumented code.
    {
        std::ostringstream os;
        os << "module \"rootkit2_prep\"\n\n";
        os << "func @prep_mmap(0) {\nentry:\n";
        os << "  %0 = const " << victim_pid << "\n";
        os << "  %1 = const 4096\n";
        os << "  %2 = call @k_mmap_in_proc(%0, %1)\n";
        os << "  ret %2\n}\n\n";
        os << "func @prep_fd(0) {\nentry:\n";
        os << "  %0 = const " << victim_pid << "\n";
        os << "  %1 = call @k_open_exfil_in(%0)\n";
        os << "  ret %1\n}\n";
        std::string err;
        if (!kernel.loadModule("rootkit2_prep", os.str(), &err)) {
            result.detail = "prep load failed: " + err;
            return result;
        }
    }

    cc::ExecResult mmap_r =
        kernel.callModuleFunction("rootkit2_prep", "prep_mmap", {});
    cc::ExecResult fd_r =
        kernel.callModuleFunction("rootkit2_prep", "prep_fd", {});
    if (!mmap_r.ok || !fd_r.ok || mmap_r.value == 0 ||
        int64_t(fd_r.value) < 0) {
        result.detail = "victim preparation failed";
        return result;
    }
    uint64_t buf_va = mmap_r.value;
    uint64_t fd = fd_r.value;

    // Step 2: the exploit "code" copied into the victim — shipped in
    // the module image, pointed at by the victim's signal table.
    uint64_t qwords = (secret_len + 7) / 8;
    {
        std::ostringstream os;
        os << "module \"rootkit2\"\n\n";
        os << "func @exploit(1) {\nentry:\n";
        int reg = 1;
        for (uint64_t i = 0; i < qwords; i++) {
            int src = reg++;
            int val = reg++;
            int dst = reg++;
            os << "  %" << src << " = const " << (secret_va + i * 8)
               << "\n";
            os << "  %" << val << " = load.i64 %" << src << "\n";
            os << "  %" << dst << " = const " << (buf_va + i * 8)
               << "\n";
            os << "  store.i64 %" << dst << ", %" << val << "\n";
        }
        int fd_reg = reg++;
        int buf_reg = reg++;
        int len_reg = reg++;
        int ret_reg = reg++;
        os << "  %" << fd_reg << " = const " << fd << "\n";
        os << "  %" << buf_reg << " = const " << buf_va << "\n";
        os << "  %" << len_reg << " = const " << secret_len << "\n";
        os << "  %" << ret_reg << " = call @u_write(%" << fd_reg
           << ", %" << buf_reg << ", %" << len_reg << ")\n";
        os << "  ret %" << ret_reg << "\n}\n\n";

        os << "func @setup(0) {\nentry:\n";
        os << "  %0 = const " << victim_pid << "\n";
        os << "  %1 = const 10\n"; // SIGUSR1
        os << "  %2 = funcaddr @exploit\n";
        os << "  %3 = call @k_install_handler(%0, %1, %2)\n";
        os << "  %4 = call @k_send_signal(%0, %1)\n";
        os << "  ret %4\n}\n";

        std::string err;
        if (!kernel.loadModule("rootkit2", os.str(), &err)) {
            result.detail = "exploit load failed: " + err;
            return result;
        }
    }

    cc::ExecResult setup_r =
        kernel.callModuleFunction("rootkit2", "setup", {});
    if (!setup_r.ok) {
        result.detail = "setup faulted: " + setup_r.detail;
        return result;
    }
    result.mounted = true;
    result.detail = "attack 2 armed (handler installed, signal sent)";
    return result;
}

AttackResult
checkAttack2(kern::Kernel &kernel, const std::vector<uint8_t> &secret)
{
    AttackResult result;
    result.mounted = true;
    kern::Ino ino = 0;
    if (kernel.fs().lookup("/exfil", ino) == kern::FsStatus::Ok) {
        kern::FileStat st;
        kernel.fs().stat(ino, st);
        result.loot.resize(st.size);
        if (st.size > 0)
            kernel.fs().read(ino, 0, result.loot.data(), st.size);
    }
    if (result.loot.size() >= secret.size() &&
        std::equal(secret.begin(), secret.end(), result.loot.begin()))
        result.dataStolen = true;
    result.detail = result.dataStolen
                        ? "attack 2 exfiltrated the secret to /exfil"
                        : "attack 2 obtained nothing";
    return result;
}

AttackResult
mountAttack3(hw::Nic &tx_nic, hw::Nic &rx_nic, hw::Paddr secret_pa,
             const std::vector<uint8_t> &secret)
{
    AttackResult result;

    // Discard unrelated queued traffic so the loot is only what this
    // descriptor moves.
    while (rx_nic.hasPacket())
        rx_nic.receive();

    hw::RingDesc d;
    d.pa = secret_pa;
    d.len = uint32_t(
        std::min<uint64_t>(secret.size() + 48, hw::Nic::mtu));
    d.useDma = true;
    if (!tx_nic.txPost(d)) {
        result.detail = "attack 3: TX ring full";
        return result;
    }
    result.mounted = true;
    tx_nic.txDoorbell();
    std::vector<hw::RingCompletion> comps = tx_nic.txReapAll();
    bool blocked = !comps.empty() && comps.front().error;

    while (rx_nic.hasPacket()) {
        std::vector<uint8_t> p = rx_nic.receive();
        result.loot.insert(result.loot.end(), p.begin(), p.end());
    }
    if (result.loot.size() >= secret.size()) {
        for (size_t off = 0;
             off + secret.size() <= result.loot.size(); off++) {
            if (std::equal(secret.begin(), secret.end(),
                           result.loot.begin() + long(off))) {
                result.dataStolen = true;
                break;
            }
        }
    }
    result.detail =
        result.dataStolen
            ? "attack 3 shipped the secret frame onto the wire"
            : blocked ? "attack 3 blocked: IOMMU refused the ring "
                        "descriptor's DMA"
                      : "attack 3 obtained nothing";
    return result;
}

namespace
{

/** Scrape the two sealed blocks of a swap slot off the platter. */
std::vector<uint8_t>
scrapeSlot(hw::Disk &disk, uint64_t first_block)
{
    std::vector<uint8_t> bytes;
    for (uint64_t b = 0; b < kern::SwapArea::blocksPerSlot; b++) {
        uint8_t *raw = disk.rawBlock(first_block + b);
        bytes.insert(bytes.end(), raw, raw + hw::Disk::blockSize);
    }
    return bytes;
}

/** Does any window of @p loot equal @p secret? */
bool
lootContains(const std::vector<uint8_t> &loot,
             const std::vector<uint8_t> &secret)
{
    if (secret.empty() || loot.size() < secret.size())
        return false;
    for (size_t off = 0; off + secret.size() <= loot.size(); off++) {
        if (std::equal(secret.begin(), secret.end(),
                       loot.begin() + long(off)))
            return true;
    }
    return false;
}

} // namespace

AttackResult
mountAttack4(kern::Kernel &kernel, hw::Disk &disk, uint64_t victim_pid,
             uint64_t ghost_va, SwapAttack mode,
             const std::function<bool()> &cycle_page,
             const std::vector<uint8_t> &secret)
{
    AttackResult result;

    auto block = kernel.swapSlotBlock(victim_pid, ghost_va);
    if (!block) {
        result.detail = "attack 4: victim page is not swapped out";
        return result;
    }
    // Loot = whatever the platter holds for the victim's page.
    result.loot = scrapeSlot(disk, *block);

    if (mode == SwapAttack::StaleReplay) {
        // Let the page cycle through memory and back to swap — the
        // slot now holds a fresh blob sealed under a new generation.
        if (!cycle_page || !cycle_page()) {
            result.detail = "attack 4: page cycle did not complete";
            return result;
        }
        auto fresh = kernel.swapSlotBlock(victim_pid, ghost_va);
        if (!fresh) {
            result.detail = "attack 4: page did not return to swap";
            return result;
        }
        // Replay: overwrite the fresh slot with the stale snapshot.
        for (uint64_t b = 0; b < kern::SwapArea::blocksPerSlot; b++)
            std::memcpy(disk.rawBlock(*fresh + b),
                        result.loot.data() + b * hw::Disk::blockSize,
                        hw::Disk::blockSize);
        result.detail = "attack 4 armed: stale sealed page replayed "
                        "over the fresh swap slot";
    } else {
        // Flip a ciphertext bit in place (offset 65 lands past the
        // 48-byte nonce+mac header).
        disk.rawBlock(*block)[65] ^= 0x01;
        result.detail =
            "attack 4 armed: ciphertext bit flipped on the platter";
    }

    result.mounted = true;
    result.dataStolen = lootContains(result.loot, secret);
    if (result.dataStolen)
        result.detail = "attack 4 read the secret from the swap store";
    return result;
}

} // namespace vg::attacks
