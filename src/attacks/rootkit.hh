/**
 * @file
 * The S 7 rootkit: a malicious kernel module (after Joseph Kong's
 * "Designing BSD Rootkits") that a non-privileged user configures to
 * attack a victim process. Two attacks:
 *
 *  1. Direct memory access: replace the read() syscall handler with a
 *     module function that loads the victim's secret directly from its
 *     (ghost or traditional) address and logs it.
 *  2. Code injection via signal dispatch: open an exfiltration file in
 *     the victim's fd table, mmap a buffer into the victim, point the
 *     victim's signal-handler table at exploit code in the module, and
 *     send the signal; the exploit (running in the victim's user
 *     context) copies the secret into traditional memory and write()s
 *     it out.
 *
 * The module is shipped as VIR text and compiled by the trusted
 * translator like any other module — under Virtual Ghost that means
 * its loads/stores are sandboxed and sva.ipush.function refuses the
 * unregistered handler; on the baseline kernel both attacks succeed.
 */

#ifndef VG_ATTACKS_ROOTKIT_HH
#define VG_ATTACKS_ROOTKIT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "kernel/kernel.hh"

namespace vg::attacks
{

/** Result of mounting an attack. */
struct AttackResult
{
    bool mounted = false;       ///< infrastructure steps succeeded
    bool dataStolen = false;    ///< the secret left the victim
    std::string detail;
    std::vector<uint8_t> loot;  ///< what the attacker obtained
};

/**
 * Attack 1: interpose read() with a handler that loads @p secret_len
 * bytes at @p secret_va and logs them, then chains to the native
 * handler. Call check1() after the victim performs a read() to see
 * what the attacker captured.
 */
bool mountAttack1(kern::Kernel &kernel, uint64_t secret_va,
                  std::string *err);

/** Inspect the console log for attack 1's capture; @p secret is the
 *  true secret, used to decide dataStolen. */
AttackResult checkAttack1(kern::Kernel &kernel,
                          const std::vector<uint8_t> &secret);

/**
 * Attack 2: full code-injection chain against @p victim_pid. The
 * secret (of @p secret_len bytes, at @p secret_va in the victim) is
 * exfiltrated to the file /exfil when it works.
 */
AttackResult mountAttack2(kern::Kernel &kernel, uint64_t victim_pid,
                          uint64_t secret_va, uint64_t secret_len);

/** Read /exfil and compare against the secret. */
AttackResult checkAttack2(kern::Kernel &kernel,
                          const std::vector<uint8_t> &secret);

/**
 * Attack 3: descriptor-ring redirection (the device-ring surface). The
 * hostile OS posts a TX descriptor on @p tx_nic whose DMA address is
 * the frame holding the victim's @p secret, rings the doorbell, and
 * scrapes the peer @p rx_nic for whatever went over the wire. Under
 * Virtual Ghost the IOMMU refuses the slot's DMA: the completion
 * carries an error, nic.ring_blocked_dma counts the attempt, and no
 * packet is delivered.
 */
AttackResult mountAttack3(hw::Nic &tx_nic, hw::Nic &rx_nic,
                          hw::Paddr secret_pa,
                          const std::vector<uint8_t> &secret);

/** Which hostile edit attack 4 applies to the victim's swap slot. */
enum class SwapAttack
{
    StaleReplay, ///< re-serve an old sealed page after it was superseded
    BitFlip,     ///< flip a ciphertext bit in the current sealed page
};

/**
 * Attack 4: swap-store manipulation (the ghost-swap surface). The
 * hostile OS owns the swap area — it is ordinary disk blocks — so it
 * can scrape a victim's sealed page off the platter and later replay
 * it, or corrupt it in place:
 *
 *  - StaleReplay: snapshot the sealed blocks of @p ghost_va's current
 *    swap slot, call @p cycle_page (the test's stand-in for normal
 *    scheduler activity: the victim faults the page back in, updates
 *    it, and the kernel swaps it out again), then write the stale
 *    snapshot over the fresh slot. The old blob's MAC is valid — but
 *    it was sealed under the old swap generation, so swap-in refuses
 *    it.
 *  - BitFlip: flip one ciphertext bit of the current slot in place.
 *
 * Either way the attacker's loot is the scraped ciphertext; the
 * victim's next access to @p ghost_va must fail with a violation and
 * zero disclosure.
 */
AttackResult mountAttack4(kern::Kernel &kernel, hw::Disk &disk,
                          uint64_t victim_pid, uint64_t ghost_va,
                          SwapAttack mode,
                          const std::function<bool()> &cycle_page,
                          const std::vector<uint8_t> &secret);

} // namespace vg::attacks

#endif // VG_ATTACKS_ROOTKIT_HH
