/**
 * @file
 * Cycle cost model.
 *
 * All timing in the simulation comes from these constants multiplied by
 * event counts that the functional model actually executes (kernel
 * instructions and memory operations, CFI checks, MMU updates, DMA
 * bytes, crypto bytes, ...). The defaults are calibrated so that the
 * *native* configuration lands near the absolute LMBench latencies the
 * paper reports for stock FreeBSD on a 3.4 GHz i7-3770, and the Virtual
 * Ghost deltas reproduce the paper's relative overheads. EXPERIMENTS.md
 * documents the calibration.
 */

#ifndef VG_SIM_COSTS_HH
#define VG_SIM_COSTS_HH

#include <cstdint>

#include "sim/clock.hh"

namespace vg::sim
{

/** Per-event cycle costs. */
struct CostModel
{
    // --- Kernel computation ------------------------------------------
    /** Base cost of one modelled kernel instruction. */
    Cycles kernInst = 1;

    /** Extra cycles per discrete kernel load/store when the sandboxing
     *  pass is active (cmp + branch + or, plus pipeline effects). */
    Cycles sandboxPerMemop = 7;

    /** Extra cycles per kernel call/return or indirect call when CFI is
     *  active (label fetch + compare + masking). */
    Cycles cfiPerTransfer = 9;

    /** Fixed extra cycles per bulk operation (memcpy/copyin/copyout)
     *  when sandboxing is active: memcpy() is range-checked once, not
     *  per word (S 5), so bulk cost is O(1). */
    Cycles sandboxPerBulk = 12;

    /** Bulk kernel copy throughput, bytes per cycle (rep movsb-ish). */
    uint64_t bulkBytesPerCycle = 16;

    // --- Kernel entry/exit -------------------------------------------
    /** Native trap/syscall entry+exit microcode and stack switch. */
    Cycles syscallGate = 220;

    /** Extra gate cost under VG: Interrupt Context save into SVA
     *  memory, register zeroing, and IST redirection (S 4.6). */
    Cycles syscallGateVgExtra = 620;

    /** Native hardware page-fault / interrupt delivery cost. */
    Cycles trapEntry = 400;

    /** Extra trap delivery cost under VG (IC save in SVA memory). */
    Cycles trapVgExtra = 12000;

    /** Native context-switch cost (register file + CR3 reload). */
    Cycles contextSwitch = 500;

    /** Extra context-switch cost under VG (Thread State in SVA memory,
     *  ghost partition remap). */
    Cycles contextSwitchVgExtra = 650;

    // --- MMU ----------------------------------------------------------
    /** Native cost of one page-table-entry update. */
    Cycles mmuUpdate = 45;

    /** Extra cost of the VG checks on one PTE update (frame type
     *  lookup, ghost range checks). */
    Cycles mmuUpdateVgExtra = 170;

    /** TLB miss page-walk cost per level. */
    Cycles pageWalkPerLevel = 20;

    /** TLB hit cost. */
    Cycles tlbHit = 1;

    /** Cost on the initiating CPU of sending a shootdown IPI and
     *  waiting for the acknowledgement (write ICR + spin). */
    Cycles ipiSend = 2000;

    /** Cost on the target CPU of taking the shootdown IPI (interrupt
     *  delivery, invlpg, EOI). */
    Cycles ipiReceive = 2600;

    // --- Devices -------------------------------------------------------
    /** SSD access latency per request (queue + flash). */
    Cycles ssdRequest = 85000; // ~25 us

    /** SSD cycles per 4 KB block transferred. */
    Cycles ssdPerBlock = 27000; // ~8 us per 4 KB => ~500 MB/s

    /** NIC per-packet processing cost of a synchronous Nic::send
     *  (descriptor + IRQ amortised into the send): the connect
     *  handshake. */
    Cycles nicPerPacket = 3400; // ~1 us

    /** NIC per-byte cost modelling gigabit wire rate (~125 MB/s). */
    Cycles nicCyclesPer64Bytes = 1740; // 3400 c/us / 125 B/us * 64

    // --- Async ring stack ----------------------------------------------
    /** Preparing one ring descriptor (slot write + index update). */
    Cycles ringDescriptor = 180;

    /** Ringing a device doorbell: one uncached MMIO write. The
     *  trusted boundary is crossed once per doorbell, not once per
     *  packet, so a batch of descriptors shares this cost. */
    Cycles ringDoorbell = 600;

    /** Running one softirq bottom-half batch (reap completion ring,
     *  schedule wakeups). The device *interrupt* itself is charged as
     *  a trap, at most once per coalescing window. */
    Cycles softirqDispatch = 700;

    // --- Crypto (application-side, software implementation) -----------
    /** AES-128 software cost per byte (T-table implementation). */
    Cycles aesPerByte = 18;

    /** SHA-256 software cost per byte. */
    Cycles shaPerByte = 13;

    /** Fixed setup cost of one seal/unseal operation: AES key
     *  schedule, CTR block setup, HMAC ipad/opad state clone. The
     *  batched swap pipeline pays this once per batch instead of once
     *  per page. */
    Cycles sealSetup = 3600;

    /** One RSA private-key operation (modexp at our key sizes). */
    Cycles rsaPrivOp = 170000; // ~50 us

    /** One RSA public-key operation (small exponent). */
    Cycles rsaPubOp = 17000; // ~5 us

    // --- SVA / VG services ---------------------------------------------
    /** allocgm()/freegm() fixed cost per call (validation, map). */
    Cycles ghostAllocCall = 900;

    /** Per-page cost inside allocgm/freegm (unmap check + zero). */
    Cycles ghostAllocPerPage = 650;

    /** sva.getKey() retrieval cost. */
    Cycles getKeyCall = 1200;

    /** Trusted RNG instruction cost per 16 bytes. */
    Cycles rngPer16Bytes = 320;
};

} // namespace vg::sim

#endif // VG_SIM_COSTS_HH
