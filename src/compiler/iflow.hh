/**
 * @file
 * Load-time information-flow (taint) verifier for ghost confidentiality.
 *
 * The McodeVerifier proves the OS *cannot reach into* ghost memory
 * (sandboxing + CFI). IflowVerifier proves the complementary property:
 * translated code never *carries ghost data out* to an OS-visible
 * channel in the clear. It is an interprocedural, flow-sensitive taint
 * analysis over the laid-out MInst array:
 *
 *  - sources: loads through pointers that provably point into the
 *    ghost region (a constant in [ghostBase, ghostEnd), or the result
 *    of a ghost-pointer intrinsic, propagated through Mov/Add/Sub) and
 *    the results of ghost-reading intrinsics (sva_ghost_read). A
 *    sandbox-masked pointer is never a ghost pointer — the mask
 *    relocates ghost addresses out of the ghost half — so in sandboxed
 *    images the intrinsics are the only taint entry and the analysis
 *    composes with VG-SB instead of double-reporting it.
 *  - sinks: OS-visible channels described by sva/iflow_meta.hh —
 *    NIC/disk/swap/stat/log externs (any tainted argument), stores and
 *    memcpys whose destination is kernel-visible memory or a sink
 *    window. Unknown externs are sinks by default.
 *  - declassifiers: the seal/HMAC crypto intrinsics. Their result is
 *    clean by fiat; nothing else launders taint.
 *
 * Abstract values track taint plus a provenance trail (spilled through
 * the frame, crossed a call boundary, transformed by arithmetic) and a
 * pointer kind (frame slot / ghost / sink window / kernel-visible),
 * so the five rules below give a precise story for each leak shape.
 * Frame slots are modeled field-sensitively per function; frames are
 * private (the executor allocates them outside kernel-visible memory),
 * so a tainted spill is only a leak if it is later loaded and sinked.
 *
 * The interprocedural part is a whole-image fixpoint over per-function
 * entry/return taint summaries: direct calls propagate argument taint
 * into the callee's entry state and the callee's return taint back
 * into the call result (both stamped with the via-call provenance);
 * checked indirect calls join over every address-taken function.
 */

#ifndef VG_COMPILER_IFLOW_HH
#define VG_COMPILER_IFLOW_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/mcode.hh"
#include "sim/config.hh"

namespace vg::cc
{

/** Information-flow rules (stable ids VG-IF-01..05). */
enum class IfRule : uint8_t
{
    DirectLeak,   ///< VG-IF-01: ghost value reaches a sink directly
    SpillLeak,    ///< VG-IF-02: leak via a frame-spilled temporary
    CallLeak,     ///< VG-IF-03: leak through a call/return boundary
    UnsealedSwap, ///< VG-IF-04: unsealed write to the swap channel
    ArithLeak,    ///< VG-IF-05: taint laundered through arithmetic
};

/** Stable rule identifier, e.g. "VG-IF-01". */
const char *iflowRuleId(IfRule rule);

/** One structured diagnostic, rendered like McodeFinding. */
struct IflowFinding
{
    IfRule rule = IfRule::DirectLeak;
    std::string function;
    uint64_t addr = 0; ///< absolute code address of the offending inst
    std::string message;

    /** "func+0x10: [VG-IF-01] ..." (offset relative to entry). */
    std::string render(uint64_t entryAddr = 0) const;
};

struct IflowResult
{
    std::vector<IflowFinding> findings;
    uint64_t functionsChecked = 0;
    uint64_t instsChecked = 0;

    bool ok() const { return findings.empty(); }

    /** All findings rendered one per line. */
    std::string message() const;
};

/**
 * Concrete per-instruction facts exported for the fault-injection
 * harness (minject): which registers provably carry ghost taint on
 * entry to each instruction, and which Stores write through an
 * OS-visible (non-frame, non-ghost) pointer. Indexed by instruction
 * position in image.code.
 */
struct IflowFacts
{
    std::vector<std::vector<int>> taintedRegsAt;
    std::vector<uint8_t> visibleStoreAt;
};

/** The verifier. Stateless; verify() is const and reentrant. */
class IflowVerifier
{
  public:
    IflowVerifier() = default;

    /** Analyze @p image; when @p facts is non-null it is filled with
     *  the per-instruction taint facts of the final fixpoint. */
    IflowResult verify(const MachineImage &image,
                       IflowFacts *facts = nullptr) const;
};

} // namespace vg::cc

#endif // VG_COMPILER_IFLOW_HH
