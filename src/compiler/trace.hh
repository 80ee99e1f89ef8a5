/**
 * @file
 * Trace-tier splicer: turn one recorded hot path into a trace block.
 *
 * The Executor's profiling counters detect hot loop heads (back-edge
 * targets) and hot function entries; when one crosses the threshold the
 * executor records the next pass over it as a sequence of instruction
 * indices plus, for every conditional branch, the direction taken. This
 * module turns that recording into machine code: a trace block appended
 * to a copy of the image in which
 *
 *  - non-control instructions are copied verbatim (so SandboxAddr
 *    masks and CFI labels survive byte-for-byte),
 *  - the recorded direction of every branch falls through to the next
 *    block slot, while the other direction becomes a side-exit jump to
 *    its original address in the home function,
 *  - a loop-closing path jumps back to the block head, and a linear
 *    (cut) path ends in a jump to the recorded continuation address.
 *
 * Side-exit stubs and closing jumps that have no counterpart in the
 * original instruction stream are recorded in TraceInfo::freeOffs; the
 * executor models them at zero cost, so a trace pass retires exactly
 * the instructions and cycles the interpreter would have. The block is
 * registered as a pseudo-function so the machine-code verifier proves
 * it with the same rules as any function (plus the VG-TR side-exit
 * rules); nothing here is trusted — Translator::spliceTrace re-runs
 * both verifiers on the result before signing it.
 */

#ifndef VG_COMPILER_TRACE_HH
#define VG_COMPILER_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/mcode.hh"

namespace vg::cc
{

/** One recorded dispatch: an instruction index in the original image
 *  and, for JumpIfZero, whether the branch was taken. */
struct TraceStep
{
    uint32_t idx = 0;
    uint8_t taken = 0;
};

/** One recorded hot path, ready to splice. */
struct TraceRequest
{
    std::string home;        ///< enclosing function name
    uint64_t anchorAddr = 0; ///< loop head / entry address recorded at
    /** True when the recorded path closed back to the anchor (a loop);
     *  false for a linear trace cut at the length cap or at an
     *  untraceable instruction. */
    bool loop = false;
    /** Resume address after the last step for linear traces. */
    uint64_t contAddr = 0;
    std::vector<TraceStep> steps;
};

/** Outcome of building one spliced image. */
struct SpliceBuildResult
{
    bool ok = false;
    std::string error;
    MachineImage image;
};

/** True for ops a trace may contain (straight-line compute + memory +
 *  local control; calls and returns end or abort a recording). */
bool traceableOp(MOp op);

/**
 * Append one trace block built from @p req to a copy of @p base.
 * @p cfiHead controls whether a loop-anchored block gets a synthesized
 * (zero-cost) entry CfiLabel so the verifier's entry-label rule holds;
 * pass the compile config's cfi flag. Fails (ok = false) on malformed
 * requests — out-of-range indices, untraceable ops, empty paths.
 */
SpliceBuildResult buildSplicedImage(const MachineImage &base,
                                    const TraceRequest &req,
                                    bool cfiHead);

} // namespace vg::cc

#endif // VG_COMPILER_TRACE_HH
