/**
 * @file
 * Adversarial miscompile injection (test tooling).
 *
 * To prove the machine-code verifier has teeth, this header models a
 * buggy (or hostile) instrumentation pipeline: each Miscompile kind
 * describes one way the sandbox/CFI passes could silently emit unsafe
 * code, and injectMiscompile() applies it to a laid-out MachineImage at
 * an enumerable site. The McodeVerifySweep property test asserts that
 * the verifier flags every kind at every site, and vg_lint exposes the
 * same kinds via --inject so CI can exercise a known-bad fixture.
 *
 * Injection happens post-layout (via Translator::setPostLayoutHook or
 * directly on an image) so it models exactly what the verifier sees:
 * the signed bytes, not the pass pipeline's intermediate state.
 */

#ifndef VG_COMPILER_MINJECT_HH
#define VG_COMPILER_MINJECT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "compiler/mcode.hh"

namespace vg::cc
{

/** Ways the instrumentation could miscompile. */
enum class Miscompile : uint8_t
{
    DropMask,         ///< masking op degraded to a plain Mov
    ClobberMask,      ///< masked register clobbered between mask and use
    StripEntryLabel,  ///< function-entry CfiLabel removed
    StripReturnLabel, ///< return-site CfiLabel removed
    RawRet,           ///< CheckRet un-fused back to a raw Ret
    RawIndirectCall,  ///< CallIndChecked degraded to raw CallInd
    BadJumpTarget,    ///< jump immediate knocked off the inst boundary
    ForgeLabel,       ///< a data constant rewritten to cfiLabelValue

    // Information-flow miscompiles: ways a buggy pipeline could leak
    // ghost data while still emitting perfectly sandboxed, CFI-clean
    // code (invisible to the McodeVerifier; caught by IflowVerifier).
    // Sites exist only on images that actually carry ghost taint.
    IflowDropSeal,     ///< a seal/HMAC call degraded to a plain Mov
    IflowRawStore,     ///< sealed store redirected to the raw payload
    IflowStatLeak,     ///< ghost bytes copied into a stat-counter sink
};

/** All kinds, for sweeping. */
const std::vector<Miscompile> &allMiscompiles();

/** Stable CLI-friendly name, e.g. "drop-mask". */
const char *miscompileName(Miscompile kind);

/** Parse a name from miscompileName(); false if unknown. */
bool parseMiscompile(const std::string &name, Miscompile &kind);

/**
 * Instruction indices in @p image where @p kind can be applied. Empty
 * when the image contains no susceptible site (e.g. RawIndirectCall on
 * a module with no indirect calls).
 */
std::vector<size_t> miscompileSites(const MachineImage &image,
                                    Miscompile kind);

/**
 * Apply @p kind at miscompileSites(image, kind)[siteIdx], mutating the
 * image in place (the signature is left stale; callers re-sign or only
 * verify). Returns false when siteIdx is out of range.
 */
bool injectMiscompile(MachineImage &image, Miscompile kind,
                      size_t siteIdx);

} // namespace vg::cc

#endif // VG_COMPILER_MINJECT_HH
