/**
 * @file
 * Load-time machine-code safety verifier.
 *
 * Virtual Ghost's guarantees rest on the instrumentation passes
 * (sandbox_pass, cfi_pass, peephole) emitting correct code. McodeVerifier
 * removes them from the TCB: it recovers a per-function CFG from the
 * linear MInst array and statically proves, before any translation is
 * installed, that
 *
 *  - every Load/Store/Memcpy address register is dominated by a
 *    SandboxAddr with no clobbering redefinition between mask and use
 *    (rule group VG-SB); the translator always fuses the masking
 *    sequence, so an unfused 13-instruction sequence proves nothing,
 *  - no raw Ret or CallInd survives — only CheckRet/CallIndChecked —
 *    and a CfiLabel sits at every function entry and return site, with
 *    cfiLabelValue never forged as a non-label immediate (VG-CFI),
 *  - all Jump/JumpIfZero/CallDirect immediates land on instruction
 *    boundaries inside the image, calls target function entries, and
 *    control cannot fall off the end of a function (VG-ST).
 *
 * The sandbox rules run under a forward may-be-unmasked dataflow
 * analysis: the state is the set of registers proven masked, the meet
 * over CFG join points is set intersection, SandboxAddr generates, Mov
 * propagates, and any other definition kills. A finding is a
 * structured diagnostic (rule, severity, function, absolute code
 * address, message) so vg_lint and the translator gate can render it
 * uniformly.
 */

#ifndef VG_COMPILER_MVERIFY_HH
#define VG_COMPILER_MVERIFY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/mcode.hh"
#include "sim/config.hh"

namespace vg::cc
{

/** Verifier rules. Grouped: VG-SB (sandbox), VG-CFI, VG-ST
 *  (structure). */
enum class MRule : uint8_t
{
    UnmaskedAccess,     ///< VG-SB-01: memory address not provably masked
    RawRet,             ///< VG-CFI-01: uninstrumented Ret
    RawIndirectCall,    ///< VG-CFI-02: uninstrumented CallInd
    MissingEntryLabel,  ///< VG-CFI-03: function entry lacks CfiLabel
    MissingReturnLabel, ///< VG-CFI-04: call not followed by CfiLabel
    LabelForgery,       ///< VG-CFI-05: cfiLabelValue as non-label imm
    BadBranchTarget,    ///< VG-ST-01: jump off boundary / out of function
    BadCallTarget,      ///< VG-ST-02: direct call not at a function entry
    BadRegister,        ///< VG-ST-03: operand register out of range
    FallsOffEnd,        ///< VG-ST-04: control can run past function end
};

/** Stable rule identifier, e.g. "VG-SB-01". */
const char *ruleId(MRule rule);

enum class MSeverity : uint8_t
{
    Warning,
    Error,
};

/** One structured diagnostic. */
struct McodeFinding
{
    MRule rule = MRule::UnmaskedAccess;
    MSeverity severity = MSeverity::Error;
    std::string function;
    uint64_t addr = 0; ///< absolute code address of the offending inst
    std::string message;

    /** "func+0x10: [VG-SB-01] ..." (offset relative to function entry). */
    std::string render(uint64_t entryAddr = 0) const;
};

/** What the verifier must prove; derived from the build configuration.
 *  Structural rules (VG-ST) are always checked. */
struct McodePolicy
{
    bool requireSandbox = true; ///< enforce VG-SB rules
    bool requireCfi = true;     ///< enforce VG-CFI rules

    static McodePolicy
    fromConfig(const sim::VgConfig &cfg)
    {
        McodePolicy p;
        p.requireSandbox = cfg.sandboxMemory;
        p.requireCfi = cfg.cfi;
        return p;
    }
};

struct McodeVerifyResult
{
    std::vector<McodeFinding> findings;
    uint64_t functionsChecked = 0;
    uint64_t instsChecked = 0;

    bool ok() const { return findings.empty(); }

    /** All findings rendered one per line. */
    std::string message() const;
};

/** The verifier. Stateless apart from its policy; verify() is const and
 *  reentrant, so one instance can serve many images. */
class McodeVerifier
{
  public:
    explicit McodeVerifier(McodePolicy policy = {}) : _policy(policy) {}

    McodeVerifyResult verify(const MachineImage &image) const;

  private:
    McodePolicy _policy;
};

} // namespace vg::cc

#endif // VG_COMPILER_MVERIFY_HH
