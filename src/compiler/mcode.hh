/**
 * @file
 * "Native" machine code model.
 *
 * The code generator lowers VIR into a linear array of MachineInsts —
 * our stand-in for x86-64. Code addresses are byte addresses: each
 * instruction occupies 4 bytes of the code region, so address
 * arithmetic (and CFI label probing at arbitrary addresses) behaves
 * like real machine code.
 *
 * CFI instrumentation appears here exactly as in the paper's machine-
 * level pass: CfiLabel pseudo-instructions mark valid control-flow
 * targets (function entries and return sites), returns become CheckRet
 * (validate the label at the return site), and indirect calls become
 * CallIndChecked (mask the target out of user space, then validate the
 * label at the target).
 */

#ifndef VG_COMPILER_MCODE_HH
#define VG_COMPILER_MCODE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crypto/sha256.hh"
#include "vir/inst.hh"

namespace vg::cc
{

/** Machine opcodes. */
enum class MOp : uint8_t
{
    ConstI,
    Mov,
    Add,
    Sub,
    Mul,
    UDiv,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    ICmp,
    Load,
    Store,
    Memcpy,
    FrameAddr,       ///< dst = frame base + imm (lowered alloca)
    Jump,            ///< unconditional; imm = code address
    JumpIfZero,      ///< if a == 0 jump to imm
    CallDirect,      ///< imm = callee code address
    CallExt,         ///< callee = external symbol name
    CallInd,         ///< target address in a (uninstrumented)
    CallIndChecked,  ///< CFI: mask target, require CfiLabel at target
    Ret,             ///< uninstrumented return
    CheckRet,        ///< CFI: require CfiLabel at the return site
    CfiLabel,        ///< imm = label value; executes as a no-op
    SandboxAddr,     ///< dst = sandboxed a (fused ghost/SVA mask sequence)
};

/**
 * Length of the straight-line masking sequence sandboxPass emits per
 * memory operand. The machine-level peephole (fuseSandboxPass)
 * recognizes exactly this many instructions and folds them into one
 * SandboxAddr, which models the same number of machine instructions
 * (identical simulated cycles and instruction counts) in one dispatch.
 */
constexpr unsigned sandboxMaskSeqLen = 13;

/** The single conservative CFI label value (S 5: one label for all
 *  call sites and function entries). */
constexpr uint64_t cfiLabelValue = 0x00CF1CF1;

/** One machine instruction. */
struct MInst
{
    MOp op = MOp::ConstI;
    vir::Width width = vir::Width::I64;
    vir::CmpPred pred = vir::CmpPred::Eq;

    int dst = -1;
    int a = -1;
    int b = -1;
    int c = -1;

    uint64_t imm = 0;

    /** External symbol for CallExt. */
    std::string callee;

    /** Argument registers for calls. */
    std::vector<int> args;
};

/** Bytes of code-space each MInst occupies. */
constexpr uint64_t mInstBytes = 4;

/** Per-function metadata in a compiled image. */
struct FuncInfo
{
    std::string name;
    uint64_t entryAddr = 0;  ///< absolute code address
    uint64_t frameBytes = 0; ///< stack frame for lowered allocas
    int numParams = 0;
    int numRegs = 0;
};

/** A compiled, relocated, signed translation of one module. */
struct MachineImage
{
    std::string moduleName;
    uint64_t codeBase = 0;
    std::vector<MInst> code;
    std::map<std::string, FuncInfo> functions;

    /** Translation signature (HMAC by the VM's translation key). */
    crypto::Digest signature{};

    /** True when the sandbox/CFI passes ran on this image. */
    bool instrumented = false;

    uint64_t
    codeEnd() const
    {
        return codeBase + code.size() * mInstBytes;
    }

    /** True if @p addr is a valid instruction address in this image. */
    bool
    contains(uint64_t addr) const
    {
        return addr >= codeBase && addr < codeEnd() &&
               (addr - codeBase) % mInstBytes == 0;
    }

    const MInst *
    at(uint64_t addr) const
    {
        if (!contains(addr))
            return nullptr;
        return &code[(addr - codeBase) / mInstBytes];
    }

    /** Deterministic serialization used for signing. */
    std::vector<uint8_t> serializeForSigning() const;
};

} // namespace vg::cc

#endif // VG_COMPILER_MCODE_HH
