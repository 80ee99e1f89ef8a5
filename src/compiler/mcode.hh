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

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
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

    /** Index into code of the instruction at @p addr, or SIZE_MAX when
     *  @p addr is not an instruction address in this image. */
    size_t
    indexOf(uint64_t addr) const
    {
        return contains(addr) ? size_t((addr - codeBase) / mInstBytes)
                              : SIZE_MAX;
    }

    /** Deterministic serialization used for signing. */
    std::vector<uint8_t> serializeForSigning() const;
};

/**
 * One function's code: instruction indices [begin, end) of
 * MachineImage::code. Both verifiers and the fault injector take
 * function boundaries from functionExtents().
 */
struct FuncExtent
{
    const FuncInfo *info = nullptr;
    size_t begin = 0;
    size_t end = 0;

    size_t size() const { return end - begin; }
    bool contains(size_t idx) const { return idx >= begin && idx < end; }
};

/**
 * The function extents of @p image, sorted by entry address. A function
 * whose entry is not an instruction address of the image gets no
 * extent. Every other extent ends where the next one begins and the
 * last ends at the image end, so extents never overlap and together
 * cover everything from the first entry on.
 */
std::vector<FuncExtent> functionExtents(const MachineImage &image);

/** The extent holding instruction @p idx, or nullptr. */
const FuncExtent *extentOf(const std::vector<FuncExtent> &extents,
                           size_t idx);

/** The register @p m writes, or -1. */
int defReg(const MInst &m);

/** True for the four call opcodes. */
bool isCallOp(MOp op);

/**
 * Intra-function successors of instruction @p idx (an index into
 * image.code inside @p extent), jump target first, then fallthrough.
 * A jump target outside the extent and a fallthrough past its end are
 * not successors. Writes them to @p succ and returns how many.
 */
int successors(const MachineImage &image, const FuncExtent &extent,
               size_t idx, size_t succ[2]);

/** Fixpoint of a forward dataflow over one extent; both vectors are
 *  indexed by instruction index minus extent.begin. */
template <typename State>
struct Flow
{
    std::vector<State> in;     ///< state on entry to each instruction
    std::vector<bool> reached; ///< reachable from the function entry
};

/**
 * The worklist forward dataflow every MCode analysis runs, over the
 * instruction-granularity CFG of @p extent given by successors().
 * The entry instruction starts in @p entry. transfer(idx, state)
 * applies instruction idx (an index into image.code) to state in
 * place. merge(into, from) joins a predecessor's out-state into a
 * reached instruction's in-state and returns true when it changed;
 * the first state to reach an instruction is copied.
 */
template <typename State, typename Transfer, typename Merge>
Flow<State>
forwardFlow(const MachineImage &image, const FuncExtent &extent,
            State entry, Transfer &&transfer, Merge &&merge)
{
    const size_t n = extent.size();
    Flow<State> flow;
    flow.in.assign(n, State{});
    flow.reached.assign(n, false);
    if (n == 0)
        return flow;

    flow.in[0] = std::move(entry);
    flow.reached[0] = true;
    std::vector<size_t> work{0};
    std::vector<bool> inWork(n, false);
    inWork[0] = true;
    while (!work.empty()) {
        size_t i = work.back();
        work.pop_back();
        inWork[i] = false;
        State state = flow.in[i];
        transfer(extent.begin + i, state);
        size_t succ[2];
        int cnt = successors(image, extent, extent.begin + i, succ);
        for (int k = 0; k < cnt; k++) {
            size_t s = succ[k] - extent.begin;
            bool changed;
            if (!flow.reached[s]) {
                flow.in[s] = state;
                flow.reached[s] = true;
                changed = true;
            } else {
                changed = merge(flow.in[s], state);
            }
            if (changed && !inWork[s]) {
                inWork[s] = true;
                work.push_back(s);
            }
        }
    }
    return flow;
}

} // namespace vg::cc

#endif // VG_COMPILER_MCODE_HH
