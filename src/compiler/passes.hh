/**
 * @file
 * The Virtual Ghost compiler passes (S 5).
 *
 *  - sandboxPass: IR-level load/store/memcpy masking. Any kernel memory
 *    operand >= ghostBase is ORed with 2^39 so it cannot address ghost
 *    memory; operands inside SVA internal memory are rewritten to 0.
 *  - cfiPass: machine-level control-flow-integrity instrumentation
 *    (labels at function entries and return sites; checked returns and
 *    indirect calls). Ported from the Zeng et al. style pass the paper
 *    reuses.
 *  - mmapMaskPass: IR-level masking of mmap() return values in
 *    *application* code, defeating Iago attacks that return pointers
 *    into ghost memory (S 5).
 */

#ifndef VG_COMPILER_PASSES_HH
#define VG_COMPILER_PASSES_HH

#include <string>
#include <vector>

#include "compiler/mcode.hh"
#include "vir/module.hh"

namespace vg::cc
{

/** Statistics a pass reports (for tests and the micro bench). */
struct PassStats
{
    uint64_t sitesInstrumented = 0;
    uint64_t instsAdded = 0;
    uint64_t instsRemoved = 0;
};

/** Run the load/store sandboxing pass over every function in @p mod. */
PassStats sandboxPass(vir::Module &mod);

/**
 * Run the mmap-return masking pass: after every call to a function
 * whose name is in @p mmap_like, the returned pointer is masked out of
 * the ghost region exactly like a kernel memory operand.
 */
PassStats mmapMaskPass(vir::Module &mod,
                       const std::vector<std::string> &mmap_like);

/**
 * Machine-level CFI pass over one function's code. Rewrites the
 * instruction list in place:
 *  - inserts a CfiLabel at the entry,
 *  - inserts a CfiLabel after every call (the return site),
 *  - converts Ret -> CheckRet and CallInd -> CallIndChecked,
 *  - remaps intra-function jump targets (which are instruction indices
 *    until final layout).
 */
PassStats cfiPass(std::vector<MInst> &code);

/**
 * Machine-level peephole over one function's code (pre-layout, local
 * jump targets). Recognizes the sandboxMaskSeqLen-instruction ghost/SVA
 * masking sequence emitted by sandboxPass and folds each occurrence
 * into a single SandboxAddr instruction with byte-identical semantics.
 * Intra-function jump targets are remapped; runs before cfiPass.
 */
PassStats fuseSandboxPass(std::vector<MInst> &code);

/**
 * If the sandboxMaskSeqLen-instruction masking sequence emitted by
 * sandboxPass starts at code[i], return the source address register
 * and set @p dst to the final (masked) register; return -1 otherwise.
 * Exported for fuseSandboxPass and its tests only: the translator
 * always fuses, so the verifiers and the executor know SandboxAddr as
 * the only mask.
 */
int matchSandboxMaskSeq(const std::vector<MInst> &code, size_t i,
                        int &dst);

} // namespace vg::cc

#endif // VG_COMPILER_PASSES_HH
