/**
 * @file
 * Machine-level peephole: fuse the sandbox masking sequence.
 *
 * sandboxPass emits, per memory operand, a fixed straight-line
 * 13-instruction ghost/SVA masking sequence (see sandbox_pass.cc). The
 * paper's point is that this compiles to a handful of native machine
 * instructions; interpreting it one opcode at a time makes it the
 * dominant cost of instrumented execution. This pass recognizes the
 * exact sequence in lowered machine code and folds it into a single
 * SandboxAddr instruction that the executor dispatches once.
 *
 * Semantics are byte-identical by construction: SandboxAddr computes
 * hw::sandboxAddress,
 *
 *   masked = a | (uint64(a >= ghostBase) << 39)
 *   dst    = masked * uint64(!(svaBase <= masked < svaEnd))
 *
 * which is exactly what the unfused sequence computes, and it charges
 * the same simulated instruction count and cycles (sandboxMaskSeqLen)
 * so fuel, stats and clock behaviour do not change. Only the host-side
 * dispatch count drops. The VIR-level pass — and therefore the
 * verifier's view of the module — is untouched.
 *
 * The pass runs on pre-layout code whose Jump/JumpIfZero targets are
 * local instruction indices; targets are remapped exactly as cfiPass
 * remaps them. A jump can only ever target the *start* of a masking
 * sequence (block boundaries never fall inside one, because sandboxPass
 * emits the sequence contiguously within a block), and every index of a
 * fused region remaps to the fused instruction.
 */

#include "compiler/passes.hh"
#include "hw/layout.hh"
#include "sim/log.hh"

namespace vg::cc
{

int
matchSandboxMaskSeq(const std::vector<MInst> &code, size_t i, int &dst)
{
    if (i + sandboxMaskSeqLen > code.size())
        return -1;
    const MInst *m = &code[i];

    auto isConst = [](const MInst &x, uint64_t imm) {
        return x.op == MOp::ConstI && x.imm == imm;
    };
    auto isCmp = [](const MInst &x, vir::CmpPred pred, int a, int b) {
        return x.op == MOp::ICmp && x.pred == pred && x.a == a &&
               x.b == b;
    };
    auto isBin = [](const MInst &x, MOp op, int a, int b) {
        return x.op == op && x.a == a && x.b == b;
    };

    if (!isConst(m[0], hw::ghostBase))
        return -1;
    int g = m[0].dst;
    if (m[1].op != MOp::ICmp || m[1].pred != vir::CmpPred::Uge ||
        m[1].b != g)
        return -1;
    int addr = m[1].a;
    int c1 = m[1].dst;
    if (!isConst(m[2], 39))
        return -1;
    int s = m[2].dst;
    if (!isBin(m[3], MOp::Shl, c1, s))
        return -1;
    int or_mask = m[3].dst;
    if (!isBin(m[4], MOp::Or, addr, or_mask))
        return -1;
    int masked = m[4].dst;
    if (!isConst(m[5], hw::svaBase) || !isConst(m[6], hw::svaEnd))
        return -1;
    int sb = m[5].dst, se = m[6].dst;
    if (!isCmp(m[7], vir::CmpPred::Uge, masked, sb) ||
        !isCmp(m[8], vir::CmpPred::Ult, masked, se))
        return -1;
    if (!isBin(m[9], MOp::And, m[7].dst, m[8].dst))
        return -1;
    int in_sva = m[9].dst;
    if (!isConst(m[10], 1))
        return -1;
    int one = m[10].dst;
    if (!isBin(m[11], MOp::Xor, in_sva, one))
        return -1;
    int keep = m[11].dst;
    if (!isBin(m[12], MOp::Mul, masked, keep))
        return -1;
    dst = m[12].dst;
    return addr;
}

PassStats
fuseSandboxPass(std::vector<MInst> &code)
{
    PassStats stats;
    std::vector<MInst> out;
    out.reserve(code.size());
    std::vector<uint64_t> remap(code.size(), 0);

    for (size_t i = 0; i < code.size();) {
        int dst = -1;
        int addr = matchSandboxMaskSeq(code, i, dst);
        if (addr >= 0) {
            for (size_t k = 0; k < sandboxMaskSeqLen; k++)
                remap[i + k] = out.size();
            MInst fused;
            fused.op = MOp::SandboxAddr;
            fused.dst = dst;
            fused.a = addr;
            out.push_back(fused);
            i += sandboxMaskSeqLen;
            stats.sitesInstrumented++;
            stats.instsRemoved += sandboxMaskSeqLen - 1;
        } else {
            remap[i] = out.size();
            out.push_back(std::move(code[i]));
            i++;
        }
    }

    for (MInst &m : out) {
        if (m.op == MOp::Jump || m.op == MOp::JumpIfZero) {
            if (m.imm >= remap.size())
                sim::panic("fuseSandboxPass: jump target %lu out of "
                           "range",
                           (unsigned long)m.imm);
            m.imm = remap[m.imm];
        }
    }

    code = std::move(out);
    return stats;
}

} // namespace vg::cc
