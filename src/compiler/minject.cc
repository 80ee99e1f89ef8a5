/**
 * @file
 * Miscompile injection implementation.
 *
 * Every kind is expressed as an in-place rewrite of existing
 * instructions (never an insertion) so code addresses, function extents
 * and jump targets stay put — the injected image is exactly what a
 * buggy pass would have laid out, and the verifier gets no structural
 * side-channel hinting that something was edited.
 */

#include "compiler/minject.hh"

#include <algorithm>

#include "compiler/iflow.hh"
#include "sva/iflow_meta.hh"

namespace vg::cc
{

namespace
{

/** The register the SandboxAddr at @p idx defines, or -1 when code[idx]
 *  is not a SandboxAddr. */
int
maskDefReg(const MachineImage &image, size_t idx)
{
    const MInst &m = image.code[idx];
    return m.op == MOp::SandboxAddr ? m.dst : -1;
}

/** Indices of all mask-producing instructions. */
std::vector<size_t>
maskDefSites(const MachineImage &image)
{
    std::vector<size_t> out;
    for (size_t i = 0; i < image.code.size(); i++)
        if (maskDefReg(image, i) >= 0)
            out.push_back(i);
    return out;
}

/** First instruction after @p d that uses register @p r as a memory
 *  address, or SIZE_MAX. */
size_t
findAddrConsumer(const MachineImage &image, size_t d, size_t end, int r)
{
    for (size_t j = d + 1; j < end; j++) {
        const MInst &m = image.code[j];
        if ((m.op == MOp::Load || m.op == MOp::Store) && m.a == r)
            return j;
        if (m.op == MOp::Memcpy && (m.a == r || m.b == r))
            return j;
    }
    return SIZE_MAX;
}

/** Rewrite code[idx] into a semantic no-op: a jump to the next
 *  instruction. Uses no registers, so it perturbs only the property
 *  under test. */
void
overwriteWithNop(MachineImage &image, size_t idx)
{
    MInst nop;
    nop.op = MOp::Jump;
    nop.imm = idx + 1 < image.code.size()
                  ? image.codeBase + (idx + 1) * mInstBytes
                  : image.codeBase + idx * mInstBytes;
    image.code[idx] = std::move(nop);
}

/** Taint facts of the pre-injection image; the iflow kinds pick their
 *  sites from the verifier's own fixpoint so every site is detectable
 *  by construction. */
IflowFacts
iflowFactsFor(const MachineImage &image)
{
    IflowFacts facts;
    IflowVerifier verifier;
    verifier.verify(image, &facts);
    return facts;
}

bool
taintedAt(const IflowFacts &facts, size_t i, int reg)
{
    if (i >= facts.taintedRegsAt.size())
        return false;
    const std::vector<int> &list = facts.taintedRegsAt[i];
    return std::find(list.begin(), list.end(), reg) != list.end();
}

/** Lowest-numbered tainted register at @p i other than @p exclude,
 *  or -1. */
int
taintedOtherAt(const IflowFacts &facts, size_t i, int exclude)
{
    if (i >= facts.taintedRegsAt.size())
        return -1;
    for (int r : facts.taintedRegsAt[i])
        if (r != exclude)
            return r;
    return -1;
}

bool
isDeclassifierCall(const MInst &m)
{
    if (m.op != MOp::CallExt)
        return false;
    const sva::IfExternInfo *info = sva::iflowExternInfo(m.callee);
    return info && info->role == sva::IfRole::Declassifier;
}

/** For a Store at @p i, the index of the declassifier call that most
 *  recently defined its value register (with the call's raw input
 *  register still tainted at the store), or SIZE_MAX. */
size_t
sealedStoreSource(const MachineImage &image, const IflowFacts &facts,
                  const std::vector<FuncExtent> &extents, size_t i)
{
    const MInst &st = image.code[i];
    if (st.op != MOp::Store)
        return SIZE_MAX;
    if (i >= facts.visibleStoreAt.size() || !facts.visibleStoreAt[i])
        return SIZE_MAX;
    const FuncExtent *r = extentOf(extents, i);
    if (!r)
        return SIZE_MAX;
    for (size_t j = i; j-- > r->begin;) {
        const MInst &m = image.code[j];
        if (defReg(m) != st.b)
            continue;
        if (isDeclassifierCall(m) && !m.args.empty() &&
            taintedAt(facts, i, m.args[0]))
            return j;
        return SIZE_MAX; // most recent def is not a sanctioned seal
    }
    return SIZE_MAX;
}

} // namespace

const std::vector<Miscompile> &
allMiscompiles()
{
    static const std::vector<Miscompile> kinds = {
        Miscompile::DropMask,         Miscompile::ClobberMask,
        Miscompile::StripEntryLabel,  Miscompile::StripReturnLabel,
        Miscompile::RawRet,           Miscompile::RawIndirectCall,
        Miscompile::BadJumpTarget,    Miscompile::ForgeLabel,
        Miscompile::IflowDropSeal,    Miscompile::IflowRawStore,
        Miscompile::IflowStatLeak,
    };
    return kinds;
}

const char *
miscompileName(Miscompile kind)
{
    switch (kind) {
    case Miscompile::DropMask: return "drop-mask";
    case Miscompile::ClobberMask: return "clobber-mask";
    case Miscompile::StripEntryLabel: return "strip-entry-label";
    case Miscompile::StripReturnLabel: return "strip-return-label";
    case Miscompile::RawRet: return "raw-ret";
    case Miscompile::RawIndirectCall: return "raw-callind";
    case Miscompile::BadJumpTarget: return "bad-jump-target";
    case Miscompile::ForgeLabel: return "forge-label";
    case Miscompile::IflowDropSeal: return "iflow-drop-seal";
    case Miscompile::IflowRawStore: return "iflow-raw-store";
    case Miscompile::IflowStatLeak: return "iflow-stat-leak";
    }
    return "?";
}

bool
parseMiscompile(const std::string &name, Miscompile &kind)
{
    for (Miscompile k : allMiscompiles()) {
        if (name == miscompileName(k)) {
            kind = k;
            return true;
        }
    }
    return false;
}

std::vector<size_t>
miscompileSites(const MachineImage &image, Miscompile kind)
{
    std::vector<size_t> out;
    const std::vector<FuncExtent> extents = functionExtents(image);

    switch (kind) {
    case Miscompile::DropMask: return maskDefSites(image);

    case Miscompile::ClobberMask:
        for (size_t d : maskDefSites(image)) {
            const FuncExtent *r = extentOf(extents, d);
            if (!r)
                continue;
            int reg = maskDefReg(image, d);
            size_t j = findAddrConsumer(image, d, r->end, reg);
            if (j == SIZE_MAX)
                continue;
            // Either there is room between mask and use for clobbering
            // arithmetic, or we can redirect the mask's destination —
            // which needs a second register to exist.
            if (j > d + 1 || r->info->numRegs >= 2)
                out.push_back(d);
        }
        return out;

    case Miscompile::StripEntryLabel:
        for (const FuncExtent &r : extents)
            if (r.begin < r.end &&
                image.code[r.begin].op == MOp::CfiLabel)
                out.push_back(r.begin);
        return out;

    case Miscompile::StripReturnLabel:
        for (size_t i = 1; i < image.code.size(); i++)
            if (image.code[i].op == MOp::CfiLabel &&
                isCallOp(image.code[i - 1].op))
                out.push_back(i);
        return out;

    case Miscompile::RawRet:
        for (size_t i = 0; i < image.code.size(); i++)
            if (image.code[i].op == MOp::CheckRet)
                out.push_back(i);
        return out;

    case Miscompile::RawIndirectCall:
        for (size_t i = 0; i < image.code.size(); i++)
            if (image.code[i].op == MOp::CallIndChecked)
                out.push_back(i);
        return out;

    case Miscompile::BadJumpTarget:
        for (size_t i = 0; i < image.code.size(); i++)
            if (image.code[i].op == MOp::Jump ||
                image.code[i].op == MOp::JumpIfZero)
                out.push_back(i);
        return out;

    case Miscompile::ForgeLabel:
        for (size_t i = 0; i < image.code.size(); i++)
            if (image.code[i].op == MOp::ConstI &&
                image.code[i].imm != cfiLabelValue)
                out.push_back(i);
        return out;

    case Miscompile::IflowDropSeal: {
        const IflowFacts facts = iflowFactsFor(image);
        for (size_t i = 0; i < image.code.size(); i++) {
            const MInst &m = image.code[i];
            if (isDeclassifierCall(m) && m.dst >= 0 &&
                !m.args.empty() && taintedAt(facts, i, m.args[0]))
                out.push_back(i);
        }
        return out;
    }

    case Miscompile::IflowRawStore: {
        const IflowFacts facts = iflowFactsFor(image);
        for (size_t i = 0; i < image.code.size(); i++)
            if (sealedStoreSource(image, facts, extents, i) !=
                SIZE_MAX)
                out.push_back(i);
        return out;
    }

    case Miscompile::IflowStatLeak: {
        const IflowFacts facts = iflowFactsFor(image);
        for (size_t i = 0; i < image.code.size(); i++) {
            const MInst &m = image.code[i];
            if (m.op != MOp::CallExt || m.args.empty())
                continue;
            const sva::IfExternInfo *info =
                sva::iflowExternInfo(m.callee);
            if (!info || info->role != sva::IfRole::Sink ||
                info->channel != sva::IfChannel::Stat)
                continue;
            if (taintedOtherAt(facts, i, m.args[0]) >= 0)
                out.push_back(i);
        }
        return out;
    }
    }
    return out;
}

bool
injectMiscompile(MachineImage &image, Miscompile kind, size_t siteIdx)
{
    const std::vector<size_t> sites = miscompileSites(image, kind);
    if (siteIdx >= sites.size())
        return false;
    const size_t i = sites[siteIdx];
    MInst &m = image.code[i];

    switch (kind) {
    case Miscompile::DropMask: {
        // The mask degenerates into a plain move of the unmasked (or
        // partially masked) source — addresses flow through unchecked.
        MInst mov;
        mov.op = MOp::Mov;
        mov.dst = m.dst;
        mov.a = m.a;
        image.code[i] = std::move(mov);
        return true;
    }

    case Miscompile::ClobberMask: {
        const std::vector<FuncExtent> extents = functionExtents(image);
        const FuncExtent *r = extentOf(extents, i);
        int reg = maskDefReg(image, i);
        size_t j = findAddrConsumer(image, i, r->end, reg);
        if (j > i + 1) {
            MInst add;
            add.op = MOp::Add;
            add.dst = reg;
            add.a = reg;
            add.b = reg;
            image.code[i + 1] = std::move(add);
        } else {
            // No gap: make the mask write somewhere else entirely, so
            // the consumer reads a never-masked register.
            m.dst = reg > 0 ? reg - 1 : reg + 1;
        }
        return true;
    }

    case Miscompile::StripEntryLabel:
    case Miscompile::StripReturnLabel:
        overwriteWithNop(image, i);
        return true;

    case Miscompile::RawRet:
        m.op = MOp::Ret;
        return true;

    case Miscompile::RawIndirectCall:
        m.op = MOp::CallInd;
        return true;

    case Miscompile::BadJumpTarget:
        m.imm += 2;
        return true;

    case Miscompile::ForgeLabel:
        m.imm = cfiLabelValue;
        return true;

    case Miscompile::IflowDropSeal: {
        // The "seal" becomes an identity move: the raw ghost value
        // flows onward under the name the sealed result would have
        // had. Sandboxing and CFI are untouched.
        MInst mov;
        mov.op = MOp::Mov;
        mov.dst = m.dst;
        mov.a = m.args.empty() ? m.a : m.args[0];
        image.code[i] = std::move(mov);
        return true;
    }

    case Miscompile::IflowRawStore: {
        const IflowFacts facts = iflowFactsFor(image);
        size_t d = sealedStoreSource(image, facts,
                                     functionExtents(image), i);
        if (d == SIZE_MAX)
            return false;
        // The store keeps its (masked) address but writes the seal
        // call's raw input instead of its ciphertext output.
        m.b = image.code[d].args[0];
        return true;
    }

    case Miscompile::IflowStatLeak: {
        const IflowFacts facts = iflowFactsFor(image);
        int reg = taintedOtherAt(facts, i, m.args[0]);
        if (reg < 0)
            return false;
        // The stat counter is fed a live ghost-derived register
        // instead of the innocuous value the source asked for.
        m.args[0] = reg;
        return true;
    }
    }
    return false;
}

} // namespace vg::cc
