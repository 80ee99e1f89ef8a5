/**
 * @file
 * McodeVerifier implementation.
 *
 * Verification is per function, over the extents functionExtents()
 * gives (mcode.hh): an extent runs from its entry to the next extent's
 * entry, and a function whose entry is not an instruction address gets
 * no extent but a VG-ST-02 finding. It proceeds in three layers:
 *
 *  1. Structural (always): operand registers in range, jump immediates
 *     on instruction boundaries inside the same function, direct-call
 *     immediates at function entries, and no fallthrough off the end.
 *  2. CFI (policy.requireCfi): entry + return-site labels, no raw
 *     Ret/CallInd, and label-value uniqueness (cfiLabelValue must not
 *     appear as a forgeable data immediate).
 *  3. Sandbox (policy.requireSandbox): a forward dataflow analysis
 *     (forwardFlow) over the instruction-granularity CFG. The abstract
 *     state is the set of registers proven masked; the meet at join
 *     points is intersection (a register is masked only if masked on
 *     every incoming path). SandboxAddr generates its destination —
 *     the translator always fuses the masking sequence, so SandboxAddr
 *     is the only mask this layer knows. Mov propagates maskedness;
 *     every other definition kills it. At the fixpoint every reachable
 *     Load/Store/Memcpy address register must be in the masked set.
 *
 * Layer 1 runs unconditionally because layers 2 and 3 assume registers
 * are in range; a function with register errors skips the dataflow to
 * avoid indexing bitsets out of bounds.
 */

#include "compiler/mverify.hh"

#include <algorithm>
#include <cstdio>

namespace vg::cc
{

const char *
ruleId(MRule rule)
{
    switch (rule) {
    case MRule::UnmaskedAccess: return "VG-SB-01";
    case MRule::RawRet: return "VG-CFI-01";
    case MRule::RawIndirectCall: return "VG-CFI-02";
    case MRule::MissingEntryLabel: return "VG-CFI-03";
    case MRule::MissingReturnLabel: return "VG-CFI-04";
    case MRule::LabelForgery: return "VG-CFI-05";
    case MRule::BadBranchTarget: return "VG-ST-01";
    case MRule::BadCallTarget: return "VG-ST-02";
    case MRule::BadRegister: return "VG-ST-03";
    case MRule::FallsOffEnd: return "VG-ST-04";
    }
    return "VG-??";
}

std::string
McodeFinding::render(uint64_t entryAddr) const
{
    char buf[96];
    if (entryAddr && addr >= entryAddr)
        std::snprintf(buf, sizeof(buf), "+0x%llx",
                      (unsigned long long)(addr - entryAddr));
    else
        std::snprintf(buf, sizeof(buf), " @ 0x%llx",
                      (unsigned long long)addr);
    std::string s = function + buf;
    s += ": [";
    s += ruleId(rule);
    s += "] ";
    s += message;
    return s;
}

std::string
McodeVerifyResult::message() const
{
    std::string s;
    for (const McodeFinding &f : findings) {
        if (!s.empty())
            s += '\n';
        s += f.render();
    }
    return s;
}

namespace
{

/** Dense bitset over a function's registers. */
class RegSet
{
  public:
    RegSet() = default;
    RegSet(int numRegs, bool all)
        : _words((size_t)(numRegs + 63) / 64, all ? ~0ull : 0ull)
    {
    }

    void set(int r) { _words[(size_t)r >> 6] |= 1ull << (r & 63); }
    void clear(int r) { _words[(size_t)r >> 6] &= ~(1ull << (r & 63)); }
    bool
    test(int r) const
    {
        return (_words[(size_t)r >> 6] >> (r & 63)) & 1;
    }

    /** this &= other; returns true when this changed. */
    bool
    intersect(const RegSet &other)
    {
        bool changed = false;
        for (size_t i = 0; i < _words.size(); i++) {
            uint64_t w = _words[i] & other._words[i];
            changed |= w != _words[i];
            _words[i] = w;
        }
        return changed;
    }

  private:
    std::vector<uint64_t> _words;
};

struct RegUse
{
    int reg;
    const char *role;
};

/** Registers an instruction reads, with their role names. */
void
forEachUse(const MInst &m, std::vector<RegUse> &out)
{
    out.clear();
    switch (m.op) {
    case MOp::ConstI:
    case MOp::FrameAddr:
    case MOp::Jump:
    case MOp::CfiLabel: break;
    case MOp::Mov:
    case MOp::SandboxAddr: out.push_back({m.a, "src"}); break;
    case MOp::Add:
    case MOp::Sub:
    case MOp::Mul:
    case MOp::UDiv:
    case MOp::URem:
    case MOp::And:
    case MOp::Or:
    case MOp::Xor:
    case MOp::Shl:
    case MOp::LShr:
    case MOp::AShr:
    case MOp::ICmp:
        out.push_back({m.a, "lhs"});
        out.push_back({m.b, "rhs"});
        break;
    case MOp::Load: out.push_back({m.a, "addr"}); break;
    case MOp::Store:
        out.push_back({m.a, "addr"});
        out.push_back({m.b, "value"});
        break;
    case MOp::Memcpy:
        out.push_back({m.a, "dst addr"});
        out.push_back({m.b, "src addr"});
        out.push_back({m.c, "len"});
        break;
    case MOp::JumpIfZero: out.push_back({m.a, "cond"}); break;
    case MOp::CallDirect:
    case MOp::CallExt: break;
    case MOp::CallInd:
    case MOp::CallIndChecked: out.push_back({m.a, "target"}); break;
    case MOp::Ret:
    case MOp::CheckRet:
        if (m.a >= 0)
            out.push_back({m.a, "retval"});
        break;
    }
    for (int arg : m.args)
        out.push_back({arg, "arg"});
}

/** Fixpoint of the forward masked-register dataflow over one function
 *  extent (see file header), entered with no register masked. */
Flow<RegSet>
maskFlow(const MachineImage &img, const FuncExtent &r)
{
    const int numRegs = r.info->numRegs;
    auto transfer = [&](size_t i, RegSet &state) {
        const MInst &m = img.code[i];
        bool masks = m.op == MOp::SandboxAddr ||
                     (m.op == MOp::Mov && m.a >= 0 && m.a < numRegs &&
                      state.test(m.a));
        int d = defReg(m);
        if (d >= 0 && d < numRegs)
            state.clear(d);
        if (masks && m.dst >= 0 && m.dst < numRegs)
            state.set(m.dst);
    };
    return forwardFlow(img, r, RegSet(numRegs, false), transfer,
                       [](RegSet &into, const RegSet &from) {
                           return into.intersect(from);
                       });
}

/** Per-function verification context. */
class FuncChecker
{
  public:
    FuncChecker(const MachineImage &image, const FuncExtent &range,
                const McodePolicy &policy,
                const std::vector<uint64_t> &entryAddrs,
                std::vector<McodeFinding> &findings)
        : _img(image), _r(range), _policy(policy),
          _entryAddrs(entryAddrs), _findings(findings)
    {
    }

    void
    run()
    {
        bool regsOk = checkRegisters();
        checkStructure();
        if (_policy.requireCfi)
            checkCfi();
        if (_policy.requireSandbox && regsOk)
            checkSandbox();
    }

  private:
    uint64_t addrOf(size_t idx) const
    {
        return _img.codeBase + idx * mInstBytes;
    }

    void
    report(MRule rule, size_t idx, std::string msg)
    {
        McodeFinding f;
        f.rule = rule;
        f.severity = MSeverity::Error;
        f.function = _r.info->name;
        f.addr = addrOf(idx);
        f.message = std::move(msg);
        _findings.push_back(std::move(f));
    }

    /** Layer 1a: every operand register inside [0, numRegs). */
    bool
    checkRegisters()
    {
        const int numRegs = _r.info->numRegs;
        bool ok = true;
        std::vector<RegUse> uses;
        for (size_t i = _r.begin; i < _r.end; i++) {
            const MInst &m = _img.code[i];
            int d = defReg(m);
            if (d >= numRegs) {
                report(MRule::BadRegister, i,
                       "destination register %" + std::to_string(d) +
                           " out of range (function has " +
                           std::to_string(numRegs) + ")");
                ok = false;
            }
            forEachUse(m, uses);
            for (const RegUse &u : uses) {
                if (u.reg < 0 || u.reg >= numRegs) {
                    report(MRule::BadRegister, i,
                           std::string(u.role) + " register " +
                               std::to_string(u.reg) +
                               " out of range (function has " +
                               std::to_string(numRegs) + ")");
                    ok = false;
                }
            }
        }
        return ok;
    }

    /** Layer 1b: branch/call targets and function termination. */
    void
    checkStructure()
    {
        if (_r.begin >= _r.end) {
            report(MRule::FallsOffEnd, _r.begin, "function has no code");
            return;
        }
        for (size_t i = _r.begin; i < _r.end; i++) {
            const MInst &m = _img.code[i];
            char hex[32];
            std::snprintf(hex, sizeof(hex), "0x%llx",
                          (unsigned long long)m.imm);
            if (m.op == MOp::Jump || m.op == MOp::JumpIfZero) {
                if (!_img.contains(m.imm))
                    report(MRule::BadBranchTarget, i,
                           std::string("jump target ") + hex +
                               " is not an instruction boundary in "
                               "the code region");
                else if (!_r.contains(_img.indexOf(m.imm)))
                    report(MRule::BadBranchTarget, i,
                           std::string("jump target ") + hex +
                               " escapes the enclosing function");
            } else if (m.op == MOp::CallDirect) {
                if (!std::binary_search(_entryAddrs.begin(),
                                        _entryAddrs.end(), m.imm))
                    report(MRule::BadCallTarget, i,
                           std::string("call target ") + hex +
                               " is not a function entry");
            }
        }
        const MInst &last = _img.code[_r.end - 1];
        if (last.op != MOp::Jump && last.op != MOp::Ret &&
            last.op != MOp::CheckRet)
            report(MRule::FallsOffEnd, _r.end - 1,
                   "control can fall past the end of the function");
    }

    /** Layer 2: CFI labels, checked returns/calls, label uniqueness. */
    void
    checkCfi()
    {
        if (_r.begin >= _r.end)
            return;
        const MInst &entry = _img.code[_r.begin];
        if (entry.op != MOp::CfiLabel || entry.imm != cfiLabelValue)
            report(MRule::MissingEntryLabel, _r.begin,
                   "function entry is not a CfiLabel");
        for (size_t i = _r.begin; i < _r.end; i++) {
            const MInst &m = _img.code[i];
            if (m.op == MOp::Ret)
                report(MRule::RawRet, i,
                       "uninstrumented Ret (expected CheckRet)");
            if (m.op == MOp::CallInd)
                report(MRule::RawIndirectCall, i,
                       "uninstrumented CallInd (expected "
                       "CallIndChecked)");
            if (isCallOp(m.op)) {
                bool labeled = i + 1 < _r.end &&
                               _img.code[i + 1].op == MOp::CfiLabel &&
                               _img.code[i + 1].imm == cfiLabelValue;
                if (!labeled)
                    report(MRule::MissingReturnLabel, i,
                           "call is not followed by a return-site "
                           "CfiLabel");
            }
            // Label uniqueness: the label value must never be
            // constructible as ordinary data, or a hostile kernel could
            // manufacture valid-looking control-flow targets.
            if ((m.op == MOp::ConstI || m.op == MOp::FrameAddr) &&
                m.imm == cfiLabelValue)
                report(MRule::LabelForgery, i,
                       "cfiLabelValue appears as a non-label "
                       "immediate");
            if (m.op == MOp::CfiLabel && m.imm != cfiLabelValue)
                report(MRule::LabelForgery, i,
                       "CfiLabel carries a non-standard label value");
        }
    }

    /** Layer 3: forward masked-register dataflow (see file header). */
    void
    checkSandbox()
    {
        const size_t n = _r.size();
        Flow<RegSet> flow = maskFlow(_img, _r);

        // Report at the fixpoint, in address order, so diagnostics are
        // deterministic and never reflect a transient optimistic state.
        for (size_t i = 0; i < n; i++) {
            if (!flow.reached[i])
                continue;
            const MInst &m = _img.code[_r.begin + i];
            auto flag = [&](int reg, const char *role) {
                if (!flow.in[i].test(reg))
                    report(MRule::UnmaskedAccess, _r.begin + i,
                           std::string(role) + " register %" +
                               std::to_string(reg) +
                               " is not provably sandbox-masked");
            };
            if (m.op == MOp::Load)
                flag(m.a, "load address");
            else if (m.op == MOp::Store)
                flag(m.a, "store address");
            else if (m.op == MOp::Memcpy) {
                flag(m.a, "memcpy destination");
                flag(m.b, "memcpy source");
            }
        }
    }

    const MachineImage &_img;
    const FuncExtent &_r;
    const McodePolicy &_policy;
    const std::vector<uint64_t> &_entryAddrs;
    std::vector<McodeFinding> &_findings;
};

} // namespace

McodeVerifyResult
McodeVerifier::verify(const MachineImage &image) const
{
    McodeVerifyResult result;

    // Functions whose entry is not an instruction address have no
    // extent; report them first, in address order.
    std::vector<const FuncInfo *> offGrid;
    for (const auto &[name, fi] : image.functions) {
        (void)name;
        if (!image.contains(fi.entryAddr))
            offGrid.push_back(&fi);
    }
    std::stable_sort(offGrid.begin(), offGrid.end(),
                     [](const FuncInfo *a, const FuncInfo *b) {
                         return a->entryAddr < b->entryAddr;
                     });
    for (const FuncInfo *fi : offGrid) {
        McodeFinding f;
        f.rule = MRule::BadCallTarget;
        f.function = fi->name;
        f.addr = fi->entryAddr;
        f.message = "function entry is not an instruction "
                    "boundary in the code region";
        result.findings.push_back(std::move(f));
    }

    const std::vector<FuncExtent> extents = functionExtents(image);
    std::vector<uint64_t> entryAddrs;
    entryAddrs.reserve(extents.size());
    for (const FuncExtent &r : extents)
        entryAddrs.push_back(r.info->entryAddr);

    for (const FuncExtent &r : extents) {
        FuncChecker checker(image, r, _policy, entryAddrs,
                            result.findings);
        checker.run();
        result.functionsChecked++;
        result.instsChecked += r.size();
    }
    return result;
}

} // namespace vg::cc
