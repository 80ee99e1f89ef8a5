/**
 * @file
 * McodeVerifier implementation.
 *
 * Verification is per function (function extents are recovered from the
 * sorted FuncInfo entry addresses; layout packs functions contiguously)
 * and proceeds in three layers:
 *
 *  1. Structural (always): operand registers in range, jump immediates
 *     on instruction boundaries inside the same function, direct-call
 *     immediates at function entries, and no fallthrough off the end.
 *  2. CFI (policy.requireCfi): entry + return-site labels, no raw
 *     Ret/CallInd, and label-value uniqueness (cfiLabelValue must not
 *     appear as a forgeable data immediate).
 *  3. Sandbox (policy.requireSandbox): a forward dataflow analysis over
 *     the instruction-granularity CFG. The abstract state is the set of
 *     registers proven masked; the meet at join points is intersection
 *     (a register is masked only if masked on every incoming path).
 *     SandboxAddr generates its destination — the translator always
 *     fuses the masking sequence, so SandboxAddr is the only mask this
 *     layer knows. Mov propagates maskedness; every other definition
 *     kills it. At the fixpoint every reachable Load/Store/Memcpy address
 *     register must be in the masked set.
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

/** A function's extent as instruction indices into image.code. */
struct FuncRange
{
    const FuncInfo *info = nullptr;
    size_t begin = 0;
    size_t end = 0;
};

/** The destination register an instruction writes, or -1. */
int
defReg(const MInst &m)
{
    switch (m.op) {
    case MOp::Store:
    case MOp::Memcpy:
    case MOp::Jump:
    case MOp::JumpIfZero:
    case MOp::Ret:
    case MOp::CheckRet:
    case MOp::CfiLabel: return -1;
    default: return m.dst;
    }
}

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

bool
isCallOp(MOp op)
{
    return op == MOp::CallDirect || op == MOp::CallExt ||
           op == MOp::CallInd || op == MOp::CallIndChecked;
}

/** Fixpoint of the forward masked-register dataflow over one function
 *  extent (see file header), entered with no register masked. */
struct MaskFlow
{
    std::vector<RegSet> in;
    std::vector<bool> reached;
};

MaskFlow
maskFlow(const MachineImage &img, const FuncRange &r, int numRegs)
{
    const size_t n = r.end - r.begin;
    MaskFlow out;
    out.in.assign(n, RegSet());
    out.reached.assign(n, false);
    if (n == 0)
        return out;

    auto targetIdx = [&](const MInst &m) -> size_t {
        if (!img.contains(m.imm))
            return SIZE_MAX;
        size_t idx = (size_t)((m.imm - img.codeBase) / mInstBytes);
        if (idx < r.begin || idx >= r.end)
            return SIZE_MAX;
        return idx;
    };

    out.in[0] = RegSet(numRegs, false);
    out.reached[0] = true;

    auto transfer = [&](size_t i, RegSet &state) {
        const MInst &m = img.code[r.begin + i];
        bool masks = m.op == MOp::SandboxAddr ||
                     (m.op == MOp::Mov && m.a >= 0 && m.a < numRegs &&
                      state.test(m.a));
        int d = defReg(m);
        if (d >= 0 && d < numRegs)
            state.clear(d);
        if (masks && m.dst >= 0 && m.dst < numRegs)
            state.set(m.dst);
    };

    auto successors = [&](size_t i, size_t succ[2]) -> int {
        const MInst &m = img.code[r.begin + i];
        int cnt = 0;
        if (m.op == MOp::Ret || m.op == MOp::CheckRet)
            return 0;
        if (m.op == MOp::Jump || m.op == MOp::JumpIfZero) {
            size_t t = targetIdx(m);
            if (t != SIZE_MAX)
                succ[cnt++] = t - r.begin;
            if (m.op == MOp::Jump)
                return cnt;
        }
        if (i + 1 < n)
            succ[cnt++] = i + 1;
        return cnt;
    };

    std::vector<size_t> work{0};
    std::vector<bool> inWork(n, false);
    inWork[0] = true;
    while (!work.empty()) {
        size_t i = work.back();
        work.pop_back();
        inWork[i] = false;
        RegSet state = out.in[i];
        transfer(i, state);
        size_t succ[2];
        int cnt = successors(i, succ);
        for (int k = 0; k < cnt; k++) {
            size_t s = succ[k];
            bool changed;
            if (!out.reached[s]) {
                out.in[s] = state;
                out.reached[s] = true;
                changed = true;
            } else {
                changed = out.in[s].intersect(state);
            }
            if (changed && !inWork[s]) {
                inWork[s] = true;
                work.push_back(s);
            }
        }
    }
    return out;
}

/** Per-function verification context. */
class FuncChecker
{
  public:
    FuncChecker(const MachineImage &image, const FuncRange &range,
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

    /** Resolve a local jump immediate to an index, or SIZE_MAX. */
    size_t
    jumpTargetIdx(const MInst &m) const
    {
        if (!_img.contains(m.imm))
            return SIZE_MAX;
        size_t idx = (size_t)((m.imm - _img.codeBase) / mInstBytes);
        if (idx < _r.begin || idx >= _r.end)
            return SIZE_MAX;
        return idx;
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
                else if (jumpTargetIdx(m) == SIZE_MAX)
                    report(MRule::BadBranchTarget, i,
                           std::string("jump target ") + hex +
                               " escapes the enclosing function");
            } else if (m.op == MOp::CallDirect) {
                if (!_img.contains(m.imm) ||
                    !std::binary_search(_entryAddrs.begin(),
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
        const size_t n = _r.end - _r.begin;
        if (n == 0)
            return;
        MaskFlow flow = maskFlow(_img, _r, _r.info->numRegs);

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
    const FuncRange &_r;
    const McodePolicy &_policy;
    const std::vector<uint64_t> &_entryAddrs;
    std::vector<McodeFinding> &_findings;
};

} // namespace

McodeVerifyResult
McodeVerifier::verify(const MachineImage &image) const
{
    McodeVerifyResult result;

    std::vector<FuncRange> ranges;
    ranges.reserve(image.functions.size());
    for (const auto &[name, fi] : image.functions) {
        (void)name;
        FuncRange r;
        r.info = &fi;
        ranges.push_back(r);
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const FuncRange &a, const FuncRange &b) {
                  return a.info->entryAddr < b.info->entryAddr;
              });

    std::vector<uint64_t> entryAddrs;
    entryAddrs.reserve(ranges.size());
    for (const FuncRange &r : ranges)
        entryAddrs.push_back(r.info->entryAddr);

    for (size_t i = 0; i < ranges.size(); i++) {
        FuncRange &r = ranges[i];
        if (!image.contains(r.info->entryAddr)) {
            McodeFinding f;
            f.rule = MRule::BadCallTarget;
            f.function = r.info->name;
            f.addr = r.info->entryAddr;
            f.message = "function entry is not an instruction "
                        "boundary in the code region";
            result.findings.push_back(std::move(f));
            r.info = nullptr;
            continue;
        }
        r.begin =
            (size_t)((r.info->entryAddr - image.codeBase) / mInstBytes);
        r.end = i + 1 < ranges.size() &&
                        image.contains(ranges[i + 1].info->entryAddr)
                    ? (size_t)((ranges[i + 1].info->entryAddr -
                                image.codeBase) /
                               mInstBytes)
                    : image.code.size();
    }

    for (const FuncRange &r : ranges) {
        if (!r.info)
            continue;
        FuncChecker checker(image, r, _policy, entryAddrs,
                            result.findings);
        checker.run();
        result.functionsChecked++;
        result.instsChecked += r.end - r.begin;
    }
    return result;
}

} // namespace vg::cc
