/**
 * @file
 * IflowVerifier implementation.
 *
 * Each function extent from functionExtents() (mcode.hh; a function
 * whose entry is not an instruction address has none and is not
 * analysed) runs the forwardFlow worklist dataflow at instruction
 * granularity. On top of that sits an interprocedural fixpoint:
 *
 *   repeat until no summary changes:
 *       for each function, in address order:
 *           run the intra-function dataflow from its current entry
 *           summary; direct calls push argument taint into callee
 *           entry summaries and pull callee return taint into the
 *           call result.
 *
 * Everything is monotone over a finite lattice (taint bits and
 * provenance bits only ever get set; pointer kinds only ever degrade
 * toward the conservative join; constants only ever become unknown),
 * so the loop terminates. Findings, stats and the exported facts are
 * collected in one final deterministic pass over the stable fixpoint,
 * never from a transient optimistic state.
 */

#include "compiler/iflow.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "hw/layout.hh"
#include "sva/iflow_meta.hh"

namespace vg::cc
{

using sva::IfChannel;
using sva::IfExternInfo;
using sva::IfRole;

const char *
iflowRuleId(IfRule rule)
{
    switch (rule) {
    case IfRule::DirectLeak: return "VG-IF-01";
    case IfRule::SpillLeak: return "VG-IF-02";
    case IfRule::CallLeak: return "VG-IF-03";
    case IfRule::UnsealedSwap: return "VG-IF-04";
    case IfRule::ArithLeak: return "VG-IF-05";
    }
    return "VG-IF-??";
}

std::string
IflowFinding::render(uint64_t entryAddr) const
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
    s += iflowRuleId(rule);
    s += "] ";
    s += message;
    return s;
}

std::string
IflowResult::message() const
{
    std::string s;
    for (const IflowFinding &f : findings) {
        if (!s.empty())
            s += '\n';
        s += f.render();
    }
    return s;
}

namespace
{

/** Provenance trail bits carried alongside the taint bit. */
constexpr uint8_t kViaSpill = 1; ///< passed through a frame slot
constexpr uint8_t kViaCall = 2;  ///< crossed a call/return boundary
constexpr uint8_t kViaArith = 4; ///< transformed by arithmetic

struct Taint
{
    bool t = false;
    uint8_t prov = 0;

    /** this |= other; returns true when this changed. */
    bool
    join(const Taint &o)
    {
        bool changed = (o.t && !t) || (o.prov & ~prov);
        t |= o.t;
        prov |= o.prov;
        return changed;
    }
};

/** What a register's value points at, if anything. */
enum class Ptr : uint8_t
{
    None,  ///< unknown / kernel-visible memory
    Frame, ///< the function's private call frame
    Ghost, ///< the ghost region (unmasked)
    Sink,  ///< an OS-visible sink window (e.g. swap staging)
};

struct AbsVal
{
    Taint taint;
    Ptr ptr = Ptr::None;
    bool offKnown = false; ///< Frame: offset is exactly `off`
    uint64_t off = 0;
    IfChannel channel = IfChannel::None; ///< Sink: which channel
    bool constKnown = false;
    uint64_t cval = 0;

    /** Lattice join; returns true when this changed. */
    bool
    join(const AbsVal &o)
    {
        bool changed = taint.join(o.taint);
        if (ptr != o.ptr) {
            // Differing kinds degrade conservatively: a maybe-sink is
            // a sink, a maybe-ghost pointer is a ghost pointer, and a
            // maybe-frame pointer is NOT a frame pointer (treating it
            // as private would hide a leak through the other kind).
            Ptr joined;
            if (ptr == Ptr::Sink || o.ptr == Ptr::Sink)
                joined = Ptr::Sink;
            else if (ptr == Ptr::Ghost || o.ptr == Ptr::Ghost)
                joined = Ptr::Ghost;
            else
                joined = Ptr::None;
            if (joined == Ptr::Sink) {
                IfChannel ch =
                    ptr == Ptr::Sink ? channel : o.channel;
                if (channel != ch) {
                    channel = ch;
                    changed = true;
                }
            }
            if (joined != ptr) {
                ptr = joined;
                changed = true;
            }
            if (offKnown) {
                offKnown = false;
                changed = true;
            }
        } else {
            if (ptr == Ptr::Frame &&
                (offKnown != o.offKnown || off != o.off) && offKnown) {
                offKnown = false;
                changed = true;
            }
            if (ptr == Ptr::Sink && channel != o.channel) {
                // Two different sink windows: keep ours (any channel
                // still reports); no lattice growth issue since the
                // kinds match.
            }
        }
        if (constKnown && (!o.constKnown || o.cval != cval)) {
            constKnown = false;
            changed = true;
        }
        return changed;
    }
};

/** Field-sensitive model of the function's private frame. */
struct FrameState
{
    std::map<uint64_t, Taint> slots;
    Taint blob; ///< taint stored at statically unknown offsets

    bool
    join(const FrameState &o)
    {
        bool changed = blob.join(o.blob);
        for (const auto &[off, t] : o.slots)
            changed |= slots[off].join(t);
        return changed;
    }
};

struct State
{
    std::vector<AbsVal> regs;
    FrameState frame;

    bool
    join(const State &o)
    {
        bool changed = frame.join(o.frame);
        for (size_t i = 0; i < regs.size() && i < o.regs.size(); i++)
            changed |= regs[i].join(o.regs[i]);
        return changed;
    }
};

/** Per-function interprocedural summary. */
struct FuncSummary
{
    std::vector<Taint> paramTaint;   ///< join over all observed calls
    std::vector<uint8_t> paramGhost; ///< arg may be a ghost pointer
    Taint ret;                       ///< join over all return values
};

const char *
channelNoun(IfChannel c)
{
    switch (c) {
    case IfChannel::Nic: return "a NIC descriptor payload";
    case IfChannel::Disk: return "a raw disk write";
    case IfChannel::Swap: return "the swap channel";
    case IfChannel::Stat: return "a kernel stat counter";
    case IfChannel::Log: return "the kernel log";
    case IfChannel::Kmem: return "kernel-visible memory";
    case IfChannel::Extern: return "an unannotated extern";
    case IfChannel::None: break;
    }
    return "an OS-visible channel";
}

/** Pick the rule that best describes a leak: the swap channel is its
 *  own rule; otherwise the most specific provenance wins. */
IfRule
ruleFor(IfChannel channel, uint8_t prov)
{
    if (channel == IfChannel::Swap)
        return IfRule::UnsealedSwap;
    if (prov & kViaCall)
        return IfRule::CallLeak;
    if (prov & kViaSpill)
        return IfRule::SpillLeak;
    if (prov & kViaArith)
        return IfRule::ArithLeak;
    return IfRule::DirectLeak;
}

std::string
provTrail(uint8_t prov)
{
    if (!prov)
        return "";
    std::string s = " (taint crossed";
    bool first = true;
    auto add = [&](const char *what) {
        if (!first)
            s += ",";
        s += " ";
        s += what;
        first = false;
    };
    if (prov & kViaCall)
        add("a call boundary");
    if (prov & kViaSpill)
        add("a frame spill");
    if (prov & kViaArith)
        add("arithmetic");
    s += ")";
    return s;
}

/**
 * The whole-image analysis. One instance per verify() call; holds the
 * function extents, the interprocedural summaries and, during the
 * reporting pass, the findings and exported facts.
 */
class Analysis
{
  public:
    explicit Analysis(const MachineImage &img)
        : _img(img), _funcs(functionExtents(img))
    {
    }

    IflowResult
    run(IflowFacts *facts)
    {
        for (const FuncExtent &r : _funcs)
            _funcByEntry[r.info->entryAddr] = r.info;
        findAddressTaken();
        for (const FuncExtent &r : _funcs)
            _summaries[r.info->name] = FuncSummary{
                std::vector<Taint>((size_t)std::max(r.info->numParams, 0)),
                std::vector<uint8_t>(
                    (size_t)std::max(r.info->numParams, 0)),
                Taint{}};

        // Interprocedural fixpoint over the summaries.
        bool changed = true;
        while (changed) {
            changed = false;
            for (const FuncExtent &r : _funcs) {
                analyze(r, true);
                changed |= _summariesChanged;
                _summariesChanged = false;
            }
        }

        // Final deterministic pass: findings, facts, stats.
        IflowResult result;
        _collect = &result;
        if (facts) {
            facts->taintedRegsAt.assign(_img.code.size(), {});
            facts->visibleStoreAt.assign(_img.code.size(), 0);
            _facts = facts;
        }
        for (const FuncExtent &r : _funcs) {
            analyze(r, false);
            result.functionsChecked++;
            result.instsChecked += r.size();
        }
        _collect = nullptr;
        _facts = nullptr;
        std::sort(result.findings.begin(), result.findings.end(),
                  [](const IflowFinding &a, const IflowFinding &b) {
                      return a.addr != b.addr ? a.addr < b.addr
                                              : a.message < b.message;
                  });
        return result;
    }

  private:
    /** Functions whose entry address appears as a ConstI immediate
     *  (funcaddr lowering) — the possible targets of indirect calls. */
    void
    findAddressTaken()
    {
        for (const MInst &m : _img.code) {
            if (m.op != MOp::ConstI)
                continue;
            auto it = _funcByEntry.find(m.imm);
            if (it != _funcByEntry.end())
                _addressTaken.insert(it->second->name);
        }
    }

    State
    entryState(const FuncExtent &r) const
    {
        State s;
        s.regs.assign((size_t)std::max(r.info->numRegs, 0), AbsVal{});
        auto it = _summaries.find(r.info->name);
        if (it == _summaries.end())
            return s;
        const FuncSummary &sum = it->second;
        for (size_t p = 0;
             p < sum.paramTaint.size() && p < s.regs.size(); p++) {
            s.regs[p].taint = sum.paramTaint[p];
            if (sum.paramGhost[p])
                s.regs[p].ptr = Ptr::Ghost;
        }
        return s;
    }

    uint64_t addrOf(size_t idx) const
    {
        return _img.codeBase + idx * mInstBytes;
    }

    void
    report(IfRule rule, const FuncExtent &r, size_t idx,
           std::string msg)
    {
        if (!_collect)
            return;
        IflowFinding f;
        f.rule = rule;
        f.function = r.info->name;
        f.addr = addrOf(idx);
        f.message = std::move(msg);
        _collect->findings.push_back(std::move(f));
    }

    void
    leak(const FuncExtent &r, size_t idx, IfChannel channel,
         uint8_t prov, const std::string &what)
    {
        report(ruleFor(channel, prov), r, idx,
               what + " carries ghost-derived data into " +
                   std::string(channelNoun(channel)) +
                   " without declassification" + provTrail(prov));
    }

    /** Propagate argument taint into a named callee's summary and
     *  return its current return taint (via-call stamped). */
    Taint
    callInto(const std::string &callee, const MInst &m,
             const State &s)
    {
        auto it = _summaries.find(callee);
        if (it == _summaries.end())
            return Taint{};
        FuncSummary &sum = it->second;
        for (size_t j = 0;
             j < m.args.size() && j < sum.paramTaint.size(); j++) {
            int a = m.args[j];
            if (a < 0 || (size_t)a >= s.regs.size())
                continue;
            Taint crossed = s.regs[(size_t)a].taint;
            if (crossed.t)
                crossed.prov |= kViaCall;
            _summariesChanged |= sum.paramTaint[j].join(crossed);
            if (s.regs[(size_t)a].ptr == Ptr::Ghost &&
                !sum.paramGhost[j]) {
                sum.paramGhost[j] = 1;
                _summariesChanged = true;
            }
        }
        Taint ret = sum.ret;
        if (ret.t)
            ret.prov |= kViaCall;
        return ret;
    }

    /** Join of the taint a load from the frame can observe. */
    Taint
    frameLoad(const FrameState &f, const AbsVal &addr) const
    {
        Taint t = f.blob;
        if (addr.offKnown) {
            auto it = f.slots.find(addr.off);
            if (it != f.slots.end())
                t.join(it->second);
        } else {
            for (const auto &[off, slot] : f.slots) {
                (void)off;
                t.join(slot);
            }
        }
        if (t.t)
            t.prov |= kViaSpill;
        return t;
    }

    /**
     * The transfer function. @p r is the enclosing extent, @p idx the
     * absolute instruction index; updates @p s in place, reporting
     * findings/facts when in the collection pass. @p summarize gates
     * interprocedural summary propagation (fixpoint phase only) —
     * during the reporting pass summaries are already stable.
     */
    void
    transfer(const FuncExtent &r, size_t idx, State &s, bool summarize)
    {
        const MInst &m = _img.code[idx];
        const int numRegs = (int)s.regs.size();
        AbsVal scratch;
        auto reg = [&](int rn) -> AbsVal & {
            if (rn < 0 || rn >= numRegs) {
                scratch = AbsVal{};
                return scratch;
            }
            return s.regs[(size_t)rn];
        };

        if (_facts) {
            auto &list = _facts->taintedRegsAt[idx];
            list.clear();
            for (int rn = 0; rn < numRegs; rn++)
                if (s.regs[(size_t)rn].taint.t)
                    list.push_back(rn);
        }

        // SandboxAddr: dst := sandbox(src). Masking is address-
        // formation glue, not laundering — taint passes through
        // without the via-arith stamp, and a ghost pointer comes out
        // relocated into the kernel half (Ptr::None).
        if (m.op == MOp::SandboxAddr) {
            AbsVal v = reg(m.a);
            if (v.ptr == Ptr::Ghost)
                v.ptr = Ptr::None;
            if (v.constKnown)
                v.cval = hw::sandboxAddress(v.cval);
            v.offKnown = v.ptr == Ptr::Frame && v.offKnown;
            reg(defReg(m)) = v;
            return;
        }

        switch (m.op) {
        case MOp::ConstI: {
            AbsVal v;
            v.constKnown = true;
            v.cval = m.imm;
            if (m.imm >= hw::ghostBase && m.imm < hw::ghostEnd)
                v.ptr = Ptr::Ghost;
            reg(m.dst) = v;
            break;
        }
        case MOp::FrameAddr: {
            AbsVal v;
            v.ptr = Ptr::Frame;
            v.offKnown = true;
            v.off = m.imm;
            reg(m.dst) = v;
            break;
        }
        case MOp::Mov:
            reg(m.dst) = reg(m.a);
            break;
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
        case MOp::ICmp: {
            AbsVal a = reg(m.a);
            AbsVal b = reg(m.b);
            AbsVal v;
            v.taint = a.taint;
            v.taint.join(b.taint);
            if (v.taint.t)
                v.taint.prov |= kViaArith;
            // Pointer arithmetic: Add/Sub keep the pointed-at kind so
            // indexed ghost loads and sink-window stores stay visible.
            if (m.op == MOp::Add || m.op == MOp::Sub) {
                const AbsVal &p = a.ptr != Ptr::None ? a : b;
                const AbsVal &q = a.ptr != Ptr::None ? b : a;
                if (p.ptr != Ptr::None) {
                    v.ptr = p.ptr;
                    v.channel = p.channel;
                    if (p.ptr == Ptr::Frame && p.offKnown &&
                        q.constKnown) {
                        v.offKnown = true;
                        v.off = m.op == MOp::Add ? p.off + q.cval
                                                 : p.off - q.cval;
                    }
                }
                if (a.constKnown && b.constKnown) {
                    v.constKnown = true;
                    v.cval = m.op == MOp::Add ? a.cval + b.cval
                                              : a.cval - b.cval;
                    if (v.cval >= hw::ghostBase &&
                        v.cval < hw::ghostEnd)
                        v.ptr = Ptr::Ghost;
                }
            }
            reg(m.dst) = v;
            break;
        }
        case MOp::Load: {
            AbsVal addr = reg(m.a);
            AbsVal v;
            if (addr.ptr == Ptr::Ghost) {
                v.taint.t = true; // a source: ghost memory read
            } else if (addr.ptr == Ptr::Frame) {
                v.taint = frameLoad(s.frame, addr);
            }
            reg(m.dst) = v;
            break;
        }
        case MOp::Store: {
            AbsVal addr = reg(m.a);
            AbsVal val = reg(m.b);
            if (_facts)
                _facts->visibleStoreAt[idx] =
                    addr.ptr == Ptr::None || addr.ptr == Ptr::Sink;
            if (addr.ptr == Ptr::Frame) {
                if (addr.offKnown)
                    s.frame.slots[addr.off] = val.taint;
                else
                    s.frame.blob.join(val.taint);
            } else if (addr.ptr == Ptr::Ghost) {
                // Writing into ghost memory is the app's own business.
            } else if (val.taint.t) {
                IfChannel ch = addr.ptr == Ptr::Sink
                                   ? addr.channel
                                   : IfChannel::Kmem;
                leak(r, idx, ch, val.taint.prov,
                     "store of register %" + std::to_string(m.b));
            }
            break;
        }
        case MOp::Memcpy: {
            AbsVal dst = reg(m.a);
            AbsVal src = reg(m.b);
            AbsVal len = reg(m.c);
            Taint data;
            if (src.ptr == Ptr::Ghost) {
                data.t = true;
            } else if (src.ptr == Ptr::Frame) {
                data = frameLoad(s.frame, src);
            }
            data.join(len.taint); // a ghost-derived length leaks too
            if (dst.ptr == Ptr::Frame) {
                s.frame.blob.join(data);
            } else if (dst.ptr != Ptr::Ghost && data.t) {
                IfChannel ch = dst.ptr == Ptr::Sink ? dst.channel
                                                    : IfChannel::Kmem;
                leak(r, idx, ch, data.prov,
                     "memcpy from register %" + std::to_string(m.b));
            }
            break;
        }
        case MOp::CallExt: {
            const IfExternInfo *info = sva::iflowExternInfo(m.callee);
            AbsVal v;
            if (!info) {
                // Default deny: unknown externs publish their args.
                for (size_t j = 0; j < m.args.size(); j++) {
                    const AbsVal &a = reg(m.args[j]);
                    if (a.taint.t)
                        leak(r, idx, IfChannel::Extern, a.taint.prov,
                             "argument " + std::to_string(j) +
                                 " of extern '" + m.callee + "'");
                }
            } else {
                switch (info->role) {
                case IfRole::SourceData:
                    v.taint.t = true;
                    break;
                case IfRole::SourcePtr:
                    v.ptr = Ptr::Ghost;
                    break;
                case IfRole::Declassifier:
                    // Result is sanctioned ciphertext: clean.
                    break;
                case IfRole::SinkPtr:
                    v.ptr = Ptr::Sink;
                    v.channel = info->channel;
                    [[fallthrough]];
                case IfRole::Sink:
                    for (size_t j = 0; j < m.args.size(); j++) {
                        const AbsVal &a = reg(m.args[j]);
                        if (a.taint.t)
                            leak(r, idx, info->channel, a.taint.prov,
                                 "argument " + std::to_string(j) +
                                     " of '" + m.callee + "'");
                    }
                    break;
                }
            }
            reg(defReg(m)) = v;
            break;
        }
        case MOp::CallDirect: {
            AbsVal v;
            auto it = _funcByEntry.find(m.imm);
            if (it != _funcByEntry.end()) {
                if (summarize)
                    v.taint = callInto(it->second->name, m, s);
                else
                    v.taint = calleeRet(it->second->name);
            }
            reg(defReg(m)) = v;
            break;
        }
        case MOp::CallInd:
        case MOp::CallIndChecked: {
            AbsVal v;
            for (const std::string &callee : _addressTaken) {
                if (summarize)
                    v.taint.join(callInto(callee, m, s));
                else
                    v.taint.join(calleeRet(callee));
            }
            reg(defReg(m)) = v;
            break;
        }
        case MOp::Ret:
        case MOp::CheckRet:
            if (summarize && m.a >= 0 && m.a < numRegs) {
                auto it = _summaries.find(r.info->name);
                if (it != _summaries.end())
                    _summariesChanged |=
                        it->second.ret.join(reg(m.a).taint);
            }
            break;
        case MOp::Jump:
        case MOp::JumpIfZero:
        case MOp::CfiLabel:
            break;
        default:
            break;
        }
    }

    Taint
    calleeRet(const std::string &name) const
    {
        auto it = _summaries.find(name);
        if (it == _summaries.end())
            return Taint{};
        Taint t = it->second.ret;
        if (t.t)
            t.prov |= kViaCall;
        return t;
    }

    /** Intra-function fixpoint from the entry summary.
     *  Reports findings/facts only when _collect/_facts are armed and
     *  @p summarize is false (the stable reporting pass). */
    void
    analyze(const FuncExtent &r, bool summarize)
    {
        // Fixpoint phase: no findings/facts. Collection is deferred
        // to a replay over the stable in-states below.
        IflowResult *savedCollect = _collect;
        IflowFacts *savedFacts = _facts;
        _collect = nullptr;
        _facts = nullptr;
        Flow<State> flow = forwardFlow(
            _img, r, entryState(r),
            [&](size_t idx, State &s) { transfer(r, idx, s, summarize); },
            [](State &into, const State &from) { return into.join(from); });
        _collect = savedCollect;
        _facts = savedFacts;

        if (_collect || _facts) {
            // Replay each reached instruction at its fixpoint
            // in-state, in address order, to emit findings and facts
            // deterministically.
            for (size_t i = 0; i < r.size(); i++) {
                if (!flow.reached[i])
                    continue;
                State state = flow.in[i];
                transfer(r, r.begin + i, state, false);
            }
        }
    }

    const MachineImage &_img;
    const std::vector<FuncExtent> _funcs;
    std::map<uint64_t, const FuncInfo *> _funcByEntry;
    std::set<std::string> _addressTaken;
    std::map<std::string, FuncSummary> _summaries;
    bool _summariesChanged = false;
    IflowResult *_collect = nullptr;
    IflowFacts *_facts = nullptr;
};

} // namespace

IflowResult
IflowVerifier::verify(const MachineImage &image,
                      IflowFacts *facts) const
{
    Analysis a(image);
    return a.run(facts);
}

} // namespace vg::cc
