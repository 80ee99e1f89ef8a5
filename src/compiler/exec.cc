#include "compiler/exec.hh"

#include <cstdlib>

#include "compiler/translator.hh"
#include "hw/layout.hh"
#include "sim/log.hh"

namespace vg::cc
{

const char *
faultName(ExecFault fault)
{
    switch (fault) {
      case ExecFault::None:
        return "none";
      case ExecFault::CfiViolation:
        return "cfi-violation";
      case ExecFault::MemFault:
        return "memory-fault";
      case ExecFault::BadInstruction:
        return "bad-instruction";
      case ExecFault::DivideByZero:
        return "divide-by-zero";
      case ExecFault::FuelExhausted:
        return "fuel-exhausted";
      case ExecFault::UnknownExtern:
        return "unknown-extern";
      case ExecFault::StackOverflow:
        return "stack-overflow";
      case ExecFault::BadCallTarget:
        return "bad-call-target";
    }
    return "?";
}

Executor::Executor(const MachineImage &image, MemPort &mem,
                   const ExternTable &externs, sim::SimContext &ctx,
                   uint64_t stack_base, uint64_t stack_size)
    : _image(image), _mem(mem), _externs(externs), _ctx(ctx),
      _stackBase(stack_base), _stackSize(stack_size),
      _hInsts(ctx.stats().handle("exec.insts")), _img(&image)
{
    const size_t n = image.code.size();
    _entryOf.assign(n, nullptr);
    for (const auto &[name, info] : image.functions) {
        size_t idx = size_t((info.entryAddr - image.codeBase) /
                            mInstBytes);
        if (idx < n)
            _entryOf[idx] = &info;
    }
    _decoded.reserve(n);
    predecode(0);
}

void
Executor::predecode(size_t from)
{
    // One pass over the image, resolving everything that does not
    // depend on run-time values. Also run incrementally over the tail
    // of a freshly adopted spliced generation: earlier indices are
    // untouched, so existing decoded state stays valid.
    const MachineImage &image = *_img;
    const size_t n = image.code.size();
    for (size_t i = from; i < n; i++) {
        const MInst &m = image.code[i];
        DInst d;
        d.op = m.op;
        d.width = m.width;
        d.pred = m.pred;
        d.dst = m.dst;
        d.a = m.a;
        d.b = m.b;
        d.c = m.c;
        d.imm = m.imm;
        if (m.op == MOp::SandboxAddr)
            d.cost = uint8_t(sandboxMaskSeqLen);
        if (!m.args.empty()) {
            d.argsOff = uint32_t(_argPool.size());
            d.argsCnt = uint32_t(m.args.size());
            for (int r : m.args)
                _argPool.push_back(r);
        }
        switch (m.op) {
          case MOp::Jump:
          case MOp::JumpIfZero:
            // Codegen only emits in-image aligned targets; anything
            // else decodes to an index that always fails the bounds
            // check and faults as BadInstruction (UINT32_MAX rather
            // than the current size, which a later splice would turn
            // into a valid index).
            d.target = image.contains(m.imm)
                           ? uint32_t((m.imm - image.codeBase) /
                                      mInstBytes)
                           : UINT32_MAX;
            break;
          case MOp::CallDirect:
            d.fn = image.contains(m.imm)
                       ? _entryOf[size_t((m.imm - image.codeBase) /
                                         mInstBytes)]
                       : nullptr;
            if (d.fn)
                d.target = uint32_t((d.fn->entryAddr - image.codeBase) /
                                    mInstBytes);
            break;
          case MOp::CallExt: {
            auto it = _externs.fns.find(m.callee);
            if (it != _externs.fns.end())
                d.ext = &it->second;
            break;
          }
          default:
            break;
        }
        _decoded.push_back(d);
    }
}

const FuncInfo *
Executor::funcAt(uint64_t entry_addr) const
{
    if (!_img->contains(entry_addr))
        return nullptr;
    return _entryOf[size_t((entry_addr - _img->codeBase) / mInstBytes)];
}

void
Executor::enableTraceTier(Translator &translator)
{
    const sim::VgConfig &cfg = _ctx.config();
    if (!cfg.traceTier)
        return;
    if (const char *env = std::getenv("VG_DISABLE_TRACE_TIER");
        env && *env)
        return;
    _traceTr = &translator;
    _tier = true;
    _hotThreshold = cfg.traceHotThreshold;
    _traceMaxInsts = cfg.traceMaxInsts;
    _traceMaxPerImage = cfg.traceMaxPerImage;
    _origLen = uint32_t(_image.code.size());
    _hotCount.assign(_origLen, 0);
    _blacklist.assign(_origLen, 0);
    _traceIdx.assign(_origLen, -1);
    sim::StatSet &stats = _ctx.stats();
    _hTrExec = stats.handle("trace.executed");
    _hTrSide = stats.handle("trace.side_exits");
    _hTrInsts = stats.handle("trace.retired_insts");
}

void
Executor::profileAnchor(uint32_t anchor)
{
    if (_rec.active || anchor >= _origLen)
        return;
    if (_traceIdx[anchor] >= 0 || _blacklist[anchor])
        return;
    if (_traces.size() >= _traceMaxPerImage)
        return;
    if (++_hotCount[anchor] < _hotThreshold)
        return;
    _rec.active = true;
    _rec.anchorIdx = anchor;
    _rec.fn = _frames.empty() ? nullptr : _frames.back().fn;
    _rec.steps.clear();
}

bool
Executor::endRecording(bool loop, uint32_t contIdx)
{
    _rec.active = false;
    const uint32_t anchor = _rec.anchorIdx;
    if (anchor >= _origLen)
        return false;
    // Loop traces of any length pay for themselves every iteration;
    // linear cuts need a few instructions to be worth the redirect.
    if (!_rec.fn || _rec.steps.empty() ||
        (!loop && _rec.steps.size() < 4)) {
        _blacklist[anchor] = 1;
        return false;
    }
    TraceRequest req;
    req.home = _rec.fn->name;
    req.anchorAddr = _img->codeBase + uint64_t(anchor) * mInstBytes;
    req.loop = loop;
    req.contAddr =
        loop ? 0 : _img->codeBase + uint64_t(contIdx) * mInstBytes;
    req.steps = std::move(_rec.steps);
    TranslateResult r = _traceTr->spliceTrace(*_img, req);
    if (!r.ok) {
        _blacklist[anchor] = 1;
        _ctx.stats().add("trace.rejected");
        return false;
    }
    adoptSpliced(r.image, anchor, loop, contIdx);
    return true;
}

void
Executor::adoptSpliced(std::shared_ptr<const MachineImage> image,
                       uint32_t anchorIdx, bool loop, uint32_t contIdx)
{
    const size_t oldN = _decoded.size();
    _gens.push_back(std::move(image));
    _img = _gens.back().get();
    const TraceInfo &t = _img->traces.back();
    const size_t head =
        size_t((t.entryAddr - _img->codeBase) / mInstBytes);

    _entryOf.resize(_img->code.size(), nullptr);
    auto fit = _img->functions.find(t.name);
    if (fit != _img->functions.end() && head < _entryOf.size())
        _entryOf[head] = &fit->second;
    predecode(oldN);
    // Dispatch glue (synthesized head label, side-exit stubs, closing
    // jump) models zero machine work, keeping retired-instruction and
    // cycle counts bit-identical with the interpreter.
    for (uint32_t off : t.freeOffs)
        if (head + off < _decoded.size())
            _decoded[head + off].cost = 0;

    TraceRt rt;
    rt.head = uint32_t(head);
    rt.len = t.length;
    rt.contIdx = loop ? UINT32_MAX : contIdx;
    for (size_t i = head; i < head + t.length && i < _decoded.size();
         i++)
        rt.iterCost += _decoded[i].cost;
    compileTrace(rt);
    _traces.push_back(std::move(rt));
    _traceIdx[anchorIdx] = int32_t(_traces.size() - 1);
    _ctx.stats().add("trace.formed");
}

namespace
{

/** ICmp semantics, shared by the micro-op runner. */
uint64_t
cmpEval(vir::CmpPred pred, uint64_t a, uint64_t b)
{
    int64_t sa = int64_t(a), sb = int64_t(b);
    switch (pred) {
      case vir::CmpPred::Eq:
        return a == b;
      case vir::CmpPred::Ne:
        return a != b;
      case vir::CmpPred::Ult:
        return a < b;
      case vir::CmpPred::Ule:
        return a <= b;
      case vir::CmpPred::Ugt:
        return a > b;
      case vir::CmpPred::Uge:
        return a >= b;
      case vir::CmpPred::Slt:
        return sa < sb;
      case vir::CmpPred::Sle:
        return sa <= sb;
      case vir::CmpPred::Sgt:
        return sa > sb;
      case vir::CmpPred::Sge:
        return sa >= sb;
    }
    return 0;
}

} // namespace

void
Executor::compileTrace(TraceRt &t)
{
    // Lower the verified block into superinstruction micro-ops. The
    // recorded path is straight-line: in-block control flow is either
    // a transfer to the head (iteration close) or a short forward skip
    // over a zero-cost side-exit stub, so per-iteration cost/cycle
    // prefix sums are exact on every path through the block.
    const size_t head = t.head;
    const size_t end = head + t.len;
    std::vector<uint8_t> isTarget(t.len, 0);
    for (size_t i = head; i < end; i++) {
        const DInst &m = _decoded[i];
        if ((m.op == MOp::Jump || m.op == MOp::JumpIfZero) &&
            m.target >= head && m.target < end)
            isTarget[m.target - head] = 1;
    }

    auto isArith = [](MOp op) {
        switch (op) {
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
            return true;
          default:
            return false;
        }
    };

    // µop start index for each block instruction (fusion seconds stay
    // UINT32_MAX; they are never branch targets by construction).
    std::vector<uint32_t> uidx(t.len, UINT32_MAX);
    std::vector<uint8_t> hasFusedJump;

    size_t i = head;
    while (i < end) {
        const DInst &m = _decoded[i];
        UOp u;
        u.pred = m.pred;
        u.w1 = uint8_t(vir::widthBytes(m.width));
        u.c1 = m.cost;
        u.dst = m.dst;
        u.a = m.a;
        u.b = m.b;
        u.c = m.c;
        u.imm = m.imm;
        size_t used = 1;
        // Candidate fusion partner: the next instruction, unless some
        // in-block branch can land on it.
        const DInst *n = (i + 1 < end && !isTarget[i + 1 - head])
                             ? &_decoded[i + 1]
                             : nullptr;
        switch (m.op) {
          case MOp::ConstI:
            u.kind = UOp::K::Const;
            if (n && isArith(n->op) && n->b == m.dst &&
                n->a != m.dst &&
                !((n->op == MOp::UDiv || n->op == MOp::URem) &&
                  m.imm == 0)) {
                u.kind = UOp::K::ArithImm;
                u.op2 = n->op;
                u.dst2 = n->dst;
                u.a2 = n->a;
                u.c2 = n->cost;
                used = 2;
            }
            break;
          case MOp::Mov:
            u.kind = UOp::K::Mov;
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
            u.kind = UOp::K::Arith;
            u.op2 = m.op;
            break;
          case MOp::ICmp:
            u.kind = UOp::K::ICmp;
            if (n && n->op == MOp::JumpIfZero && n->a == m.dst) {
                u.kind = UOp::K::CmpBranch;
                u.c2 = n->cost;
                u.target = n->target;
                used = 2;
            }
            break;
          case MOp::SandboxAddr:
            u.kind = UOp::K::Sandbox;
            if (n && n->op == MOp::Load && n->a == m.dst) {
                u.kind = UOp::K::MaskLoad;
                u.dst2 = n->dst;
                u.w2 = uint8_t(vir::widthBytes(n->width));
                u.c2 = n->cost;
                used = 2;
            } else if (n && n->op == MOp::Store && n->a == m.dst) {
                u.kind = UOp::K::MaskStore;
                u.b2 = n->b;
                u.w2 = uint8_t(vir::widthBytes(n->width));
                u.c2 = n->cost;
                used = 2;
            }
            break;
          case MOp::FrameAddr:
            u.kind = UOp::K::FrameAddr;
            if (n && n->op == MOp::SandboxAddr && n->a == m.dst) {
                u.kind = UOp::K::FrameMask;
                u.dst2 = n->dst;
                u.c2 = n->cost;
                used = 2;
            } else if (n && n->op == MOp::Load && n->a == m.dst) {
                u.kind = UOp::K::FrameLoad;
                u.dst2 = n->dst;
                u.w2 = uint8_t(vir::widthBytes(n->width));
                u.c2 = n->cost;
                used = 2;
            } else if (n && n->op == MOp::Store && n->a == m.dst) {
                u.kind = UOp::K::FrameStore;
                u.b2 = n->b;
                u.w2 = uint8_t(vir::widthBytes(n->width));
                u.c2 = n->cost;
                used = 2;
            }
            break;
          case MOp::Load:
            u.kind = UOp::K::Load;
            break;
          case MOp::Store:
            u.kind = UOp::K::Store;
            if (n && n->op == MOp::Load) {
                u.kind = UOp::K::StoreLoad;
                u.dst2 = n->dst;
                u.a2 = n->a;
                u.w2 = uint8_t(vir::widthBytes(n->width));
                u.c2 = n->cost;
                u.e1 = 1; // store's success cycle, charged pre-load
                used = 2;
            }
            break;
          case MOp::Memcpy:
            u.kind = UOp::K::Memcpy;
            break;
          case MOp::Jump:
            u.kind = UOp::K::Jump;
            u.target = m.target;
            break;
          case MOp::JumpIfZero:
            u.kind = UOp::K::JumpIfZero;
            u.target = m.target;
            break;
          case MOp::CfiLabel:
            u.kind = UOp::K::Nop;
            break;
          default:
            // The verifier proves traces are call-free (VG-TR-03);
            // anything else here means the image was not re-proved —
            // the runner faults on it.
            u.kind = UOp::K::Bad;
            break;
        }

        // Fold a trailing unconditional jump into any non-branching
        // micro-op: the common back-edge costs no extra dispatch.
        bool fusedJump = false;
        if (u.kind != UOp::K::Jump && u.kind != UOp::K::JumpIfZero &&
            u.kind != UOp::K::CmpBranch && i + used < end &&
            !isTarget[i + used - head] &&
            _decoded[i + used].op == MOp::Jump) {
            u.next = _decoded[i + used].target;
            u.cj = _decoded[i + used].cost;
            fusedJump = true;
            used++;
        }

        uidx[i - head] = uint32_t(t.uops.size());
        t.uops.push_back(u);
        hasFusedJump.push_back(fusedJump ? 1 : 0);
        i += used;
    }

    // Resolve successors: in-block targets become µop indices, others
    // stay decoded indices with the exit flag set (the interpreter's
    // bounds check handles even a corrupt UINT32_MAX sentinel).
    auto resolve = [&](uint32_t dec, uint32_t &outIdx, bool &exits) {
        if (dec >= head && dec < end && uidx[dec - head] != UINT32_MAX) {
            outIdx = uidx[dec - head];
            exits = false;
        } else {
            outIdx = dec;
            exits = true;
        }
    };
    for (size_t j = 0; j < t.uops.size(); j++) {
        UOp &u = t.uops[j];
        if (hasFusedJump[j]) {
            resolve(u.next, u.next, u.nextExits);
        } else if (u.kind == UOp::K::Jump) {
            resolve(u.target, u.target, u.targetExits);
        } else {
            u.next = uint32_t(j + 1);
            u.nextExits = j + 1 == t.uops.size();
            if (u.nextExits)
                u.next = uint32_t(end); // verified blocks end in a jump
        }
        if (u.kind == UOp::K::JumpIfZero || u.kind == UOp::K::CmpBranch)
            resolve(u.target, u.target, u.targetExits);
    }

    // Per-iteration prefix sums: modeled instructions and static
    // cycles (dispatch costs plus the fixed success cycle of each
    // load/store; memcpy's length term stays dynamic).
    auto staticExtra = [](const UOp &u) -> uint64_t {
        switch (u.kind) {
          case UOp::K::Load:
          case UOp::K::Store:
          case UOp::K::MaskLoad:
          case UOp::K::MaskStore:
          case UOp::K::FrameLoad:
          case UOp::K::FrameStore:
            return 1;
          case UOp::K::StoreLoad:
            return 2;
          default:
            return 0;
        }
    };
    uint32_t insts = 0;
    uint64_t cycles = 0;
    for (UOp &u : t.uops) {
        u.instsBefore = insts;
        u.cyclesBefore = cycles;
        insts += uint32_t(u.c1) + u.c2 + u.cj;
        cycles += uint64_t(u.c1) + u.c2 + u.cj + staticExtra(u);
        u.instsAfter = insts;
        u.cyclesAfter = cycles;
    }
    t.iterCycles = cycles;
}

size_t
Executor::runTraceBlock(uint32_t ti, ExecResult &result)
{
    // Threaded execution of one superinstruction block over its
    // compiled micro-ops. Traces contain no calls (VG-TR-03), so the
    // frame, register window and frame pointer are loop invariants
    // hoisted out of the dispatch. The hot loop does no bookkeeping:
    // retired instructions and cycles are reconstructed at the exit
    // from the iteration count and the exit micro-op's prefix sums
    // (commutative sums, so totals are bit-identical with
    // per-instruction accounting).
    const TraceRt &t = _traces[ti];
    const UOp *ops = t.uops.data();
    sim::Clock &clock = _ctx.clock();
    uint64_t *regs = _regStack.data() + _frames.back().regBase;
    const uint64_t framePtr = _frames.back().framePtr;
    const uint64_t bulk = _ctx.costs().bulkBytesPerCycle;
    const uint64_t budget = _fuel - result.instsExecuted;
    uint64_t iters = 0; ///< completed iterations (head re-entries)
    uint64_t dyn = 0;   ///< dynamic (memcpy length) cycles
    sim::StatSet::add(_hTrExec, 1);

    auto reg = [&](int32_t r) -> uint64_t {
        return r < 0 ? 0 : regs[uint32_t(r)];
    };
    auto set = [&](int32_t r, uint64_t v) {
        if (r >= 0)
            regs[uint32_t(r)] = v;
    };
    auto flush = [&](uint64_t insts, uint64_t cycles) {
        result.instsExecuted += insts;
        clock.advance(cycles + dyn);
        sim::StatSet::add(_hTrInsts, insts);
    };
    auto fault = [&](ExecFault kind, const std::string &detail,
                     uint32_t insts, uint64_t cycles) {
        result.fault = kind;
        result.detail = detail;
        _ctx.stats().add(std::string("exec.fault.") + faultName(kind));
        flush(iters * t.iterCost + insts, iters * t.iterCycles + cycles);
    };
    auto leave = [&](const UOp &u, uint32_t dec) -> size_t {
        flush(iters * t.iterCost + u.instsAfter,
              iters * t.iterCycles + u.cyclesAfter);
        if (dec != t.contIdx)
            sim::StatSet::add(_hTrSide, 1);
        return dec;
    };
    // Per-iteration fuel pre-check: every in-block transfer is forward
    // or to the head, so checking once per head entry can never admit
    // an unfueled pass. When the remaining budget cannot cover a full
    // pass, bail to the interpreter, which retires the block
    // instruction by instruction and faults at exactly the right
    // count.
    auto bail = [&]() -> size_t {
        flush(iters * t.iterCost, iters * t.iterCycles);
        return t.head;
    };

    if ((iters + 1) * t.iterCost > budget)
        return bail();
    size_t pc = 0;
    for (;;) {
        const UOp &u = ops[pc];
        switch (u.kind) {
          case UOp::K::Nop:
            break;
          case UOp::K::Const:
            set(u.dst, u.imm);
            break;
          case UOp::K::Mov:
            set(u.dst, reg(u.a));
            break;
          case UOp::K::Arith: {
            uint64_t a = reg(u.a), b = reg(u.b), v = 0;
            switch (u.op2) {
              case MOp::Add:
                v = a + b;
                break;
              case MOp::Sub:
                v = a - b;
                break;
              case MOp::Mul:
                v = a * b;
                break;
              case MOp::UDiv:
              case MOp::URem:
                if (b == 0) {
                    fault(ExecFault::DivideByZero, "division by zero",
                          u.instsBefore + u.c1, u.cyclesBefore + u.c1);
                    return SIZE_MAX;
                }
                v = u.op2 == MOp::UDiv ? a / b : a % b;
                break;
              case MOp::And:
                v = a & b;
                break;
              case MOp::Or:
                v = a | b;
                break;
              case MOp::Xor:
                v = a ^ b;
                break;
              case MOp::Shl:
                v = a << (b & 63);
                break;
              case MOp::LShr:
                v = a >> (b & 63);
                break;
              case MOp::AShr:
                v = uint64_t(int64_t(a) >> (b & 63));
                break;
              default:
                break;
            }
            set(u.dst, v);
            break;
          }
          case UOp::K::ArithImm: {
            // ConstI + arith consuming it: both architectural writes
            // happen, one dispatch. Fusion excluded zero divisors.
            set(u.dst, u.imm);
            uint64_t a = reg(u.a2), v = 0;
            switch (u.op2) {
              case MOp::Add:
                v = a + u.imm;
                break;
              case MOp::Sub:
                v = a - u.imm;
                break;
              case MOp::Mul:
                v = a * u.imm;
                break;
              case MOp::UDiv:
                v = a / u.imm;
                break;
              case MOp::URem:
                v = a % u.imm;
                break;
              case MOp::And:
                v = a & u.imm;
                break;
              case MOp::Or:
                v = a | u.imm;
                break;
              case MOp::Xor:
                v = a ^ u.imm;
                break;
              case MOp::Shl:
                v = a << (u.imm & 63);
                break;
              case MOp::LShr:
                v = a >> (u.imm & 63);
                break;
              case MOp::AShr:
                v = uint64_t(int64_t(a) >> (u.imm & 63));
                break;
              default:
                break;
            }
            set(u.dst2, v);
            break;
          }
          case UOp::K::ICmp:
            set(u.dst, cmpEval(u.pred, reg(u.a), reg(u.b)));
            break;
          case UOp::K::CmpBranch: {
            uint64_t v = cmpEval(u.pred, reg(u.a), reg(u.b));
            set(u.dst, v);
            if (v == 0) {
                if (u.targetExits)
                    return leave(u, u.target);
                pc = u.target;
                if (pc == 0) {
                    iters++;
                    if ((iters + 1) * t.iterCost > budget)
                        return bail();
                }
                continue;
            }
            break;
          }
          case UOp::K::Sandbox:
            set(u.dst, hw::sandboxAddress(reg(u.a)));
            break;
          case UOp::K::FrameAddr:
            set(u.dst, framePtr + u.imm);
            break;
          case UOp::K::FrameMask: {
            uint64_t fa = framePtr + u.imm;
            set(u.dst, fa);
            set(u.dst2, hw::sandboxAddress(fa));
            break;
          }
          case UOp::K::Load: {
            uint64_t v = 0;
            if (!_mem.read(reg(u.a), u.w1, v)) {
                fault(ExecFault::MemFault,
                      sim::strprintf("load fault at %#lx",
                                     (unsigned long)reg(u.a)),
                      u.instsBefore + u.c1, u.cyclesBefore + u.c1);
                return SIZE_MAX;
            }
            set(u.dst, v);
            break;
          }
          case UOp::K::Store:
            if (!_mem.write(reg(u.a), u.w1, reg(u.b))) {
                fault(ExecFault::MemFault,
                      sim::strprintf("store fault at %#lx",
                                     (unsigned long)reg(u.a)),
                      u.instsBefore + u.c1, u.cyclesBefore + u.c1);
                return SIZE_MAX;
            }
            break;
          case UOp::K::MaskLoad: {
            uint64_t addr = hw::sandboxAddress(reg(u.a));
            set(u.dst, addr);
            uint64_t v = 0;
            if (!_mem.read(addr, u.w2, v)) {
                fault(ExecFault::MemFault,
                      sim::strprintf("load fault at %#lx",
                                     (unsigned long)addr),
                      u.instsBefore + u.c1 + u.c2,
                      u.cyclesBefore + u.c1 + u.c2);
                return SIZE_MAX;
            }
            set(u.dst2, v);
            break;
          }
          case UOp::K::MaskStore: {
            uint64_t addr = hw::sandboxAddress(reg(u.a));
            set(u.dst, addr);
            if (!_mem.write(addr, u.w2, reg(u.b2))) {
                fault(ExecFault::MemFault,
                      sim::strprintf("store fault at %#lx",
                                     (unsigned long)addr),
                      u.instsBefore + u.c1 + u.c2,
                      u.cyclesBefore + u.c1 + u.c2);
                return SIZE_MAX;
            }
            break;
          }
          case UOp::K::FrameLoad: {
            uint64_t fa = framePtr + u.imm;
            set(u.dst, fa);
            uint64_t v = 0;
            if (!_mem.read(fa, u.w2, v)) {
                fault(ExecFault::MemFault,
                      sim::strprintf("load fault at %#lx",
                                     (unsigned long)fa),
                      u.instsBefore + u.c1 + u.c2,
                      u.cyclesBefore + u.c1 + u.c2);
                return SIZE_MAX;
            }
            set(u.dst2, v);
            break;
          }
          case UOp::K::FrameStore: {
            uint64_t fa = framePtr + u.imm;
            set(u.dst, fa);
            if (!_mem.write(fa, u.w2, reg(u.b2))) {
                fault(ExecFault::MemFault,
                      sim::strprintf("store fault at %#lx",
                                     (unsigned long)fa),
                      u.instsBefore + u.c1 + u.c2,
                      u.cyclesBefore + u.c1 + u.c2);
                return SIZE_MAX;
            }
            break;
          }
          case UOp::K::StoreLoad:
            if (!_mem.write(reg(u.a), u.w1, reg(u.b))) {
                fault(ExecFault::MemFault,
                      sim::strprintf("store fault at %#lx",
                                     (unsigned long)reg(u.a)),
                      u.instsBefore + u.c1, u.cyclesBefore + u.c1);
                return SIZE_MAX;
            }
            {
                uint64_t v = 0;
                if (!_mem.read(reg(u.a2), u.w2, v)) {
                    fault(ExecFault::MemFault,
                          sim::strprintf("load fault at %#lx",
                                         (unsigned long)reg(u.a2)),
                          u.instsBefore + u.c1 + u.c2,
                          u.cyclesBefore + u.c1 + u.c2 + u.e1);
                    return SIZE_MAX;
                }
                set(u.dst2, v);
            }
            break;
          case UOp::K::Memcpy: {
            uint64_t len = reg(u.c);
            if (!_mem.copy(reg(u.a), reg(u.b), len)) {
                fault(ExecFault::MemFault, "memcpy fault",
                      u.instsBefore + u.c1, u.cyclesBefore + u.c1);
                return SIZE_MAX;
            }
            dyn += len / bulk + 1;
            break;
          }
          case UOp::K::Jump:
            if (u.targetExits)
                return leave(u, u.target);
            pc = u.target;
            if (pc == 0) {
                iters++;
                if ((iters + 1) * t.iterCost > budget)
                    return bail();
            }
            continue;
          case UOp::K::JumpIfZero:
            if (reg(u.a) == 0) {
                if (u.targetExits)
                    return leave(u, u.target);
                pc = u.target;
                if (pc == 0) {
                    iters++;
                    if ((iters + 1) * t.iterCost > budget)
                        return bail();
                }
                continue;
            }
            break;
          case UOp::K::Bad:
            fault(ExecFault::BadInstruction,
                  "op not allowed in a trace block", u.instsBefore,
                  u.cyclesBefore);
            return SIZE_MAX;
        }
        if (u.nextExits)
            return leave(u, u.next);
        pc = u.next;
        if (pc == 0) {
            iters++;
            if ((iters + 1) * t.iterCost > budget)
                return bail();
        }
    }
}

ExecResult
Executor::badTarget(std::string detail)
{
    ExecResult r;
    r.fault = ExecFault::BadCallTarget;
    r.detail = std::move(detail);
    return r;
}

ExecResult
Executor::call(const std::string &name, const std::vector<uint64_t> &args)
{
    auto it = _image.functions.find(name);
    if (it == _image.functions.end())
        return badTarget("no such function " + name);
    return run(it->second, args);
}

ExecResult
Executor::call(const FuncInfo &fn, const std::vector<uint64_t> &args)
{
    return run(fn, args);
}

ExecResult
Executor::callAddr(uint64_t entry_addr, const std::vector<uint64_t> &args)
{
    const FuncInfo *info = funcAt(entry_addr);
    if (!info)
        return badTarget(sim::strprintf("no function at %#lx",
                                        (unsigned long)entry_addr));
    return run(*info, args);
}

ExecResult
Executor::run(const FuncInfo &entry_fn, const std::vector<uint64_t> &args)
{
    ExecResult result;
    // Not const: adopting a spliced trace generation mid-run (directly
    // or through a reentrant extern) reallocates _decoded.
    const DInst *code = _decoded.data();
    size_t code_len = _decoded.size();
    sim::Clock &clock = _ctx.clock();

    // Stack discipline over the shared frame/register pools makes the
    // engine reentrant (an extern may call back into this Executor).
    const size_t frame_floor = _frames.size();
    const size_t reg_floor = _regStack.size();
    uint64_t sp = _stackBase + _stackSize;
    std::vector<uint64_t> ext_args; // reused for every CallExt this run

    auto byte_addr = [&](size_t idx) {
        return _img->codeBase + idx * mInstBytes;
    };

    auto push_frame = [&](const FuncInfo &fn, uint32_t ret_idx,
                          int32_t caller_dst) -> bool {
        if (fn.frameBytes + 4096 > sp - _stackBase)
            return false;
        sp -= fn.frameBytes;
        FrameRec fr;
        fr.fn = &fn;
        fr.regBase = uint32_t(_regStack.size());
        fr.retIdx = ret_idx;
        fr.callerDst = caller_dst;
        fr.framePtr = sp;
        // resize() value-initializes the new elements, so a recycled
        // span starts zeroed exactly like a fresh register file.
        _regStack.resize(_regStack.size() +
                             size_t(std::max(fn.numRegs, 1)),
                         0);
        _frames.push_back(fr);
        return true;
    };

    if (!push_frame(entry_fn, 0, -1)) {
        result.fault = ExecFault::StackOverflow;
        return result;
    }
    for (size_t i = 0;
         i < args.size() && i < size_t(entry_fn.numParams); i++)
        _regStack[_frames.back().regBase + i] = args[i];

    size_t pc = size_t((entry_fn.entryAddr - _img->codeBase) /
                       mInstBytes);
    if (_tier)
        profileAnchor(uint32_t(pc));

    auto fault = [&](ExecFault kind, const std::string &detail) {
        result.fault = kind;
        result.detail = detail;
        _ctx.stats().add(std::string("exec.fault.") + faultName(kind));
    };

    // Return from the current frame; true if the whole run finished.
    auto do_return = [&](uint64_t value, bool checked) -> bool {
        FrameRec done = _frames.back();
        _frames.pop_back();
        _regStack.resize(done.regBase);
        sp += done.fn->frameBytes;
        if (_frames.size() == frame_floor) {
            result.ok = true;
            result.value = value;
            return true;
        }
        if (checked) {
            // Validate the CFI label at the return site.
            clock.advance(_ctx.costs().cfiPerTransfer);
            if (done.retIdx >= code_len ||
                code[done.retIdx].op != MOp::CfiLabel ||
                code[done.retIdx].imm != cfiLabelValue) {
                fault(ExecFault::CfiViolation,
                      "return to unlabeled site");
                return true;
            }
        }
        if (done.callerDst >= 0)
            _regStack[_frames.back().regBase +
                      uint32_t(done.callerDst)] = value;
        pc = done.retIdx;
        return false;
    };

    // Enter a resolved callee, copying argument registers from the
    // caller's frame straight into the callee's (no temporary vector).
    auto enter_call = [&](const FuncInfo *callee, uint64_t target_addr,
                          uint32_t args_off, uint32_t args_cnt,
                          uint32_t ret_idx, int32_t dst) -> bool {
        if (!callee) {
            fault(ExecFault::BadCallTarget,
                  sim::strprintf("call to %#lx which is not a function "
                                 "entry",
                                 (unsigned long)target_addr));
            return false;
        }
        uint32_t caller_base = _frames.back().regBase;
        if (!push_frame(*callee, ret_idx, dst)) {
            fault(ExecFault::StackOverflow, "module stack exhausted");
            return false;
        }
        uint32_t callee_base = _frames.back().regBase;
        uint32_t n = std::min(args_cnt, uint32_t(callee->numParams));
        for (uint32_t i = 0; i < n; i++) {
            int32_t r = _argPool[args_off + i];
            _regStack[callee_base + i] =
                r < 0 ? 0 : _regStack[caller_base + uint32_t(r)];
        }
        pc = size_t((callee->entryAddr - _img->codeBase) / mInstBytes);
        if (_tier)
            profileAnchor(uint32_t(pc));
        return true;
    };

    while (true) {
        // Hot anchors with a formed trace dispatch into the
        // superinstruction runner (never while recording: the recorder
        // must observe the original instruction stream).
        if (_tier && !_rec.active) {
            while (pc < _traceIdx.size() && _traceIdx[pc] >= 0)
                pc = runTraceBlock(uint32_t(_traceIdx[pc]), result);
            if (pc == SIZE_MAX)
                break; // runner faulted; result already filled in
        }
        if (pc >= code_len) {
            fault(ExecFault::BadInstruction,
                  sim::strprintf("pc %#lx outside code",
                                 (unsigned long)byte_addr(pc)));
            break;
        }
        if (_tier && _rec.active && !traceableOp(code[pc].op)) {
            // A call or return ends the recorded path before it runs
            // (an extern may reenter this Executor; its dispatches
            // must not interleave into this recording).
            if (endRecording(false, uint32_t(pc))) {
                code = _decoded.data();
                code_len = _decoded.size();
            }
        }
        const DInst &m = code[pc];
        const MOp op = m.op;
        // The budget counts modeled machine instructions and is never
        // overshot: a fused/spliced dispatch that would exceed it
        // faults before executing.
        if (result.instsExecuted + m.cost > _fuel) {
            fault(ExecFault::FuelExhausted, "instruction budget spent");
            break;
        }
        result.instsExecuted += m.cost;
        clock.advance(m.cost);

        uint64_t *regs = _regStack.data() + _frames.back().regBase;
        auto reg = [&](int32_t r) -> uint64_t {
            return r < 0 ? 0 : regs[uint32_t(r)];
        };
        auto set = [&](int32_t r, uint64_t v) {
            if (r >= 0)
                regs[uint32_t(r)] = v;
        };

        size_t next_pc = pc + 1;
        bool stop = false;

        switch (m.op) {
          case MOp::ConstI:
            set(m.dst, m.imm);
            break;
          case MOp::Mov:
            set(m.dst, reg(m.a));
            break;
          case MOp::Add:
            set(m.dst, reg(m.a) + reg(m.b));
            break;
          case MOp::Sub:
            set(m.dst, reg(m.a) - reg(m.b));
            break;
          case MOp::Mul:
            set(m.dst, reg(m.a) * reg(m.b));
            break;
          case MOp::UDiv:
          case MOp::URem: {
            uint64_t d = reg(m.b);
            if (d == 0) {
                fault(ExecFault::DivideByZero, "division by zero");
                stop = true;
                break;
            }
            set(m.dst, m.op == MOp::UDiv ? reg(m.a) / d
                                         : reg(m.a) % d);
            break;
          }
          case MOp::And:
            set(m.dst, reg(m.a) & reg(m.b));
            break;
          case MOp::Or:
            set(m.dst, reg(m.a) | reg(m.b));
            break;
          case MOp::Xor:
            set(m.dst, reg(m.a) ^ reg(m.b));
            break;
          case MOp::Shl:
            set(m.dst, reg(m.a) << (reg(m.b) & 63));
            break;
          case MOp::LShr:
            set(m.dst, reg(m.a) >> (reg(m.b) & 63));
            break;
          case MOp::AShr:
            set(m.dst,
                uint64_t(int64_t(reg(m.a)) >> (reg(m.b) & 63)));
            break;
          case MOp::ICmp: {
            uint64_t a = reg(m.a), b = reg(m.b);
            int64_t sa = int64_t(a), sb = int64_t(b);
            bool v = false;
            switch (m.pred) {
              case vir::CmpPred::Eq:
                v = a == b;
                break;
              case vir::CmpPred::Ne:
                v = a != b;
                break;
              case vir::CmpPred::Ult:
                v = a < b;
                break;
              case vir::CmpPred::Ule:
                v = a <= b;
                break;
              case vir::CmpPred::Ugt:
                v = a > b;
                break;
              case vir::CmpPred::Uge:
                v = a >= b;
                break;
              case vir::CmpPred::Slt:
                v = sa < sb;
                break;
              case vir::CmpPred::Sle:
                v = sa <= sb;
                break;
              case vir::CmpPred::Sgt:
                v = sa > sb;
                break;
              case vir::CmpPred::Sge:
                v = sa >= sb;
                break;
            }
            set(m.dst, v ? 1 : 0);
            break;
          }
          case MOp::SandboxAddr:
            // Fused ghost/SVA masking sequence; bit-identical to the
            // 13-instruction form sandboxPass emits (see peephole.cc).
            set(m.dst, hw::sandboxAddress(reg(m.a)));
            break;
          case MOp::Load: {
            uint64_t v = 0;
            if (!_mem.read(reg(m.a), unsigned(widthBytes(m.width)),
                           v)) {
                fault(ExecFault::MemFault,
                      sim::strprintf("load fault at %#lx",
                                     (unsigned long)reg(m.a)));
                stop = true;
                break;
            }
            clock.advance(1);
            set(m.dst, v);
            break;
          }
          case MOp::Store:
            if (!_mem.write(reg(m.a), unsigned(widthBytes(m.width)),
                            reg(m.b))) {
                fault(ExecFault::MemFault,
                      sim::strprintf("store fault at %#lx",
                                     (unsigned long)reg(m.a)));
                stop = true;
                break;
            }
            clock.advance(1);
            break;
          case MOp::Memcpy: {
            uint64_t len = reg(m.c);
            if (!_mem.copy(reg(m.a), reg(m.b), len)) {
                fault(ExecFault::MemFault, "memcpy fault");
                stop = true;
                break;
            }
            clock.advance(len / _ctx.costs().bulkBytesPerCycle + 1);
            break;
          }
          case MOp::FrameAddr:
            set(m.dst, _frames.back().framePtr + m.imm);
            break;
          case MOp::Jump:
            next_pc = m.target;
            break;
          case MOp::JumpIfZero:
            if (reg(m.a) == 0)
                next_pc = m.target;
            break;
          case MOp::CallDirect:
            if (!enter_call(m.fn, m.imm, m.argsOff, m.argsCnt,
                            uint32_t(next_pc), m.dst))
                stop = true;
            if (!stop)
                continue;
            break;
          case MOp::CallInd:
          case MOp::CallIndChecked: {
            uint64_t target = reg(m.a);
            if (m.op == MOp::CallIndChecked) {
                clock.advance(_ctx.costs().cfiPerTransfer);
                // Mask the target out of user space (paper: the CFI
                // check "masks the target address to ensure that it is
                // not a user-space address").
                target |= hw::kernelBase;
                const DInst *at_target =
                    _img->contains(target)
                        ? &code[size_t((target - _img->codeBase) /
                                       mInstBytes)]
                        : nullptr;
                if (!at_target || at_target->op != MOp::CfiLabel ||
                    at_target->imm != cfiLabelValue) {
                    fault(ExecFault::CfiViolation,
                          sim::strprintf("indirect call to %#lx "
                                         "without label",
                                         (unsigned long)target));
                    stop = true;
                    break;
                }
            }
            if (!enter_call(funcAt(target), target, m.argsOff,
                            m.argsCnt, uint32_t(next_pc), m.dst))
                stop = true;
            if (!stop)
                continue;
            break;
          }
          case MOp::CallExt: {
            if (!m.ext) {
                fault(ExecFault::UnknownExtern,
                      "unresolved symbol " + _img->code[pc].callee);
                stop = true;
                break;
            }
            ext_args.clear();
            ext_args.reserve(m.argsCnt);
            for (uint32_t i = 0; i < m.argsCnt; i++)
                ext_args.push_back(reg(_argPool[m.argsOff + i]));
            clock.advance(2);
            const ExternFn *ext = m.ext;
            const int32_t ext_dst = m.dst;
            uint64_t v = (*ext)(ext_args);
            // The extern may have re-entered this Executor, growing
            // the register stack or splicing a new trace generation
            // that reallocated the decoded array (m dangles past this
            // point); refresh every pointer into them.
            code = _decoded.data();
            code_len = _decoded.size();
            regs = _regStack.data() + _frames.back().regBase;
            set(ext_dst, v);
            break;
          }
          case MOp::Ret:
          case MOp::CheckRet: {
            uint64_t value = m.a >= 0 ? reg(m.a) : 0;
            if (do_return(value, m.op == MOp::CheckRet))
                stop = true;
            if (!stop)
                continue;
            break;
          }
          case MOp::CfiLabel:
            // Executes as a no-op (an x86 prefetch-style label).
            break;
        }

        if (stop)
            break;
        if (_tier) {
            if (_rec.active) {
                TraceStep s;
                s.idx = uint32_t(pc);
                // m is only dereferenced for jump ops, which cannot
                // have invalidated the decoded array this dispatch.
                s.taken = op == MOp::Jump ||
                          (op == MOp::JumpIfZero &&
                           next_pc == m.target);
                _rec.steps.push_back(s);
                bool formed = false;
                if (next_pc == _rec.anchorIdx)
                    formed = endRecording(true, 0);
                else if (_rec.steps.size() >= _traceMaxInsts)
                    formed = endRecording(false, uint32_t(next_pc));
                if (formed) {
                    code = _decoded.data();
                    code_len = _decoded.size();
                }
            } else if ((op == MOp::Jump || op == MOp::JumpIfZero) &&
                       next_pc < pc) {
                // Taken backward branch: a loop back edge.
                profileAnchor(uint32_t(next_pc));
            }
        }
        pc = next_pc;
    }

    // A recording interrupted by a fault or the entry function's
    // return dies with the run (never spliced, never blacklisted).
    _rec.active = false;
    _frames.resize(frame_floor);
    _regStack.resize(reg_floor);
    sim::StatSet::add(_hInsts, result.instsExecuted);
    return result;
}

} // namespace vg::cc
