#include "compiler/exec.hh"

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
      _hInsts(ctx.stats().handle("exec.insts"))
{
    const size_t n = image.code.size();
    _entryOf.assign(n, nullptr);
    for (const auto &[name, info] : image.functions) {
        size_t idx = image.indexOf(info.entryAddr);
        if (idx != SIZE_MAX)
            _entryOf[idx] = &info;
    }
    _decoded.reserve(n);
    predecode();
}

void
Executor::predecode()
{
    // One pass over the image, resolving everything that does not
    // depend on run-time values.
    const MachineImage &image = _image;
    for (size_t i = 0; i < image.code.size(); i++) {
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
          case MOp::JumpIfZero: {
            // Codegen only emits in-image aligned targets; anything
            // else decodes to an index that always fails the bounds
            // check and faults as BadInstruction.
            size_t t = image.indexOf(m.imm);
            d.target = t == SIZE_MAX ? UINT32_MAX : uint32_t(t);
            break;
          }
          case MOp::CallDirect:
            d.fn = funcAt(m.imm);
            if (d.fn)
                d.target = uint32_t(image.indexOf(d.fn->entryAddr));
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
    size_t idx = _image.indexOf(entry_addr);
    return idx == SIZE_MAX ? nullptr : _entryOf[idx];
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
    const DInst *const code = _decoded.data();
    const size_t code_len = _decoded.size();
    sim::Clock &clock = _ctx.clock();

    // Stack discipline over the shared frame/register pools makes the
    // engine reentrant (an extern may call back into this Executor).
    const size_t frame_floor = _frames.size();
    const size_t reg_floor = _regStack.size();
    uint64_t sp = _stackBase + _stackSize;
    std::vector<uint64_t> ext_args; // reused for every CallExt this run

    auto byte_addr = [&](size_t idx) {
        return _image.codeBase + idx * mInstBytes;
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

    size_t pc = size_t((entry_fn.entryAddr - _image.codeBase) /
                       mInstBytes);

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
        pc = size_t((callee->entryAddr - _image.codeBase) / mInstBytes);
        return true;
    };

    while (true) {
        if (pc >= code_len) {
            fault(ExecFault::BadInstruction,
                  sim::strprintf("pc %#lx outside code",
                                 (unsigned long)byte_addr(pc)));
            break;
        }
        const DInst &m = code[pc];
        // The budget counts modeled machine instructions and is never
        // overshot: a fused dispatch that would exceed it
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
                size_t t = _image.indexOf(target);
                const DInst *at_target = t == SIZE_MAX ? nullptr : &code[t];
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
                      "unresolved symbol " + _image.code[pc].callee);
                stop = true;
                break;
            }
            ext_args.clear();
            ext_args.reserve(m.argsCnt);
            for (uint32_t i = 0; i < m.argsCnt; i++)
                ext_args.push_back(reg(_argPool[m.argsOff + i]));
            clock.advance(2);
            uint64_t v = (*m.ext)(ext_args);
            // The extern may have re-entered this Executor and grown
            // the register stack; refresh the frame pointer into it.
            regs = _regStack.data() + _frames.back().regBase;
            set(m.dst, v);
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
        pc = next_pc;
    }

    _frames.resize(frame_floor);
    _regStack.resize(reg_floor);
    sim::StatSet::add(_hInsts, result.instsExecuted);
    return result;
}

} // namespace vg::cc
