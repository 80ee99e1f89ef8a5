#include "vir/builder.hh"

#include "sim/log.hh"

namespace vg::vir
{

Function &
IrBuilder::beginFunction(const std::string &name, int num_params)
{
    _mod.functions.push_back({});
    _fn = &_mod.functions.back();
    _fn->name = name;
    _fn->numParams = num_params;
    _fn->numRegs = num_params;
    _blockIndex = -1;
    return *_fn;
}

int
IrBuilder::newReg()
{
    if (!_fn)
        sim::panic("IrBuilder: no current function");
    return _fn->numRegs++;
}

int
IrBuilder::makeBlock(const std::string &name)
{
    if (!_fn)
        sim::panic("IrBuilder: no current function");
    _fn->blocks.push_back({name, {}});
    return int(_fn->blocks.size()) - 1;
}

void
IrBuilder::setInsertPoint(int index)
{
    if (!_fn || index < 0 || size_t(index) >= _fn->blocks.size())
        sim::panic("IrBuilder: bad insert point %d", index);
    _blockIndex = index;
}

void
IrBuilder::append(Inst inst)
{
    if (!_fn || _blockIndex < 0)
        sim::panic("IrBuilder: no insert point");
    _fn->blocks[size_t(_blockIndex)].insts.push_back(std::move(inst));
}

int
IrBuilder::constI(uint64_t value)
{
    Inst i;
    i.op = Opcode::ConstI;
    i.dst = newReg();
    i.imm = value;
    append(i);
    return i.dst;
}

int
IrBuilder::binop(Opcode op, int a, int b)
{
    Inst i;
    i.op = op;
    i.dst = newReg();
    i.a = a;
    i.b = b;
    append(i);
    return i.dst;
}

int
IrBuilder::icmp(CmpPred pred, int a, int b)
{
    Inst i;
    i.op = Opcode::ICmp;
    i.pred = pred;
    i.dst = newReg();
    i.a = a;
    i.b = b;
    append(i);
    return i.dst;
}

int
IrBuilder::allocaOp(uint64_t bytes)
{
    Inst i;
    i.op = Opcode::Alloca;
    i.dst = newReg();
    i.imm = bytes;
    append(i);
    return i.dst;
}

void
IrBuilder::condBr(int cond, int then_target, int else_target)
{
    Inst i;
    i.op = Opcode::CondBr;
    i.a = cond;
    i.target0 = then_target;
    i.target1 = else_target;
    append(i);
}

void
IrBuilder::ret(int value)
{
    Inst i;
    i.op = Opcode::Ret;
    i.a = value;
    append(i);
}

} // namespace vg::vir
