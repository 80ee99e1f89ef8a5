#include <sstream>

#include "sim/log.hh"
#include "vir/text.hh"

namespace vg::vir
{

namespace
{

void
printInst(std::ostringstream &os, const Function &fn, const Inst &inst)
{
    auto reg = [](int r) {
        return sim::strprintf("%%%d", r);
    };
    auto label = [&](int t) {
        return fn.blocks[size_t(t)].name;
    };

    os << "  ";
    switch (inst.op) {
      case Opcode::ConstI:
        os << reg(inst.dst) << " = const " << inst.imm;
        break;
      case Opcode::Mov:
        os << reg(inst.dst) << " = mov " << reg(inst.a);
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::UDiv:
      case Opcode::URem:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::LShr:
      case Opcode::AShr:
        os << reg(inst.dst) << " = " << opcodeName(inst.op) << " "
           << reg(inst.a) << ", " << reg(inst.b);
        break;
      case Opcode::ICmp:
        os << reg(inst.dst) << " = icmp " << predName(inst.pred) << " "
           << reg(inst.a) << ", " << reg(inst.b);
        break;
      case Opcode::Load:
        os << reg(inst.dst) << " = load." << widthName(inst.width) << " "
           << reg(inst.a);
        break;
      case Opcode::Store:
        os << "store." << widthName(inst.width) << " " << reg(inst.a)
           << ", " << reg(inst.b);
        break;
      case Opcode::Memcpy:
        os << "memcpy " << reg(inst.a) << ", " << reg(inst.b) << ", "
           << reg(inst.c);
        break;
      case Opcode::Alloca:
        os << reg(inst.dst) << " = alloca " << inst.imm;
        break;
      case Opcode::Br:
        os << "br " << label(inst.target0);
        break;
      case Opcode::CondBr:
        os << "condbr " << reg(inst.a) << ", " << label(inst.target0)
           << ", " << label(inst.target1);
        break;
      case Opcode::Call:
      case Opcode::CallInd: {
        os << reg(inst.dst) << " = ";
        if (inst.op == Opcode::Call)
            os << "call @" << inst.callee << "(";
        else
            os << "callind " << reg(inst.a) << "(";
        for (size_t i = 0; i < inst.args.size(); i++) {
            if (i)
                os << ", ";
            os << reg(inst.args[i]);
        }
        os << ")";
        break;
      }
      case Opcode::FuncAddr:
        os << reg(inst.dst) << " = funcaddr @" << inst.callee;
        break;
      case Opcode::Ret:
        os << "ret";
        if (inst.a >= 0)
            os << " " << reg(inst.a);
        break;
    }
    os << "\n";
}

} // namespace

std::string
print(const Module &mod)
{
    std::ostringstream os;
    os << "module \"" << mod.name << "\"\n";
    for (const auto &fn : mod.functions) {
        os << "\nfunc @" << fn.name << "(" << fn.numParams << ") {\n";
        for (const auto &bb : fn.blocks) {
            os << bb.name << ":\n";
            for (const auto &inst : bb.insts)
                printInst(os, fn, inst);
        }
        os << "}\n";
    }
    return os.str();
}

} // namespace vg::vir
