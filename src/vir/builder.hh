/**
 * @file
 * Convenience builder for constructing VIR in C++. Tests use it for
 * small hand-built functions and for the random straight-line modules
 * of the differential sweeps. Every shipped module, the rootkit of S 7
 * (src/attacks/rootkit.cc) included, is written as VIR text and parsed.
 */

#ifndef VG_VIR_BUILDER_HH
#define VG_VIR_BUILDER_HH

#include <string>

#include "vir/module.hh"

namespace vg::vir
{

/** Appends instructions to a function under construction. */
class IrBuilder
{
  public:
    explicit IrBuilder(Module &mod) : _mod(mod) {}

    /** Start a new function; parameters occupy %0..%num_params-1. */
    Function &beginFunction(const std::string &name, int num_params);

    /** Allocate a fresh virtual register in the current function. */
    int newReg();

    /** Create a new basic block and return its index. */
    int makeBlock(const std::string &name);

    /** Direct subsequent instructions into block @p index. */
    void setInsertPoint(int index);

    // --- Instruction helpers (each returns the dst register) ---------
    int constI(uint64_t value);
    int binop(Opcode op, int a, int b);
    int add(int a, int b) { return binop(Opcode::Add, a, b); }
    int mul(int a, int b) { return binop(Opcode::Mul, a, b); }
    int icmp(CmpPred pred, int a, int b);
    /** Not `alloca`: glibc's <alloca.h> defines a function-like macro
     *  of that name, which would rename the member. */
    int allocaOp(uint64_t bytes);
    void condBr(int cond, int then_target, int else_target);
    void ret(int value = -1);
    void retVoid() { ret(-1); }

  private:
    void append(Inst inst);

    Module &_mod;
    Function *_fn = nullptr;
    int _blockIndex = -1;
};

} // namespace vg::vir

#endif // VG_VIR_BUILDER_HH
