/**
 * @file
 * VIR containers: basic blocks, functions, modules.
 */

#ifndef VG_VIR_MODULE_HH
#define VG_VIR_MODULE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vir/inst.hh"

namespace vg::vir
{

/** A straight-line run of instructions ending in a terminator. */
struct BasicBlock
{
    std::string name;
    std::vector<Inst> insts;
};

/** A VIR function. */
struct Function
{
    std::string name;
    int numParams = 0;
    int numRegs = 0;
    std::vector<BasicBlock> blocks;

    /** Index of block @p name, or -1. */
    int
    blockIndex(const std::string &block_name) const
    {
        for (size_t i = 0; i < blocks.size(); i++) {
            if (blocks[i].name == block_name)
                return int(i);
        }
        return -1;
    }

    /** Total instruction count across all blocks. */
    size_t
    instCount() const
    {
        size_t n = 0;
        for (const auto &bb : blocks)
            n += bb.insts.size();
        return n;
    }
};

/** A translation unit: what a kernel module ships as. */
struct Module
{
    std::string name;
    std::vector<Function> functions;
};

} // namespace vg::vir

#endif // VG_VIR_MODULE_HH
