#include "compiler/mcode.hh"

#include <algorithm>
#include <iterator>

namespace vg::cc
{

namespace
{

void
put64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        out.push_back(uint8_t(v >> (8 * i)));
}

void
putStr(std::vector<uint8_t> &out, const std::string &s)
{
    put64(out, s.size());
    out.insert(out.end(), s.begin(), s.end());
}

} // namespace

std::vector<uint8_t>
MachineImage::serializeForSigning() const
{
    std::vector<uint8_t> out;
    putStr(out, moduleName);
    put64(out, codeBase);
    put64(out, code.size());
    for (const MInst &m : code) {
        out.push_back(uint8_t(m.op));
        out.push_back(uint8_t(m.width));
        out.push_back(uint8_t(m.pred));
        put64(out, uint64_t(int64_t(m.dst)));
        put64(out, uint64_t(int64_t(m.a)));
        put64(out, uint64_t(int64_t(m.b)));
        put64(out, uint64_t(int64_t(m.c)));
        put64(out, m.imm);
        putStr(out, m.callee);
        put64(out, m.args.size());
        for (int arg : m.args)
            put64(out, uint64_t(int64_t(arg)));
    }
    put64(out, functions.size());
    for (const auto &[name, info] : functions) {
        putStr(out, name);
        put64(out, info.entryAddr);
        put64(out, info.frameBytes);
        put64(out, uint64_t(info.numParams));
        put64(out, uint64_t(info.numRegs));
    }
    out.push_back(instrumented ? 1 : 0);
    return out;
}

std::vector<FuncExtent>
functionExtents(const MachineImage &image)
{
    std::vector<FuncExtent> out;
    out.reserve(image.functions.size());
    for (const auto &[name, fi] : image.functions) {
        (void)name;
        size_t begin = image.indexOf(fi.entryAddr);
        if (begin != SIZE_MAX)
            out.push_back({&fi, begin, image.code.size()});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const FuncExtent &a, const FuncExtent &b) {
                         return a.begin < b.begin;
                     });
    for (size_t i = 0; i + 1 < out.size(); i++)
        out[i].end = out[i + 1].begin;
    return out;
}

const FuncExtent *
extentOf(const std::vector<FuncExtent> &extents, size_t idx)
{
    auto it = std::upper_bound(
        extents.begin(), extents.end(), idx,
        [](size_t i, const FuncExtent &e) { return i < e.begin; });
    if (it == extents.begin() || !std::prev(it)->contains(idx))
        return nullptr;
    return &*std::prev(it);
}

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

bool
isCallOp(MOp op)
{
    return op == MOp::CallDirect || op == MOp::CallExt ||
           op == MOp::CallInd || op == MOp::CallIndChecked;
}

int
successors(const MachineImage &image, const FuncExtent &extent,
           size_t idx, size_t succ[2])
{
    const MInst &m = image.code[idx];
    int cnt = 0;
    if (m.op == MOp::Ret || m.op == MOp::CheckRet)
        return 0;
    if (m.op == MOp::Jump || m.op == MOp::JumpIfZero) {
        size_t t = image.indexOf(m.imm);
        if (extent.contains(t))
            succ[cnt++] = t;
        if (m.op == MOp::Jump)
            return cnt;
    }
    if (idx + 1 < extent.end)
        succ[cnt++] = idx + 1;
    return cnt;
}

} // namespace vg::cc
