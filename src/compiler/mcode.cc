#include "compiler/mcode.hh"

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

} // namespace vg::cc
