#include <cctype>
#include <sstream>

#include "vir/text.hh"

namespace vg::vir
{

namespace
{

/** Cursor over one line of VIR text. */
class LineParser
{
  public:
    explicit LineParser(const std::string &line) : _line(line) {}

    void
    skipSpace()
    {
        while (_pos < _line.size() &&
               std::isspace(uint8_t(_line[_pos])))
            _pos++;
    }

    /** Consume a literal string if present. */
    bool
    eat(const std::string &token)
    {
        skipSpace();
        if (_line.compare(_pos, token.size(), token) == 0) {
            _pos += token.size();
            return true;
        }
        return false;
    }

    /** Parse an identifier [A-Za-z0-9_.]+. */
    bool
    ident(std::string &out)
    {
        skipSpace();
        size_t start = _pos;
        while (_pos < _line.size() &&
               (std::isalnum(uint8_t(_line[_pos])) ||
                _line[_pos] == '_' || _line[_pos] == '.'))
            _pos++;
        if (_pos == start)
            return false;
        out = _line.substr(start, _pos - start);
        return true;
    }

    /** Parse %N. */
    bool
    reg(int &out)
    {
        skipSpace();
        if (_pos >= _line.size() || _line[_pos] != '%')
            return false;
        _pos++;
        size_t start = _pos;
        while (_pos < _line.size() && std::isdigit(uint8_t(_line[_pos])))
            _pos++;
        if (_pos == start)
            return false;
        out = std::stoi(_line.substr(start, _pos - start));
        return true;
    }

    /** Parse a decimal or 0x-hex immediate. */
    bool
    immediate(uint64_t &out)
    {
        skipSpace();
        size_t start = _pos;
        int base = 10;
        if (_line.compare(_pos, 2, "0x") == 0) {
            base = 16;
            _pos += 2;
            start = _pos;
        }
        while (_pos < _line.size() &&
               (std::isdigit(uint8_t(_line[_pos])) ||
                (base == 16 && std::isxdigit(uint8_t(_line[_pos])))))
            _pos++;
        if (_pos == start)
            return false;
        out = std::stoull(_line.substr(start, _pos - start), nullptr,
                          base);
        return true;
    }

  private:
    const std::string &_line;
    size_t _pos = 0;
};

/** Strip comments and surrounding whitespace. */
std::string
cleanLine(const std::string &raw)
{
    std::string line = raw;
    size_t comment = line.find(';');
    if (comment != std::string::npos)
        line.resize(comment);
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    size_t end = line.find_last_not_of(" \t\r");
    return line.substr(begin, end - begin + 1);
}

struct Parser
{
    ParseResult result;
    Function *fn = nullptr;
    int line_no = 0;

    void
    fail(const std::string &what)
    {
        if (result.error.empty())
            result.error =
                "line " + std::to_string(line_no) + ": " + what;
    }

    void
    trackRegs(const Inst &inst)
    {
        auto grow = [&](int r) {
            if (r >= fn->numRegs)
                fn->numRegs = r + 1;
        };
        grow(inst.dst);
        grow(inst.a);
        grow(inst.b);
        grow(inst.c);
        for (int arg : inst.args)
            grow(arg);
    }

    bool
    parseArgs(LineParser &lp, Inst &inst)
    {
        if (!lp.eat("("))
            return false;
        if (lp.eat(")"))
            return true;
        while (true) {
            int r;
            if (!lp.reg(r))
                return false;
            inst.args.push_back(r);
            if (lp.eat(")"))
                return true;
            if (!lp.eat(","))
                return false;
        }
    }

    /** Parse "opcode operands" after an optional "%d =" prefix. */
    bool
    parseInst(const std::string &line)
    {
        LineParser lp(line);
        Inst inst;

        int dst = -1;
        {
            // Look ahead for "%d =".
            LineParser probe(line);
            int r;
            if (probe.reg(r) && probe.eat("=")) {
                dst = r;
                lp.reg(r);
                lp.eat("=");
            }
        }

        std::string op;
        if (!lp.ident(op)) {
            fail("expected opcode");
            return false;
        }

        // Split width suffix for load/store.
        Width width = Width::I64;
        size_t dot = op.find('.');
        std::string base_op = op;
        if (dot != std::string::npos) {
            base_op = op.substr(0, dot);
            std::string w = op.substr(dot + 1);
            if (w == "i8")
                width = Width::I8;
            else if (w == "i16")
                width = Width::I16;
            else if (w == "i32")
                width = Width::I32;
            else if (w == "i64")
                width = Width::I64;
            else {
                fail("bad width suffix ." + w);
                return false;
            }
        }

        inst.dst = dst;
        inst.width = width;

        auto need_reg = [&](int &out) {
            if (!lp.reg(out)) {
                fail("expected register operand");
                return false;
            }
            return true;
        };
        auto need_comma = [&]() {
            if (!lp.eat(",")) {
                fail("expected ','");
                return false;
            }
            return true;
        };

        static const std::pair<const char *, Opcode> binops[] = {
            {"add", Opcode::Add},   {"sub", Opcode::Sub},
            {"mul", Opcode::Mul},   {"udiv", Opcode::UDiv},
            {"urem", Opcode::URem}, {"and", Opcode::And},
            {"or", Opcode::Or},     {"xor", Opcode::Xor},
            {"shl", Opcode::Shl},   {"lshr", Opcode::LShr},
            {"ashr", Opcode::AShr},
        };

        if (base_op == "const") {
            inst.op = Opcode::ConstI;
            if (!lp.immediate(inst.imm)) {
                fail("expected immediate");
                return false;
            }
        } else if (base_op == "mov") {
            inst.op = Opcode::Mov;
            if (!need_reg(inst.a))
                return false;
        } else if (base_op == "icmp") {
            inst.op = Opcode::ICmp;
            std::string pred;
            if (!lp.ident(pred)) {
                fail("expected icmp predicate");
                return false;
            }
            static const std::pair<const char *, CmpPred> preds[] = {
                {"eq", CmpPred::Eq},   {"ne", CmpPred::Ne},
                {"ult", CmpPred::Ult}, {"ule", CmpPred::Ule},
                {"ugt", CmpPred::Ugt}, {"uge", CmpPred::Uge},
                {"slt", CmpPred::Slt}, {"sle", CmpPred::Sle},
                {"sgt", CmpPred::Sgt}, {"sge", CmpPred::Sge},
            };
            bool found = false;
            for (const auto &[name, p] : preds) {
                if (pred == name) {
                    inst.pred = p;
                    found = true;
                    break;
                }
            }
            if (!found) {
                fail("bad predicate " + pred);
                return false;
            }
            if (!need_reg(inst.a) || !need_comma() || !need_reg(inst.b))
                return false;
        } else if (base_op == "load") {
            inst.op = Opcode::Load;
            if (!need_reg(inst.a))
                return false;
        } else if (base_op == "store") {
            inst.op = Opcode::Store;
            if (!need_reg(inst.a) || !need_comma() || !need_reg(inst.b))
                return false;
        } else if (base_op == "memcpy") {
            inst.op = Opcode::Memcpy;
            if (!need_reg(inst.a) || !need_comma() ||
                !need_reg(inst.b) || !need_comma() || !need_reg(inst.c))
                return false;
        } else if (base_op == "alloca") {
            inst.op = Opcode::Alloca;
            if (!lp.immediate(inst.imm)) {
                fail("expected alloca size");
                return false;
            }
        } else if (base_op == "br") {
            inst.op = Opcode::Br;
            std::string label;
            if (!lp.ident(label)) {
                fail("expected branch label");
                return false;
            }
            inst.callee = label; // resolved to an index later
        } else if (base_op == "condbr") {
            inst.op = Opcode::CondBr;
            if (!need_reg(inst.a) || !need_comma())
                return false;
            std::string l0, l1;
            if (!lp.ident(l0) || !lp.eat(",") || !lp.ident(l1)) {
                fail("expected two labels");
                return false;
            }
            inst.callee = l0 + "," + l1;
        } else if (base_op == "call") {
            inst.op = Opcode::Call;
            if (!lp.eat("@")) {
                fail("expected @symbol");
                return false;
            }
            if (!lp.ident(inst.callee)) {
                fail("expected callee name");
                return false;
            }
            if (!parseArgs(lp, inst)) {
                fail("bad argument list");
                return false;
            }
        } else if (base_op == "callind") {
            inst.op = Opcode::CallInd;
            if (!need_reg(inst.a))
                return false;
            if (!parseArgs(lp, inst)) {
                fail("bad argument list");
                return false;
            }
        } else if (base_op == "funcaddr") {
            inst.op = Opcode::FuncAddr;
            if (!lp.eat("@")) {
                fail("expected @symbol");
                return false;
            }
            if (!lp.ident(inst.callee)) {
                fail("expected function name");
                return false;
            }
        } else if (base_op == "ret") {
            inst.op = Opcode::Ret;
            int r;
            if (lp.reg(r))
                inst.a = r;
        } else {
            bool found = false;
            for (const auto &[name, opcode] : binops) {
                if (base_op == name) {
                    inst.op = opcode;
                    found = true;
                    break;
                }
            }
            if (!found) {
                fail("unknown opcode " + base_op);
                return false;
            }
            if (!need_reg(inst.a) || !need_comma() || !need_reg(inst.b))
                return false;
        }

        if (fn->blocks.empty()) {
            fail("instruction before any block label");
            return false;
        }
        trackRegs(inst);
        fn->blocks.back().insts.push_back(std::move(inst));
        return true;
    }

    /** Resolve label names stashed in `callee` into block indices. */
    bool
    resolveLabels()
    {
        for (auto &bb : fn->blocks) {
            for (auto &inst : bb.insts) {
                if (inst.op == Opcode::Br) {
                    inst.target0 = fn->blockIndex(inst.callee);
                    if (inst.target0 < 0) {
                        fail("unknown label " + inst.callee);
                        return false;
                    }
                    inst.callee.clear();
                } else if (inst.op == Opcode::CondBr) {
                    size_t comma = inst.callee.find(',');
                    std::string l0 = inst.callee.substr(0, comma);
                    std::string l1 = inst.callee.substr(comma + 1);
                    inst.target0 = fn->blockIndex(l0);
                    inst.target1 = fn->blockIndex(l1);
                    if (inst.target0 < 0 || inst.target1 < 0) {
                        fail("unknown label in condbr");
                        return false;
                    }
                    inst.callee.clear();
                }
            }
        }
        return true;
    }
};

} // namespace

ParseResult
parse(const std::string &text)
{
    Parser p;
    std::istringstream is(text);
    std::string raw;

    while (std::getline(is, raw)) {
        p.line_no++;
        std::string line = cleanLine(raw);
        if (line.empty())
            continue;

        if (line.rfind("module", 0) == 0) {
            size_t q1 = line.find('"');
            size_t q2 = line.rfind('"');
            if (q1 != std::string::npos && q2 > q1)
                p.result.module.name = line.substr(q1 + 1, q2 - q1 - 1);
            continue;
        }

        if (line.rfind("func", 0) == 0) {
            LineParser lp(line);
            lp.eat("func");
            if (!lp.eat("@")) {
                p.fail("expected @name after func");
                break;
            }
            std::string name;
            if (!lp.ident(name)) {
                p.fail("expected function name");
                break;
            }
            uint64_t nparams = 0;
            if (!lp.eat("(") || !lp.immediate(nparams) || !lp.eat(")")) {
                p.fail("expected (NPARAMS)");
                break;
            }
            if (!lp.eat("{")) {
                p.fail("expected '{'");
                break;
            }
            p.result.module.functions.push_back({});
            p.fn = &p.result.module.functions.back();
            p.fn->name = name;
            p.fn->numParams = int(nparams);
            p.fn->numRegs = int(nparams);
            continue;
        }

        if (line == "}") {
            if (!p.fn) {
                p.fail("'}' outside function");
                break;
            }
            if (!p.resolveLabels())
                break;
            p.fn = nullptr;
            continue;
        }

        if (!p.fn) {
            p.fail("statement outside function: " + line);
            break;
        }

        if (line.back() == ':') {
            std::string label = line.substr(0, line.size() - 1);
            p.fn->blocks.push_back({label, {}});
            continue;
        }

        if (!p.parseInst(line))
            break;
    }

    if (p.fn && p.result.error.empty())
        p.fail("unterminated function " + p.fn->name);

    p.result.ok = p.result.error.empty();
    return p.result;
}

} // namespace vg::vir
