/**
 * @file
 * The simulated processor executing compiled machine images.
 *
 * Models native execution of translated kernel-module code. Memory
 * accesses go through a MemPort (implemented by the kernel over the
 * simulated MMU), external symbols resolve through an ExternTable (the
 * kernel API exported to modules), and the CFI-checked instructions
 * enforce label semantics — a violation terminates the run, exactly as
 * Virtual Ghost terminates a kernel thread whose control flow goes
 * astray (S 4.5).
 *
 * Fast-path engine: the Executor predecodes the image once at
 * construction into a dense index-addressed instruction array —
 * branch targets become array indices, direct-call targets become
 * FuncInfo pointers, extern callees and hot stat counters are interned
 * — so the per-instruction loop does no address arithmetic beyond one
 * bounds check, no string-keyed map lookup, and no per-frame heap
 * allocation (call frames are spans of one flat register stack that is
 * reused across runs).
 */

#ifndef VG_COMPILER_EXEC_HH
#define VG_COMPILER_EXEC_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "compiler/mcode.hh"
#include "sim/context.hh"

namespace vg::cc
{

/** Data-memory access interface for executing code. */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /** Read @p bytes (1/2/4/8) at @p va; false on fault. */
    virtual bool read(uint64_t va, unsigned bytes, uint64_t &out) = 0;

    /** Write @p bytes at @p va; false on fault. */
    virtual bool write(uint64_t va, unsigned bytes, uint64_t val) = 0;

    /** Bulk copy; false on fault. */
    virtual bool copy(uint64_t dst, uint64_t src, uint64_t len) = 0;
};

/** External (kernel API) function: args in, return value out. */
using ExternFn = std::function<uint64_t(const std::vector<uint64_t> &)>;

/** Symbol table the kernel exports to loaded modules. */
struct ExternTable
{
    std::map<std::string, ExternFn> fns;
};

/** Why execution stopped abnormally. */
enum class ExecFault
{
    None,
    CfiViolation,
    MemFault,
    BadInstruction,
    DivideByZero,
    FuelExhausted,
    UnknownExtern,
    StackOverflow,
    BadCallTarget,
};

/** Outcome of running a function. */
struct ExecResult
{
    bool ok = false;
    uint64_t value = 0;
    ExecFault fault = ExecFault::None;
    std::string detail;
    uint64_t instsExecuted = 0;
};

/** Human-readable fault name. */
const char *faultName(ExecFault fault);

/** Executes one image's code. */
class Executor
{
  public:
    /**
     * @param stack_base  lowest address of the module stack region
     * @param stack_size  bytes available for frames
     *
     * Predecodes the image and resolves extern callees against
     * @p externs; both must outlive the Executor, and extern entries
     * the image references must already be present.
     */
    Executor(const MachineImage &image, MemPort &mem,
             const ExternTable &externs, sim::SimContext &ctx,
             uint64_t stack_base, uint64_t stack_size);

    /** Invoke @p name with @p args; returns when it returns/faults. */
    ExecResult call(const std::string &name,
                    const std::vector<uint64_t> &args);

    /** Invoke a pre-resolved function of this image (hot dispatch
     *  path: no name lookup). */
    ExecResult call(const FuncInfo &fn,
                    const std::vector<uint64_t> &args);

    /** Invoke by entry address (SVA uses this for checked dispatch). */
    ExecResult callAddr(uint64_t entry_addr,
                        const std::vector<uint64_t> &args);

    /** Maximum instructions per invocation (default 50M). The budget
     *  counts modeled machine instructions (DInst cost, i.e. fused
     *  width), not dispatch iterations, and is never overshot: a
     *  dispatch whose cost would exceed the budget faults
     *  FuelExhausted before executing. */
    void setFuel(uint64_t fuel) { _fuel = fuel; }

  private:
    /** One predecoded instruction: operands by value, control-flow
     *  targets as array indices, callees as resolved pointers. */
    struct DInst
    {
        MOp op = MOp::ConstI;
        vir::Width width = vir::Width::I64;
        vir::CmpPred pred = vir::CmpPred::Eq;
        /** Machine instructions this dispatch models (fused ops >1). */
        uint8_t cost = 1;
        int32_t dst = -1;
        int32_t a = -1;
        int32_t b = -1;
        int32_t c = -1;
        uint64_t imm = 0;
        /** Decoded index: jump target / direct-callee entry. */
        uint32_t target = 0;
        /** Call argument registers: span of _argPool. */
        uint32_t argsOff = 0;
        uint32_t argsCnt = 0;
        /** Resolved direct callee (null = not a function entry). */
        const FuncInfo *fn = nullptr;
        /** Resolved extern (null = unresolved symbol). */
        const ExternFn *ext = nullptr;
    };

    /** One call frame: a span of the flat register stack. */
    struct FrameRec
    {
        const FuncInfo *fn = nullptr; ///< enclosing function
        uint32_t regBase = 0;         ///< first register in _regStack
        uint32_t retIdx = 0;          ///< decoded resume index
        int32_t callerDst = -1;
        uint64_t framePtr = 0;
    };

    const FuncInfo *funcAt(uint64_t entry_addr) const;
    ExecResult run(const FuncInfo &entry_fn,
                   const std::vector<uint64_t> &args);
    static ExecResult badTarget(std::string detail);

    /** Predecode every image instruction into _decoded. */
    void predecode();

    const MachineImage &_image;
    MemPort &_mem;
    const ExternTable &_externs;
    sim::SimContext &_ctx;
    uint64_t _stackBase;
    uint64_t _stackSize;
    uint64_t _fuel = 50'000'000;

    std::vector<DInst> _decoded;
    std::vector<int32_t> _argPool;
    /** Per-instruction-index FuncInfo for entry addresses (O(1)
     *  function lookup for indirect calls), null elsewhere. */
    std::vector<const FuncInfo *> _entryOf;

    /** Flat register stack + frame records, reused across runs (and
     *  used with stack discipline, so reentrant extern calls nest). */
    std::vector<uint64_t> _regStack;
    std::vector<FrameRec> _frames;

    sim::StatHandle _hInsts;
};

} // namespace vg::cc

#endif // VG_COMPILER_EXEC_HH
