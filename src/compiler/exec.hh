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
 *
 * Trace tier (VgConfig::traceTier): above the predecoded interpreter,
 * lightweight profiling counters on taken backward jumps and function
 * entries detect hot anchors. A hot anchor's next pass is recorded and
 * handed to Translator::spliceTrace, which lays the path out as a
 * superinstruction block appended to the image, re-proves the whole
 * spliced image with the machine-code verifier and re-signs it. The
 * Executor then redirects dispatch at the anchor into a threaded-code
 * runner. At adoption the verified block is compiled once more, into
 * a private micro-op array: adjacent instructions fuse into single
 * dispatches (mask+access, const+arith, compare+branch, trailing
 * jumps) and per-instruction cost bookkeeping becomes precomputed
 * prefix sums, so the hot loop does no accounting at all — counts and
 * cycles are reconstructed exactly at side exits and faults.
 * Architectural state, instruction counts, cycle counts and exec.*
 * stats are bit-identical with the tier off: fused micro-ops perform
 * every architectural write of their constituent instructions, blocks
 * are verbatim copies of the recorded path (glue instructions carry
 * cost 0) and clock/stat updates are commutative sums.
 */

#ifndef VG_COMPILER_EXEC_HH
#define VG_COMPILER_EXEC_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/mcode.hh"
#include "compiler/trace.hh"
#include "sim/context.hh"

namespace vg::cc
{

class Translator;

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
     *  width / trace retired count), not dispatch iterations, and is
     *  never overshot: a dispatch whose cost would exceed the budget
     *  faults FuelExhausted before executing. */
    void setFuel(uint64_t fuel) { _fuel = fuel; }

    /**
     * Turn on the trace tier, forming superinstruction blocks through
     * @p translator (which re-verifies and re-signs every spliced
     * image; must outlive the Executor). No-op when
     * VgConfig::traceTier is off or the VG_DISABLE_TRACE_TIER
     * environment variable is set — execution then stays purely
     * interpreted.
     */
    void enableTraceTier(Translator &translator);

    /** Image currently executed: the base image, or the newest
     *  verified + re-signed spliced generation. */
    const MachineImage &currentImage() const { return *_img; }

    /** Number of superinstruction traces formed so far. */
    uint64_t tracesFormed() const { return _traces.size(); }

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

    /**
     * One superinstruction micro-op: one or more adjacent trace
     * instructions fused into a single dispatch. Fused micro-ops
     * perform every architectural register write of their constituent
     * instructions, and carry precomputed per-iteration cost/cycle
     * prefixes so the hot loop does no per-instruction bookkeeping —
     * exact totals are reconstructed at exits and faults.
     */
    struct UOp
    {
        enum class K : uint8_t
        {
            Nop,        ///< CfiLabel
            Bad,        ///< op a verified trace can never contain
            Const, Mov, Arith, ICmp, Sandbox, FrameAddr,
            Load, Store, Memcpy, Jump, JumpIfZero,
            // Fused pairs.
            ArithImm,   ///< ConstI + arith reading it
            CmpBranch,  ///< ICmp + JumpIfZero on its result
            MaskLoad,   ///< SandboxAddr + Load through the mask
            MaskStore,  ///< SandboxAddr + Store through the mask
            FrameMask,  ///< FrameAddr + SandboxAddr of it
            FrameLoad,  ///< FrameAddr + Load from it
            FrameStore, ///< FrameAddr + Store to it
            StoreLoad,  ///< adjacent Store then Load
        };
        K kind = K::Nop;
        MOp op2 = MOp::ConstI; ///< sub-op selector for Arith/ArithImm
        vir::CmpPred pred = vir::CmpPred::Eq;
        uint8_t w1 = 8, w2 = 8; ///< access widths in bytes
        uint8_t c1 = 0, c2 = 0, cj = 0; ///< sub-op + fused-jump costs
        uint8_t e1 = 0; ///< success cycle extra of the first access
        bool nextExits = false;   ///< next is a decoded index (exit)
        bool targetExits = false; ///< target is a decoded index (exit)
        int32_t dst = -1, a = -1, b = -1, c = -1;
        int32_t dst2 = -1, a2 = -1, b2 = -1; ///< second sub-op operands
        uint64_t imm = 0;
        uint32_t next = 0;   ///< fallthrough / fused-jump successor
        uint32_t target = 0; ///< branch-taken successor
        /** Per-iteration prefixes (exclusive / inclusive of this µop;
         *  inclusive cycles count success extras). */
        uint32_t instsBefore = 0, instsAfter = 0;
        uint64_t cyclesBefore = 0, cyclesAfter = 0;
    };

    /** Runtime descriptor of one formed superinstruction block. */
    struct TraceRt
    {
        uint32_t head = 0;    ///< decoded index of the block's first inst
        uint32_t len = 0;     ///< block length in instructions
        uint32_t contIdx = UINT32_MAX; ///< linear continuation (side-exit
                                       ///< stat: exits elsewhere count)
        uint64_t iterCost = 0; ///< cost sum of the whole block (fuel
                               ///< pre-check bound per iteration)
        uint64_t iterCycles = 0; ///< static cycle sum per iteration
        std::vector<UOp> uops; ///< compiled superinstruction form
    };

    /** In-flight hot-path recording. */
    struct RecState
    {
        bool active = false;
        uint32_t anchorIdx = 0;
        const FuncInfo *fn = nullptr;
        std::vector<TraceStep> steps;
    };

    const FuncInfo *funcAt(uint64_t entry_addr) const;
    ExecResult run(const FuncInfo &entry_fn,
                   const std::vector<uint64_t> &args);
    static ExecResult badTarget(std::string detail);

    /** Predecode image instructions [from, end) into _decoded. */
    void predecode(size_t from);

    /** Bump the profiling counter at @p anchor; may start recording. */
    void profileAnchor(uint32_t anchor);

    /** Close the active recording: splice (loop trace, or linear trace
     *  continuing at @p contIdx) or blacklist. True when a new spliced
     *  generation was adopted (callers must refresh decoded-array
     *  pointers). */
    bool endRecording(bool loop, uint32_t contIdx);

    /** Adopt a freshly verified spliced image as the current
     *  generation and register its newest trace block. */
    void adoptSpliced(std::shared_ptr<const MachineImage> image,
                      uint32_t anchorIdx, bool loop, uint32_t contIdx);

    /** Compile trace @p t's decoded block into its micro-op form
     *  (operand resolution, pair fusion, cost prefix sums). */
    void compileTrace(TraceRt &t);

    /** Superinstruction runner: execute block @p ti from its head until
     *  a side exit, fuel bailout or fault. Returns the decoded index to
     *  resume interpretation at, or SIZE_MAX when the run must stop
     *  (result.fault is set). */
    size_t runTraceBlock(uint32_t ti, ExecResult &result);

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

    /** Current image: &_image until a splice is adopted. */
    const MachineImage *_img;
    /** Spliced generations, retained so FuncInfo/extern pointers into
     *  earlier images stay valid. */
    std::vector<std::shared_ptr<const MachineImage>> _gens;

    // Trace tier (all inert until enableTraceTier()).
    bool _tier = false;
    Translator *_traceTr = nullptr;
    uint32_t _origLen = 0;          ///< base-image instruction count
    uint32_t _hotThreshold = 50;
    size_t _traceMaxInsts = 512;
    size_t _traceMaxPerImage = 64;
    std::vector<uint32_t> _hotCount;  ///< per-anchor profiling counters
    std::vector<uint8_t> _blacklist;  ///< anchors that failed to splice
    std::vector<int32_t> _traceIdx;   ///< anchor idx -> _traces index
    std::vector<TraceRt> _traces;
    RecState _rec;
    sim::StatHandle _hTrExec = nullptr;
    sim::StatHandle _hTrSide = nullptr;
    sim::StatHandle _hTrInsts = nullptr;
};

} // namespace vg::cc

#endif // VG_COMPILER_EXEC_HH
