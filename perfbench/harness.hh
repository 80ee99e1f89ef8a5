/**
 * @file
 * Outside-in measurement harness for the Virtual Ghost simulator.
 *
 * The benchmark never reaches inside src/: it times calls into each
 * layer's public functions (System construction and boot, module load,
 * runProcess, UserApi calls made by its own process bodies, the app
 * drivers, the swap calls) and reads StatSet deltas and per-vCPU
 * clocks at the same boundaries. Every figure uses one of two clocks:
 * host wall time (steady_clock) or simulated cycles.
 */

#ifndef VG_PERFBENCH_HARNESS_HH
#define VG_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "kernel/system.hh"
#include "sim/interleave.hh"

namespace vgb
{

using namespace vg;

/** Host seconds since the process started measuring. */
double hostNow();

/** @p n bytes drawn from @p rng, for the seeded workload inputs. */
std::vector<uint8_t> randomBytes(sim::SplitMix64 &rng, uint64_t n);

/** Fisher-Yates shuffle of @p v driven by @p rng. */
template <class T>
void
shuffle(sim::SplitMix64 &rng, std::vector<T> &v)
{
    for (size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** One timed call into a layer. Spans of one unit of work share req. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    uint32_t id = 0;
    uint32_t parent = 0;
    uint64_t req = 0;
    uint32_t rep = 0;
};

/** Host and simulated cost of one UserApi call made by a benchmark
 *  body. */
struct CallSample
{
    uint64_t hostNs = 0;
    uint64_t simCycles = 0;
};

/**
 * In-memory span recorder. Spans are opened and closed from the
 * harness thread and from simulated processes' host threads; the
 * kernel baton runs one of them at a time, and a mutex orders the
 * recorder's own state. Nothing is recorded while disabled.
 */
class Tracer
{
  public:
    bool enabled() const { return _on; }
    void setEnabled(bool on) { _on = on; }
    void setRep(uint32_t rep) { _rep = rep; }

    /** Parent of spans opened on a thread with no open span of its
     *  own (the simulated processes): the current machine's span. */
    void setRoot(uint32_t id) { _root = id; }

    /** Open a span; returns 0 when tracing is off. */
    uint32_t open(const std::string &name, uint64_t req = 0);
    void close(uint32_t id);

    void sample(const std::string &call, CallSample s);

    const std::vector<Span> &spans() const { return _spans; }

    /** Samples recorded since the last take, by call type. */
    std::map<std::string, std::vector<CallSample>> takeSamples();

  private:
    bool _on = false;
    uint32_t _rep = 0;
    uint32_t _root = 0;
    std::mutex _mu;
    std::vector<Span> _spans;
    std::map<std::string, std::vector<CallSample>> _samples;
};

/** RAII span that always measures its host duration and records a
 *  span only while tracing. */
class Timed
{
  public:
    Timed(Tracer &tr, const std::string &name, uint64_t req = 0)
        : _tr(tr), _id(tr.open(name, req)), _t0(hostNow())
    {}
    ~Timed() { stop(); }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    /** Close the span (once) and return its host seconds. */
    double
    stop()
    {
        if (!_stopped) {
            _elapsed = hostNow() - _t0;
            _tr.close(_id);
            _stopped = true;
        }
        return _elapsed;
    }

    uint32_t id() const { return _id; }

  private:
    Tracer &_tr;
    uint32_t _id;
    double _t0;
    double _elapsed = 0;
    bool _stopped = false;
};

enum class Side
{
    Native,
    Vg
};

/** Everything measured about one simulated machine's life. */
struct MachineRecord
{
    std::string label;
    Side side = Side::Vg;
    unsigned vcpus = 1;
    double buildS = 0;    ///< System constructor
    double bootS = 0;     ///< System::boot
    double prepS = 0;     ///< content planting, packaging, set-up runs
    double loadS = 0;     ///< Kernel::loadModule
    std::vector<double> runS;    ///< each timed runProcess phase
    std::vector<double> runCpuS; ///< process CPU time of each phase
    double teardownS = 0; ///< System destructor
    uint64_t simCycles = 0; ///< machine clock across timed phases
    std::map<std::string, uint64_t> setupStats; ///< up to first timed run
    std::map<std::string, uint64_t> runStats;   ///< across timed runs
    std::vector<uint64_t> clocks;               ///< per-vCPU at the end
};

/** One result row: the baseline and the configuration under test. */
struct Row
{
    std::string table;
    std::string name;
    double base = 0;
    double test = 0;
};

/** All measurements of one repetition of a workload. */
struct Rep
{
    uint32_t index = 0;
    bool traced = false;
    std::vector<MachineRecord> machines;
    std::vector<Row> rows;
    /** Simulated latency of each unit of work on VG, in cycles. */
    std::vector<uint64_t> samples;
    /** Units of work done on VG (the per-unit denominator). */
    uint64_t units = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::pair<std::string, bool>> checks;
    /** Workload-specific simulated values (counts, cycles). */
    std::map<std::string, double> extra;
};

/** Shared state of one benchmark process. */
struct Bench
{
    std::string workload;
    uint64_t seed = 0;
    Tracer tracer;
    Rep *rep = nullptr;

    /** Protection breakdown: when set, only VG-side machines run, and
     *  they use this configuration in place of the full one. */
    std::optional<sim::VgConfig> vgOverride;
    bool vgOnly() const { return vgOverride.has_value(); }

    sim::VgConfig config(Side side, unsigned vcpus) const;

    /** Count one attempted operation. */
    void
    op(bool ok)
    {
        rep->attempted++;
        if (!ok)
            rep->failed++;
    }

    /** Record an output check; a failed check is a failed operation. */
    void
    check(const std::string &name, bool ok)
    {
        rep->checks.emplace_back(name, ok);
        op(ok);
    }

    void
    row(const std::string &table, const std::string &name, double base,
        double test)
    {
        rep->rows.push_back({table, name, base, test});
    }

    /**
     * Make one UserApi call from a benchmark body. While tracing, the
     * call gets a kernel.syscall.<name> span and a host-ns/sim-cycle
     * sample (sim cycles on the calling vCPU; skipped if the call
     * migrated).
     */
    template <class F>
    auto
    call(kern::UserApi &api, const char *name, uint64_t req, F &&f)
    {
        if (!tracer.enabled())
            return f();
        sim::SimContext &ctx = api.kernel().ctx();
        unsigned cpu = ctx.activeCpu();
        uint64_t c0 = ctx.clock().now();
        uint32_t id = tracer.open(std::string("kernel.syscall.") + name,
                                  req);
        auto t0 = std::chrono::steady_clock::now();
        auto result = f();
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        tracer.close(id);
        if (ctx.activeCpu() == cpu)
            tracer.sample(name, {uint64_t(ns), ctx.clock().now() - c0});
        return result;
    }
};

/**
 * One simulated machine, built, booted, prepared, run and torn down
 * under the harness's timers. Set-up (constructor, boot, prepare*,
 * loadModule, destructor) counts toward setup_s; run() phases count
 * toward host_s and their machine-clock span toward the simulated
 * totals.
 */
class Machine
{
  public:
    Machine(Bench &b, const std::string &label, Side side,
            sim::VgConfig vg);
    ~Machine();
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    kern::System &sys() { return *_sys; }

    /** Host-side set-up: planting files, packaging apps. */
    void prepare(const std::function<void(kern::System &)> &fn);

    /** Set-up that runs inside the machine (ssh-keygen). */
    int prepareProcess(const std::string &name,
                       std::function<int(kern::UserApi &)> body);

    bool loadModule(const std::string &name, const std::string &text,
                    std::string *err);

    /** A timed phase: run @p body as a process to completion. A
     *  machine's phases must be the same in every repetition. */
    int run(const std::string &name,
            std::function<int(kern::UserApi &)> body);

    /** Machine-wide simulated time: the furthest-ahead vCPU clock. */
    uint64_t now();

  private:
    void finish();

    Bench &_b;
    MachineRecord _rec;
    /** Stats at the first timed run: the end of set-up. */
    std::map<std::string, uint64_t> _snap;
    std::unique_ptr<Timed> _span;
    std::unique_ptr<kern::System> _sys;
    bool _ran = false;
};

/** Plant @p data as @p path directly in @p sys's filesystem. */
void plantFile(kern::System &sys, const std::string &path,
               const std::vector<uint8_t> &data);

// --- workloads (workloads.cc) --------------------------------------------

void kernelOps(Bench &b);
void webSmp(Bench &b);
void sshGhost(Bench &b);
void ghostSwap(Bench &b);

} // namespace vgb

#endif // VG_PERFBENCH_HARNESS_HH
