/**
 * @file
 * vgbench: runs one workload of the benchmark and prints raw
 * measurements, one JSON object per line on stdout. run.py builds this
 * program, turns the lines into metrics and checks them.
 *
 *   vgbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--trace-out FILE]
 *
 * Repetitions run while the next one should end within S host seconds,
 * and at least three run (four when tracing). With --trace 1 the
 * repetitions alternate untraced and traced, so the traced run also
 * measures the tracing overhead, and five extra single-protection
 * passes over the workload's VG machines give the per-protection
 * simulated cost. Spans are kept in memory and written to FILE at the
 * end.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "harness.hh"

namespace vgb
{

namespace
{

using HostClock = std::chrono::steady_clock;
const HostClock::time_point processStart = HostClock::now();

/** CPU seconds used so far by all threads of this process. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** Open spans of the calling host thread (innermost last). */
thread_local std::vector<uint32_t> openSpans;

/** Minimal JSON text builder. */
class Json
{
  public:
    Json &
    raw(const std::string &key, const std::string &value)
    {
        sep();
        if (!key.empty())
            _s += quote(key) + ":";
        _s += value;
        return *this;
    }

    Json &num(const std::string &key, double v) { return raw(key, fmt(v)); }

    Json &
    count(const std::string &key, uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    Json &str(const std::string &key, const std::string &v)
    {
        return raw(key, quote(v));
    }

    Json &flag(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    std::string
    object() const
    {
        return "{" + _s + "}";
    }

    std::string
    array() const
    {
        return "[" + _s + "]";
    }

    static std::string
    fmt(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    }

    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
        return out + "\"";
    }

  private:
    void
    sep()
    {
        if (!_s.empty())
            _s += ",";
    }

    std::string _s;
};

std::string
statsJson(const std::map<std::string, uint64_t> &stats)
{
    Json j;
    for (const auto &[k, v] : stats)
        j.count(k, v);
    return j.object();
}

/** FNV-1a over every simulated output of a repetition. */
class Digest
{
  public:
    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            _h ^= c;
            _h *= 0x100000001b3ull;
        }
        _h ^= 0xff; // field separator
        _h *= 0x100000001b3ull;
    }

    void add(uint64_t v) { add(std::to_string(v)); }
    void add(double v) { add(Json::fmt(v)); }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, _h);
        return buf;
    }

  private:
    uint64_t _h = 0xcbf29ce484222325ull;
};

/** Host-time counters (verifier wall clocks) are not simulated output. */
bool
hostOnlyStat(const std::string &name)
{
    const std::string suffix = "wall_ns";
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

std::string
repDigest(const Rep &rep)
{
    Digest d;
    for (const Row &r : rep.rows) {
        d.add(r.table);
        d.add(r.name);
        d.add(r.base);
        d.add(r.test);
    }
    for (const MachineRecord &m : rep.machines) {
        d.add(m.label);
        d.add(m.simCycles);
        for (uint64_t c : m.clocks)
            d.add(c);
        for (const auto *stats : {&m.setupStats, &m.runStats})
            for (const auto &[k, v] : *stats)
                if (!hostOnlyStat(k)) {
                    d.add(k);
                    d.add(v);
                }
    }
    for (uint64_t s : rep.samples)
        d.add(s);
    for (const auto &[k, v] : rep.extra) {
        d.add(k);
        d.add(v);
    }
    d.add(rep.units);
    d.add(rep.attempted);
    d.add(rep.failed);
    return d.hex();
}

void
addStats(std::map<std::string, uint64_t> &into,
         const std::map<std::string, uint64_t> &from)
{
    for (const auto &[k, v] : from)
        into[k] += v;
}

std::string
repJson(const Rep &rep,
        const std::map<std::string, std::vector<CallSample>> &calls)
{
    Json machines;
    std::map<std::string, uint64_t> stats[2][2]; // [side][setup/run]
    for (const MachineRecord &m : rep.machines) {
        Json clocks, run, runCpu;
        for (uint64_t c : m.clocks)
            clocks.count("", c);
        for (size_t i = 0; i < m.runS.size(); i++) {
            run.num("", m.runS[i]);
            runCpu.num("", m.runCpuS[i]);
        }
        machines.raw("", Json()
                             .str("label", m.label)
                             .str("side", m.side == Side::Vg ? "vg"
                                                             : "native")
                             .count("vcpus", m.vcpus)
                             .num("build_s", m.buildS)
                             .num("boot_s", m.bootS)
                             .num("prep_s", m.prepS)
                             .num("load_s", m.loadS)
                             .raw("run_s", run.array())
                             .raw("run_cpu_s", runCpu.array())
                             .num("teardown_s", m.teardownS)
                             .count("sim_cycles", m.simCycles)
                             .raw("clocks", clocks.array())
                             .object());
        int side = m.side == Side::Vg ? 1 : 0;
        addStats(stats[side][0], m.setupStats);
        addStats(stats[side][1], m.runStats);
    }
    Json rows;
    for (const Row &r : rep.rows)
        rows.raw("", Json()
                         .str("table", r.table)
                         .str("name", r.name)
                         .num("base", r.base)
                         .num("test", r.test)
                         .object());
    Json samples;
    for (uint64_t s : rep.samples)
        samples.count("", s);
    Json checks;
    for (const auto &[name, ok] : rep.checks)
        checks.raw("", Json().str("", name).flag("", ok).array());
    Json extra;
    for (const auto &[k, v] : rep.extra)
        extra.num(k, v);
    Json sides;
    const char *sideName[2] = {"native", "vg"};
    for (int s = 0; s < 2; s++)
        sides.raw(sideName[s], Json()
                                   .raw("setup", statsJson(stats[s][0]))
                                   .raw("run", statsJson(stats[s][1]))
                                   .object());
    Json callJson;
    for (const auto &[name, list] : calls) {
        Json pairs;
        for (const CallSample &c : list)
            pairs.raw("", Json()
                              .count("", c.hostNs)
                              .count("", c.simCycles)
                              .array());
        callJson.raw(name, pairs.array());
    }
    return Json()
        .count("rep", rep.index)
        .flag("traced", rep.traced)
        .str("digest", repDigest(rep))
        .count("units", rep.units)
        .count("attempted", rep.attempted)
        .count("failed", rep.failed)
        .raw("checks", checks.array())
        .raw("rows", rows.array())
        .raw("samples", samples.array())
        .raw("extra", extra.object())
        .raw("machines", machines.array())
        .raw("stats", sides.object())
        .raw("calls", callJson.object())
        .object();
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::perror(path.c_str());
        return false;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        std::string line = Json()
                               .count("id", s.id)
                               .count("parent", s.parent)
                               .str("name", s.name)
                               .num("start", s.start)
                               .num("end", s.end)
                               .count("req", s.req)
                               .count("rep", s.rep)
                               .object();
        std::fprintf(f, "%s%s\n", line.c_str(),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

/** The single-protection configurations of the breakdown, each the
 *  native baseline plus one protection. */
std::vector<std::pair<std::string, sim::VgConfig>>
breakdownConfigs()
{
    std::vector<std::pair<std::string, sim::VgConfig>> out;
    sim::VgConfig native = sim::VgConfig::native();
    out.emplace_back("native", native);
    sim::VgConfig c = native;
    c.protectInterruptContext = true;
    out.emplace_back("ic", c);
    c = native;
    c.mmuChecks = true;
    out.emplace_back("mmu", c);
    c = native;
    c.sandboxMemory = true;
    out.emplace_back("sandbox", c);
    c = native;
    c.cfi = true;
    out.emplace_back("cfi", c);
    return out;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: vgbench --workload kernel_ops|web_smp|ssh_ghost|"
                 "ghost_swap --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
}

} // namespace

double
hostNow()
{
    return std::chrono::duration<double>(HostClock::now() - processStart)
        .count();
}

std::vector<uint8_t>
randomBytes(sim::SplitMix64 &rng, uint64_t n)
{
    std::vector<uint8_t> out(n);
    for (uint64_t i = 0; i < n; i += 8) {
        uint64_t v = rng.next();
        std::memcpy(out.data() + i, &v, std::min<uint64_t>(8, n - i));
    }
    return out;
}

uint32_t
Tracer::open(const std::string &name, uint64_t req)
{
    if (!_on)
        return 0;
    std::lock_guard<std::mutex> lock(_mu);
    Span s;
    s.name = name;
    s.start = hostNow();
    s.id = uint32_t(_spans.size() + 1);
    s.parent = openSpans.empty() ? _root : openSpans.back();
    s.req = req;
    s.rep = _rep;
    _spans.push_back(std::move(s));
    openSpans.push_back(_spans.back().id);
    return _spans.back().id;
}

void
Tracer::close(uint32_t id)
{
    if (id == 0)
        return;
    std::lock_guard<std::mutex> lock(_mu);
    _spans[id - 1].end = hostNow();
    if (!openSpans.empty() && openSpans.back() == id)
        openSpans.pop_back();
}

void
Tracer::sample(const std::string &call, CallSample s)
{
    std::lock_guard<std::mutex> lock(_mu);
    _samples[call].push_back(s);
}

std::map<std::string, std::vector<CallSample>>
Tracer::takeSamples()
{
    std::lock_guard<std::mutex> lock(_mu);
    return std::exchange(_samples, {});
}

sim::VgConfig
Bench::config(Side side, unsigned vcpus) const
{
    sim::VgConfig c = side == Side::Native ? sim::VgConfig::native()
                      : vgOverride         ? *vgOverride
                                           : sim::VgConfig::full();
    c.vcpus = vcpus;
    return c;
}

Machine::Machine(Bench &b, const std::string &label, Side side,
                 sim::VgConfig vg)
    : _b(b)
{
    _rec.label = label;
    _rec.side = side;
    _rec.vcpus = vg.vcpus;
    _span = std::make_unique<Timed>(b.tracer, "machine." + label);
    b.tracer.setRoot(_span->id());

    // The standard benchmark machine: 64 MB RAM, 128 MB disk.
    kern::SystemConfig cfg;
    cfg.vg = vg;
    cfg.memFrames = 16 * 1024;
    cfg.diskBlocks = 32 * 1024;
    cfg.rsaBits = 384;
    Timed build(b.tracer, "hw.machine_build");
    _sys = std::make_unique<kern::System>(cfg);
    _rec.buildS = build.stop();
    Timed boot(b.tracer, "sva.boot");
    _sys->boot();
    _rec.bootS = boot.stop();
}

Machine::~Machine() { finish(); }

void
Machine::prepare(const std::function<void(kern::System &)> &fn)
{
    Timed t(_b.tracer, "apps.prepare");
    fn(*_sys);
    _rec.prepS += t.stop();
}

int
Machine::prepareProcess(const std::string &name,
                        std::function<int(kern::UserApi &)> body)
{
    Timed t(_b.tracer, "apps.prepare");
    int rc = _sys->runProcess(name, std::move(body));
    _rec.prepS += t.stop();
    return rc;
}

bool
Machine::loadModule(const std::string &name, const std::string &text,
                    std::string *err)
{
    Timed t(_b.tracer, "compiler.load_module");
    bool ok = _sys->kernel().loadModule(name, text, err);
    _rec.loadS += t.stop();
    return ok;
}

uint64_t
Machine::now()
{
    uint64_t t = 0;
    for (unsigned c = 0; c < _sys->ctx().vcpuCount(); c++)
        t = std::max<uint64_t>(t, _sys->ctx().clockOf(c).now());
    return t;
}

int
Machine::run(const std::string &name,
             std::function<int(kern::UserApi &)> body)
{
    if (!_ran) {
        _snap = _sys->ctx().stats().all();
        _ran = true;
    }
    uint64_t c0 = now();
    double cpu0 = cpuNow();
    Timed t(_b.tracer, "kernel.run");
    _b.tracer.setRoot(t.id());
    int rc = _sys->runProcess(name, std::move(body));
    _rec.runS.push_back(t.stop());
    _rec.runCpuS.push_back(cpuNow() - cpu0);

    _b.tracer.setRoot(_span->id());
    _rec.simCycles += now() - c0;
    return rc;
}

void
Machine::finish()
{
    if (!_sys)
        return;
    const std::map<std::string, uint64_t> &final = _sys->ctx().stats().all();
    if (!_ran)
        _snap = final;
    for (const auto &[k, v] : _snap)
        if (v)
            _rec.setupStats[k] = v;
    for (const auto &[k, v] : final) {
        auto it = _snap.find(k);
        uint64_t before = it == _snap.end() ? 0 : it->second;
        if (v > before)
            _rec.runStats[k] = v - before;
    }
    for (unsigned c = 0; c < _sys->ctx().vcpuCount(); c++)
        _rec.clocks.push_back(_sys->ctx().clockOf(c).now());
    Timed teardown(_b.tracer, "hw.teardown");
    _sys.reset();
    _rec.teardownS = teardown.stop();
    _span->stop();
    _b.tracer.setRoot(0);
    _b.rep->machines.push_back(std::move(_rec));
}

void
plantFile(kern::System &sys, const std::string &path,
          const std::vector<uint8_t> &data)
{
    kern::Ino ino = 0;
    sys.kernel().fs().create(path, ino);
    const uint64_t chunk = 64 * 1024;
    for (uint64_t off = 0; off < data.size(); off += chunk)
        sys.kernel().fs().write(
            ino, off, data.data() + off,
            std::min<uint64_t>(chunk, data.size() - off));
}

} // namespace vgb

int
main(int argc, char **argv)
{
    using namespace vgb;
    Bench b;
    double seconds = -1;
    int trace = -1;
    std::string trace_out;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload")
            b.workload = v;
        else if (flag == "--seed") {
            b.seed = std::strtoull(v, nullptr, 10);
            have_seed = true;
        } else if (flag == "--seconds")
            seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            trace = std::atoi(v);
        else if (flag == "--trace-out")
            trace_out = v;
        else
            return usage();
    }
    if (argc % 2 == 0 || !have_seed || seconds < 0 ||
        (trace != 0 && trace != 1))
        return usage();

    void (*workload)(Bench &) = nullptr;
    if (b.workload == "kernel_ops")
        workload = kernelOps;
    else if (b.workload == "web_smp")
        workload = webSmp;
    else if (b.workload == "ssh_ghost")
        workload = sshGhost;
    else if (b.workload == "ghost_swap")
        workload = ghostSwap;
    else
        return usage();
    const uint32_t min_reps = trace ? 4 : 3;

    // Start another repetition only while it should still end within
    // the S seconds, judging by the longest one so far.
    double longest = 0;
    for (uint32_t i = 0; i < min_reps || hostNow() + longest <= seconds;
         i++) {
        const double start = hostNow();
        Rep rep;
        rep.index = i;
        rep.traced = trace && i % 2 == 1;
        b.tracer.setEnabled(rep.traced);
        b.tracer.setRep(i);
        b.rep = &rep;
        workload(b);
        std::printf("%s\n", repJson(rep, b.tracer.takeSamples()).c_str());
        std::fflush(stdout);
        longest = std::max(longest, hostNow() - start);
    }
    b.tracer.setEnabled(false);

    if (trace) {
        Json cycles;
        uint64_t attempted = 0, failed = 0;
        for (const auto &[name, cfg] : breakdownConfigs()) {
            Rep rep;
            b.rep = &rep;
            b.vgOverride = cfg;
            workload(b);
            uint64_t total = 0;
            for (const MachineRecord &m : rep.machines)
                total += m.simCycles;
            cycles.count(name, total);
            attempted += rep.attempted;
            failed += rep.failed;
        }
        b.vgOverride.reset();
        std::printf("%s\n", Json()
                                .raw("breakdown", cycles.object())
                                .count("attempted", attempted)
                                .count("failed", failed)
                                .object()
                                .c_str());
        if (!trace_out.empty() && !writeSpans(trace_out, b.tracer.spans()))
            return 1;
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("%s\n", Json()
                            .flag("final", true)
                            .count("rss_kb", uint64_t(ru.ru_maxrss))
                            .num("wall_s", hostNow())
                            .object()
                            .c_str());
    return 0;
}
