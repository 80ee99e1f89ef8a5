/**
 * @file
 * Shared benchmark-harness helpers.
 *
 * Every bench binary prints the table or data series of one table or
 * figure from the paper's evaluation (S 8), with the paper's reported
 * numbers alongside for shape comparison. Scale: by default the
 * harnesses run reduced iteration counts suited to CI; set
 * VG_BENCH_SCALE=paper for the paper's full parameters.
 */

#ifndef VG_BENCH_COMMON_HH
#define VG_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "kernel/system.hh"

namespace vg::bench
{

/** True when VG_BENCH_SCALE=paper. */
inline bool
paperScale()
{
    const char *env = std::getenv("VG_BENCH_SCALE");
    return env && std::strcmp(env, "paper") == 0;
}

/** True when VG_BENCH_SCALE=smoke (CI-sized run). */
inline bool
smokeScale()
{
    const char *env = std::getenv("VG_BENCH_SCALE");
    return env && std::strcmp(env, "smoke") == 0;
}

/** The active scale's name, for labelling result files. */
inline const char *
scaleName()
{
    return paperScale() ? "paper" : smokeScale() ? "smoke" : "default";
}

/**
 * The one flag parser every bench binary shares. Recognized flags:
 *
 *   --vcpus N      simulated vCPUs (1-64, default 1); any other value
 *                  is rejected with exit code 2
 *   --seed N       deterministic-schedule seed (default VgConfig's)
 *   --smoke        CI-sized run (same as VG_BENCH_SCALE=smoke)
 *
 * Unrecognized arguments are ignored. apply() stamps the parsed
 * protection-independent knobs onto a VgConfig, so the
 * native-vs-full A/B pairs every harness builds stay identical in
 * everything but the protection toggles.
 */
struct BenchOpts
{
    unsigned vcpus = 1;
    uint64_t seed = sim::VgConfig{}.seed;
    bool smoke = false;

    sim::VgConfig
    apply(sim::VgConfig vg) const
    {
        vg.vcpus = vcpus;
        vg.seed = seed;
        return vg;
    }
};

inline BenchOpts
parseBenchOpts(int argc, char **argv)
{
    BenchOpts opts;
    opts.smoke = smokeScale();
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--vcpus") == 0) {
            const char *arg = i + 1 < argc ? argv[++i] : "";
            char *end = nullptr;
            long n = std::strtol(arg, &end, 10);
            if (end == arg || *end != '\0' || n < 1 || n > 64) {
                std::fprintf(stderr,
                             "%s: --vcpus wants an integer in 1..64, "
                             "got '%s'\n",
                             argv[0], arg);
                std::exit(2);
            }
            opts.vcpus = unsigned(n);
        } else if (std::strcmp(argv[i], "--seed") == 0 &&
                   i + 1 < argc) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            opts.smoke = true;
        }
    }
    return opts;
}

/** Machine-wide simulated time: the furthest-ahead vCPU clock.
 *  Identical to ctx.clock().now() on single-CPU machines. */
inline sim::Cycles
machineNow(kern::System &sys)
{
    uint64_t t = 0;
    for (unsigned c = 0; c < sys.ctx().vcpuCount(); c++)
        t = std::max<uint64_t>(t, sys.ctx().clockOf(c).now());
    return sim::Cycles(t);
}

/**
 * Per-operation latency recorder, shared by every bench binary.
 * Benchmarks feed one sample per natural unit of work (HTTP request,
 * ssh session, postmark transaction, ghost page fault); the histogram
 * turns the pool into p50/p99/p999 so tail behaviour lands in the
 * JSON next to the throughput figures. Histograms from per-phase or
 * per-mode sub-runs can be merge()d into a run-wide pool, and emit()
 * renders the standard percentile fields into any report object.
 */
class LatencyHist
{
  public:
    void add(uint64_t cycles) { _samples.push_back(cycles); }
    size_t count() const { return _samples.size(); }

    /** Percentile (0-100) in cycles over the recorded pool; 0 when
     *  the pool is empty. Nearest-rank on a sorted copy. */
    uint64_t
    percentile(double p) const
    {
        if (_samples.empty())
            return 0;
        std::vector<uint64_t> sorted(_samples);
        std::sort(sorted.begin(), sorted.end());
        double rank = p / 100.0 * double(sorted.size() - 1);
        return sorted[size_t(rank + 0.5)];
    }

    /** Mean sample in cycles (0 when empty). */
    double
    mean() const
    {
        if (_samples.empty())
            return 0;
        double sum = 0;
        for (uint64_t s : _samples)
            sum += double(s);
        return sum / double(_samples.size());
    }

    /** Fold another histogram's samples into this one. */
    void
    merge(const LatencyHist &other)
    {
        _samples.insert(_samples.end(), other._samples.begin(),
                        other._samples.end());
    }

  private:
    std::vector<uint64_t> _samples;
};

/**
 * Machine-readable results: every bench binary writes one
 * BENCH_<name>.json to the current directory so the perf trajectory
 * (native vs VG cycles, overhead ratios, host wall time) can be
 * tracked without scraping stdout. Fields keep insertion order; the
 * report stamps total host wall time at write().
 */
class BenchReport
{
  public:
    /** One JSON object: keys with pre-rendered values. */
    class Obj
    {
      public:
        Obj &
        num(const std::string &key, double v)
        {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.6g", v);
            return raw(key, buf);
        }

        Obj &
        count(const std::string &key, uint64_t v)
        {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%llu",
                          (unsigned long long)v);
            return raw(key, buf);
        }

        Obj &
        str(const std::string &key, const std::string &v)
        {
            return raw(key, quote(v));
        }

        Obj &
        flag(const std::string &key, bool v)
        {
            return raw(key, v ? "true" : "false");
        }

        const std::vector<std::pair<std::string, std::string>> &
        fields() const
        {
            return _fields;
        }

      private:
        Obj &
        raw(const std::string &key, const std::string &rendered)
        {
            _fields.emplace_back(key, rendered);
            return *this;
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
            out += '"';
            return out;
        }

        std::vector<std::pair<std::string, std::string>> _fields;
    };

    explicit BenchReport(const std::string &bench, unsigned vcpus = 1)
        : _bench(bench), _start(std::chrono::steady_clock::now())
    {
        _top.str("bench", bench);
        _top.str("scale", scaleName());
        _top.count("vcpus", vcpus);
    }

    /** Top-level scalars ("speedup", "work_iters", ...). */
    Obj &top() { return _top; }

    /** Per-operation latency pool; write() renders it as a "latency"
     *  object with p50/p99/p999 in microseconds. */
    LatencyHist &latency() { return _latency; }

    /** Append one result row (shows up under "results"). */
    Obj &
    row()
    {
        _rows.emplace_back();
        return _rows.back();
    }

    /**
     * Write BENCH_<name>.json. Returns false (after perror) if the
     * file cannot be created, so main() can propagate a nonzero exit.
     */
    bool
    write()
    {
        double host = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - _start)
                          .count();
        std::string path = "BENCH_" + _bench + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::perror(path.c_str());
            return false;
        }
        std::fprintf(f, "{\n");
        for (const auto &[k, v] : _top.fields())
            std::fprintf(f, "  \"%s\": %s,\n", k.c_str(), v.c_str());
        std::fprintf(f, "  \"results\": [\n");
        for (size_t i = 0; i < _rows.size(); i++) {
            std::fprintf(f, "    {");
            const auto &fields = _rows[i].fields();
            for (size_t j = 0; j < fields.size(); j++)
                std::fprintf(f, "%s\"%s\": %s", j ? ", " : "",
                             fields[j].first.c_str(),
                             fields[j].second.c_str());
            std::fprintf(f, "}%s\n", i + 1 < _rows.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        double cpu = sim::Clock::cyclesPerUsec;
        std::fprintf(f,
                     "  \"latency\": {\"samples\": %zu, "
                     "\"p50_us\": %.3f, \"p99_us\": %.3f, "
                     "\"p999_us\": %.3f},\n",
                     _latency.count(),
                     double(_latency.percentile(50)) / cpu,
                     double(_latency.percentile(99)) / cpu,
                     double(_latency.percentile(99.9)) / cpu);
        std::fprintf(f, "  \"host_seconds\": %.3f\n}\n", host);
        std::fclose(f);
        std::printf("wrote %s (%.2fs host)\n", path.c_str(), host);
        return true;
    }

  private:
    std::string _bench;
    std::chrono::steady_clock::time_point _start;
    Obj _top;
    std::vector<Obj> _rows;
    LatencyHist _latency;
};

/** Render @p hist's standard percentile fields (in microseconds,
 *  keyed <prefix>p50_us/p99_us/p999_us plus a sample count) into a
 *  report object — the idiom for per-row / per-mode latencies that
 *  don't belong in the report-wide pool. */
inline void
emitLatency(BenchReport::Obj &obj, const LatencyHist &hist,
            const std::string &prefix = "")
{
    double cpu = sim::Clock::cyclesPerUsec;
    obj.count(prefix + "lat_samples", hist.count())
        .num(prefix + "p50_us", double(hist.percentile(50)) / cpu)
        .num(prefix + "p99_us", double(hist.percentile(99)) / cpu)
        .num(prefix + "p999_us", double(hist.percentile(99.9)) / cpu);
}

/** Standard machine sizing for benchmarks. */
inline kern::SystemConfig
benchConfig(sim::VgConfig vg)
{
    kern::SystemConfig cfg;
    cfg.vg = vg;
    cfg.memFrames = 16 * 1024;  // 64 MB
    cfg.diskBlocks = 32 * 1024; // 128 MB
    cfg.rsaBits = 384;
    return cfg;
}

/** Run @p fn in a process on a freshly booted machine and return its
 *  double result. */
inline double
measureOn(sim::VgConfig vg,
          const std::function<double(kern::UserApi &)> &fn)
{
    kern::System sys(benchConfig(vg));
    sys.boot();
    double out = 0;
    sys.runProcess("bench", [&](kern::UserApi &api) {
        out = fn(api);
        return 0;
    });
    return out;
}

/** Mean of @p runs executions (fresh machine each run). */
inline double
meanOf(int runs, sim::VgConfig vg,
       const std::function<double(kern::UserApi &)> &fn)
{
    double sum = 0;
    for (int i = 0; i < runs; i++)
        sum += measureOn(vg, fn);
    return sum / runs;
}

/** Pretty size for labels ("4 KB", "1 MB"). */
inline std::string
sizeLabel(uint64_t bytes)
{
    char buf[32];
    if (bytes >= (1 << 20))
        std::snprintf(buf, sizeof(buf), "%lu MB",
                      (unsigned long)(bytes >> 20));
    else if (bytes >= 1024)
        std::snprintf(buf, sizeof(buf), "%lu KB",
                      (unsigned long)(bytes >> 10));
    else
        std::snprintf(buf, sizeof(buf), "%lu B", (unsigned long)bytes);
    return buf;
}

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n================================================="
                "=====================\n%s\n"
                "================================================="
                "=====================\n",
                title.c_str());
}

} // namespace vg::bench

#endif // VG_BENCH_COMMON_HH
