/**
 * @file
 * Host-side throughput of the execution engine: interpreted
 * instructions per wall-clock second for the same workload module
 * under two configurations:
 *
 *   - native:           no instrumentation (upper bound);
 *   - vg-fused:         full Virtual Ghost instrumentation with the
 *                       fused SandboxAddr masking op.
 *
 * Unlike bench_micro this is a standalone harness: it prints a small
 * table and writes machine-readable results to BENCH_exec.json in the
 * current directory. Pass --smoke (or set VG_BENCH_SCALE=smoke) for a
 * fast CI run.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hh"
#include "compiler/exec.hh"
#include "compiler/translator.hh"
#include "sim/config.hh"
#include "sim/context.hh"

using namespace vg;

namespace
{

const char *kModuleSrc = R"(
func @work(1) {
entry:
  %1 = const 0
  %2 = const 0
  br head
head:
  %3 = icmp ult %2, %0
  condbr %3, body, done
body:
  %4 = alloca 64
  store.i64 %4, %2
  %5 = load.i64 %4
  %1 = add %1, %5
  %6 = const 1
  %2 = add %2, %6
  br head
done:
  ret %1
}
)";

class NullPort : public cc::MemPort
{
  public:
    bool
    read(uint64_t, unsigned, uint64_t &out) override
    {
        out = 0;
        return true;
    }
    bool write(uint64_t, unsigned, uint64_t) override { return true; }
    bool copy(uint64_t, uint64_t, uint64_t) override { return true; }
};

struct Result {
    std::string name;
    uint64_t instsPerCall = 0;
    double hostUsPerCall = 0;
    double hostInstsPerSec = 0;
    // Load-time machine-code verifier work for this config's
    // translation (zero when the gate is off).
    uint64_t mverifyInsts = 0;
    uint64_t mverifyFindings = 0;
    double mverifyWallUs = 0;
    // Information-flow verifier work (zero when the gate is off).
    uint64_t iflowInsts = 0;
    uint64_t iflowFindings = 0;
    double iflowWallUs = 0;
};

/** Translate kModuleSrc under @p vg, then call work(N) repeatedly for
 *  at least @p minSeconds of wall clock. */
Result
measure(const std::string &name, const sim::VgConfig &vg,
        uint64_t iters, double minSeconds)
{
    sim::SimContext ctx(vg);
    std::vector<uint8_t> key(32, 1);
    cc::Translator tr(key, ctx);
    auto r = tr.translateText(kModuleSrc, 0xffffff9000000000ull);
    if (!r.ok) {
        std::fprintf(stderr, "translate failed: %s\n",
                     r.error.c_str());
        std::exit(1);
    }
    NullPort port;
    cc::ExternTable externs;
    cc::Executor exec(*r.image, port, externs, ctx,
                      0xffffffa000000000ull, 1 << 20);

    // Warm up (also checks the workload runs to completion).
    auto warm = exec.call("work", {iters});
    if (!warm.ok) {
        std::fprintf(stderr, "%s: workload faulted: %s\n",
                     name.c_str(), warm.detail.c_str());
        std::exit(1);
    }

    using clock = std::chrono::steady_clock;
    uint64_t calls = 0, insts = 0;
    auto start = clock::now();
    double elapsed = 0;
    do {
        auto res = exec.call("work", {iters});
        insts += res.instsExecuted;
        calls++;
        elapsed = std::chrono::duration<double>(clock::now() - start)
                      .count();
    } while (elapsed < minSeconds);

    Result out;
    out.name = name;
    out.instsPerCall = insts / calls;
    out.hostUsPerCall = elapsed * 1e6 / double(calls);
    out.hostInstsPerSec = double(insts) / elapsed;
    out.mverifyInsts = ctx.stats().get("mverify.insts");
    out.mverifyFindings = ctx.stats().get("mverify.findings");
    out.mverifyWallUs =
        double(ctx.stats().get("mverify.wall_ns")) / 1e3;
    out.iflowInsts = ctx.stats().get("iflow.insts");
    out.iflowFindings = ctx.stats().get("iflow.findings");
    out.iflowWallUs =
        double(ctx.stats().get("iflow.wall_ns")) / 1e3;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = std::chrono::steady_clock::now();
    bool smoke = bench::parseBenchOpts(argc, argv).smoke;

    const uint64_t iters = smoke ? 200 : 2000;
    const double minSeconds = smoke ? 0.05 : 0.5;

    std::vector<Result> results;
    results.push_back(
        measure("native", sim::VgConfig::native(), iters, minSeconds));
    results.push_back(
        measure("vg-fused", sim::VgConfig::full(), iters, minSeconds));

    std::printf("%-18s %14s %12s %18s\n", "config", "insts/call",
                "host us/call", "host insts/sec");
    for (const auto &r : results)
        std::printf("%-18s %14llu %12.2f %18.3e\n", r.name.c_str(),
                    (unsigned long long)r.instsPerCall, r.hostUsPerCall,
                    r.hostInstsPerSec);

    std::FILE *f = std::fopen("BENCH_exec.json", "w");
    if (!f) {
        std::perror("BENCH_exec.json");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"exec\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"work_iters\": %llu,\n",
                 (unsigned long long)iters);
    std::fprintf(f, "  \"configs\": [\n");
    for (size_t i = 0; i < results.size(); i++) {
        const Result &r = results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"insts_per_call\": %llu,"
                     " \"host_us_per_call\": %.3f,"
                     " \"host_insts_per_sec\": %.1f,"
                     " \"mverify_insts\": %llu,"
                     " \"mverify_findings\": %llu,"
                     " \"mverify_wall_us\": %.3f,"
                     " \"iflow_insts\": %llu,"
                     " \"iflow_findings\": %llu,"
                     " \"iflow_wall_us\": %.3f}%s\n",
                     r.name.c_str(),
                     (unsigned long long)r.instsPerCall, r.hostUsPerCall,
                     r.hostInstsPerSec,
                     (unsigned long long)r.mverifyInsts,
                     (unsigned long long)r.mverifyFindings,
                     r.mverifyWallUs,
                     (unsigned long long)r.iflowInsts,
                     (unsigned long long)r.iflowFindings,
                     r.iflowWallUs, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    const double host = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    std::fprintf(f, "  \"host_seconds\": %.3f\n}\n", host);
    std::fclose(f);
    std::printf("wrote BENCH_exec.json (%.2fs host)\n", host);
    return 0;
}
