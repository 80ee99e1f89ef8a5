#!/usr/bin/env python3
"""Run one workload of the Virtual Ghost benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --layer-report [--seed N] [--seconds S]

Run from the repository root. The first call builds perfbench/vgbench
and the simulator from src/ with CMake into $CARGO_TARGET_DIR (default
.bench_build). Workloads: kernel_ops, web_smp, ssh_ghost, ghost_swap
(see perfbench/README.md). With --trace 0 the last line of output is a
JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run. The exit code is nonzero when an
output check fails or the program cannot be built.

--layer-report runs every workload traced and checks that each layer's
work concentrates in the workload the layer map names.
"""

import argparse
import json
import os
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170


def fail(msg, code):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure once, then bring vgbench up to date. Returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/", 2)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "vgbench", "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}", 3)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (see {log_path})", 3)
    return os.path.join(bdir, "vgbench")


def run_vgbench(binary, workload, seed, seconds, trace, trace_out=None):
    """Run vgbench and split its output into repetitions, the protection
    breakdown (traced runs) and the final summary."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s", 4)
    if proc.returncode != 0:
        fail(f"vgbench exited with {proc.returncode}", 4)
    reps, breakdown, final = [], None, None
    for line in proc.stdout.splitlines():
        record = json.loads(line)
        if "rep" in record:
            reps.append(record)
        elif "breakdown" in record:
            breakdown = record
        elif record.get("final"):
            final = record
    if not reps or final is None:
        fail("vgbench printed no result", 4)
    return reps, breakdown, final


def outcome(reps, breakdown):
    """Totals and the reasons, if any, the run is not correct."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if breakdown:
        attempted += breakdown["attempted"]
        failed += breakdown["failed"]
    problems = sorted({name for r in reps for name, ok in r["checks"] if not ok})
    if len({r["digest"] for r in reps}) != 1:
        problems.append("sim_digest differs between repetitions")
    if failed:
        problems.append(f"{failed} failed operations")
    return attempted, failed, problems


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_rows(rows):
    terms = metrics.paper_terms(rows)
    print("rows (base = less protected side, test = protected side):")
    for row in rows:
        print(f"  {row['table']:4} {row['name']:26} base {row['base']:14.6g}"
              f"  test {row['test']:14.6g}")
    print("paper comparison (measured vs paper, relative error):")
    if not terms:
        print("  none: this workload's rows are extensions")
    for label, measured, paper, err in terms:
        print(f"  {label:32} {measured:9.4g} vs {paper:<9.4g} {100 * err:7.2f}%")


E2E_CLOCK = {"host_s": "host", "setup_s": "host", "host_rss_mb": "host",
             "sim_vg_s": "sim", "sim_vg_p50_us": "sim", "sim_vg_tail_us": "sim",
             "paper_err_pct": "sim", "success_rate": "-"}


def run_workload(args):
    binary = build()
    trace_out = None
    if args.trace:
        trace_out = os.path.join(build_dir(),
                                 f"trace-{args.workload}-{args.seed}.json")
    reps, breakdown, final = run_vgbench(binary, args.workload, args.seed,
                                         args.seconds, args.trace,
                                         trace_out=trace_out)
    attempted, failed, problems = outcome(reps, breakdown)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(untraced)} untraced, {len(traced)} traced")
    print(f"sim_digest {reps[0]['digest']}")
    print_rows(reps[0]["rows"])
    faster = metrics.faster_than_native(reps[0]["rows"])
    print("VG faster than native (reported, not failures): "
          + (", ".join(faster) if faster else "none"))

    e2e, notes = metrics.end_to_end(untraced, final["rss_kb"], attempted, failed)
    print(f"error_rate {notes['error_rate']:.6g} ({failed} of {attempted} "
          f"operations)")
    if notes["tail_percentile"]:
        print(f"sim_vg_tail_us is p{notes['tail_percentile']:g} of "
              f"{notes['samples']} samples ({notes['tail_beyond']} beyond it)")
    print(f"host_cpu_s {notes['host_cpu_s']:.6g} (process CPU seconds in the "
          f"timed phases, fastest repetition of each phase)")
    print("end-to-end metrics (clock):")
    for name, (value, unit) in e2e.items():
        print(f"  {name:16} {fmt(value):>14} {unit:6} ({E2E_CLOCK[name]})")

    if args.trace:
        spans = load(trace_out)
        layers = metrics.layer_metrics(args.workload, untraced, traced,
                                       breakdown["breakdown"], spans)
        print("per-layer metrics (traced repetitions):")
        for name, (value, unit) in layers.items():
            print(f"  {name:44} {fmt(value):>14} {unit}")
        print("host self time by layer (all traced repetitions):")
        for layer, secs in sorted(metrics.self_times(spans).items()):
            print(f"  {layer:10} {secs:10.4f} s")
        print(f"spans written to {os.path.relpath(trace_out, ROOT)}")
        chosen = layers
    else:
        chosen = e2e
    for name, (value, unit) in chosen.items():
        if value is None:
            problems.append(f"{name} has no value")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def load(path):
    with open(path) as f:
        return json.load(f)


def layer_report(args):
    """Trace every workload and check the layer map."""
    binary = build()
    values = {}
    for w in metrics.WORKLOADS:
        out = os.path.join(build_dir(), f"trace-{w}-{args.seed}.json")
        reps, breakdown, _final = run_vgbench(binary, w, args.seed,
                                              args.seconds, 1, trace_out=out)
        untraced = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        layer = metrics.layer_metrics(w, untraced, traced,
                                      breakdown["breakdown"], load(out))
        values[w] = {k: v for k, (v, _unit) in layer.items()}
    names = list(values[metrics.WORKLOADS[0]])
    print(f"{'metric':44}" + "".join(f"{w:>14}" for w in metrics.WORKLOADS))
    for name in names:
        print(f"{name:44}" + "".join(f"{fmt(values[w][name]):>14}"
                                     for w in metrics.WORKLOADS))
    zero = [n for n in names if all(values[w][n] == 0 for w in metrics.WORKLOADS)]
    print("zero on every workload: " + (", ".join(zero) if zero else "none"))
    print("layer map check (dominant workload, flat workloads):")
    failures = 0
    for name, dominant, flats, verdict in metrics.layer_check(values):
        failures += verdict != "ok"
        print(f"  {name:44} {dominant:10} {','.join(flats):30} {verdict}")
    print(f"{failures} layer-map rows failed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layer-report", action="store_true")
    args = parser.parse_args()
    if args.layer_report:
        return layer_report(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
