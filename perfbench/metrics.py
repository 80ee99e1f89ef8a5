"""Metric math of the Virtual Ghost benchmark.

Pure functions over the records vgbench prints (one JSON object per
repetition). run.py calls them; test_metrics.py tests them. Two clocks
appear: host wall time, and simulated cycles at CYCLES_PER_US.
"""

import math
import statistics

CYCLES_PER_US = 3400.0

WORKLOADS = ("kernel_ops", "web_smp", "ssh_ghost", "ghost_swap")

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

# --- paper reference (S 8 of the paper) ------------------------------------

# Table 2, LMBench latency in microseconds: (native, Virtual Ghost).
PAPER_TABLE2 = {
    "null syscall": (0.091, 0.355),
    "open/close": (2.01, 9.70),
    "mmap": (7.06, 33.2),
    "page fault": (31.8, 36.7),
    "signal handler install": (0.168, 0.545),
    "signal handler delivery": (1.27, 2.05),
    "fork + exit": (63.7, 283.0),
    "fork + exec": (101.0, 422.0),
    "select": (3.05, 10.3),
}
# Table 3, files deleted per second: (native, Virtual Ghost).
PAPER_TABLE3 = {
    "0 KB": (166846, 36164),
    "1 KB": (116668, 25817),
    "4 KB": (116657, 25806),
    "10 KB": (110842, 25042),
}
# Table 4, files created per second: (native, Virtual Ghost).
PAPER_TABLE4 = {
    "0 KB": (156276, 33777),
    "1 KB": (97839, 18796),
    "4 KB": (97102, 18725),
    "10 KB": (85319, 18095),
}
# Table 5, Postmark seconds for 500,000 transactions.
PAPER_TABLE5 = {"postmark": (14.30, 67.50)}
# Figure 2: thttpd bandwidth curves overlap from 1 KB to 1 MB.
PAPER_FIG2_RATIO = 1.0
# Figure 3: sshd bandwidth reduction under VG, plain client.
PAPER_FIG3_MEAN_PCT = 23.0
PAPER_FIG3_WORST_PCT = 45.0
# Figure 4: the ghosting client costs at most this much bandwidth.
PAPER_FIG4_LIMIT_PCT = 5.0

# Raw values where lower is better; every other table is a rate or a
# bandwidth, where higher is better.
LOWER_IS_BETTER = {"t2", "t5"}
# Extension rows that compare a protected system with a less protected
# one (the ghost-swap row compares two fault orders instead).
PROTECTION_EXTENSIONS = {"module_read"}


def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(p * len(ordered) / 100.0, 9)))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it,
    or None when there are fewer than twenty samples."""
    best = None
    for p in TAIL_LADDER:
        if beyond(n, p) >= 10:
            best = p
    return best


def error_rate(failed, attempted):
    """Failed or incorrect operations per operation attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def _reduction_pct(row):
    return 100.0 * (1.0 - row["test"] / row["base"])


def paper_terms(rows):
    """Error terms against the paper: (label, measured, paper, error).

    Overheads compare as VG/native ratios (rates as native/VG, so that
    every ratio reads "times slower"). Figure 2 compares with a ratio of
    1.0, Figure 3 with its mean and worst reductions, and Figure 4
    counts error only above its 5% limit. Extension rows have no paper
    figure and give no term.
    """
    terms = []
    fig3 = []
    for row in rows:
        table, name = row["table"], row["name"]
        if table in ("t2", "t5"):
            ref = (PAPER_TABLE2 if table == "t2" else PAPER_TABLE5).get(name)
            if ref:
                paper = ref[1] / ref[0]
                measured = row["test"] / row["base"]
                terms.append((f"{table} {name} overhead", measured, paper,
                              abs(measured / paper - 1.0)))
        elif table in ("t3", "t4"):
            ref = (PAPER_TABLE3 if table == "t3" else PAPER_TABLE4).get(name)
            if ref:
                paper = ref[0] / ref[1]
                measured = row["base"] / row["test"]
                terms.append((f"{table} {name} overhead", measured, paper,
                              abs(measured / paper - 1.0)))
        elif table == "f2":
            measured = row["test"] / row["base"]
            terms.append((f"f2 {name} VG/native", measured, PAPER_FIG2_RATIO,
                          abs(measured / PAPER_FIG2_RATIO - 1.0)))
        elif table == "f3":
            fig3.append(_reduction_pct(row))
        elif table == "f4":
            measured = _reduction_pct(row)
            excess = max(0.0, measured - PAPER_FIG4_LIMIT_PCT)
            terms.append((f"f4 {name} reduction %", measured,
                          PAPER_FIG4_LIMIT_PCT,
                          excess / PAPER_FIG4_LIMIT_PCT))
    if fig3:
        for label, measured, paper in (
                ("f3 mean reduction %", statistics.mean(fig3),
                 PAPER_FIG3_MEAN_PCT),
                ("f3 worst reduction %", max(fig3), PAPER_FIG3_WORST_PCT)):
            terms.append((label, measured, paper,
                          abs(measured - paper) / paper))
    return terms


def paper_err_pct(rows):
    """Mean absolute relative error against the paper, in percent; None
    when no row has a paper figure."""
    terms = paper_terms(rows)
    if not terms:
        return None
    return 100.0 * statistics.mean(t[3] for t in terms)


def faster_than_native(rows):
    """Names of rows where the more protected side finished faster."""
    out = []
    for row in rows:
        table = row["table"]
        if table == "ext" and row["name"] not in PROTECTION_EXTENSIONS:
            continue
        lower = table in LOWER_IS_BETTER or table == "ext"
        if (row["test"] < row["base"]) if lower else (row["test"] > row["base"]):
            out.append(f"{table} {row['name']}")
    return out


# --- end-to-end metrics -----------------------------------------------------

def vg_sim_seconds(rep):
    """Simulated seconds of the VG machines' timed phases."""
    cycles = sum(m["sim_cycles"] for m in rep["machines"] if m["side"] == "vg")
    return cycles / CYCLES_PER_US / 1e6


def setup_seconds(machine):
    """Host seconds one machine spent outside its timed phases."""
    return (machine["build_s"] + machine["boot_s"] + machine["prep_s"]
            + machine["load_s"] + machine["teardown_s"])


def fastest_phases(reps, seconds):
    """Host seconds of a repetition, taking every phase from the
    repetition in which it was fastest. seconds(machine) lists the host
    seconds of the machine's phases.

    Each repetition builds the same machines in the same order and runs
    the same phases on them. Other load on the host only ever adds time,
    so the fastest of several copies of a phase is the steadiest
    estimate of its cost; a burst of interference then costs one copy of
    one phase rather than a whole repetition.
    """
    total = 0.0
    for i in range(len(reps[0]["machines"])):
        copies = zip(*(seconds(r["machines"][i]) for r in reps))
        total += sum(min(c) for c in copies)
    return total


def end_to_end(reps, rss_kb, attempted, failed):
    """The end-to-end metrics of one run, from its untraced repetitions.
    Returns (metrics, notes): metrics maps name to (value, unit); notes
    carry what the output states beside them."""
    first = reps[0]
    samples = first["samples"]
    tail_p = tail_percentile(len(samples))
    err = paper_err_pct(first["rows"])
    metrics = {
        "host_s": (fastest_phases(reps, lambda m: m["run_s"]), "s"),
        "setup_s": (fastest_phases(reps, lambda m: [setup_seconds(m)]), "s"),
        "host_rss_mb": (rss_kb / 1024.0, "MB"),
        "sim_vg_s": (vg_sim_seconds(first), "s"),
        "sim_vg_p50_us": (percentile(samples, 50) / CYCLES_PER_US, "us"),
        "sim_vg_tail_us": (percentile(samples, tail_p) / CYCLES_PER_US
                           if tail_p else None, "us"),
        "paper_err_pct": (err, "%"),
        "success_rate": (1.0 - error_rate(failed, attempted), "ratio"),
    }
    notes = {
        "tail_percentile": tail_p,
        "tail_beyond": beyond(len(samples), tail_p) if tail_p else 0,
        "samples": len(samples),
        "error_rate": error_rate(failed, attempted),
        "host_cpu_s": fastest_phases(reps, lambda m: m["run_cpu_s"]),
    }
    return metrics, notes


# --- per-layer metrics -------------------------------------------------------

# Per-layer metrics, in output order, with units.
CALL_TYPES = ("open", "read", "lseek", "close", "connect", "send", "recv",
              "ghost_alloc", "ghost_write", "ghost_read")
# open and ghost_alloc run once per machine: too few samples for a tail.
TAIL_CALLS = tuple(c for c in CALL_TYPES if c not in ("open", "ghost_alloc"))
PER_UNIT_COUNTERS = (
    ("sva.syscalls", "sva.syscalls"), ("sva.traps", "sva.traps"),
    ("sva.mmu_updates", "sva.mmu_updates"), ("sva.ic_saves", "sva.ic_saves"),
    ("kernel.insts", "kernel.insts"), ("kernel.memops", "kernel.memops"),
    ("kernel.transfers", "kernel.transfers"),
    ("kernel.bulk_bytes", "kernel.bulk_bytes"),
    ("kernel.forks", "kernel.forks"), ("kernel.page_faults", "kernel.page_faults"))
TOTAL_COUNTERS = (
    ("sva.context_switches", "sva.context_switches", "count"),
    ("compiler.exec_insts", "exec.insts", "count"),
    ("hw.nic_tx_packets", "nic.tx_packets", "count"),
    ("hw.nic_tx_bytes", "nic.tx_bytes", "B"),
    ("crypto.aes_bytes", "crypto.aes_bytes", "B"),
    ("crypto.sha_bytes", "crypto.sha_bytes", "B"),
    ("sva.ghost_pages_allocated", "sva.ghost_pages_allocated", "count"),
    ("hw.disk_requests", "disk.requests", "count"),
    ("hw.disk_blocks", "disk.blocks", "count"),
    ("kernel.swap_pages_stored", "swap.pages_stored", "count"),
    ("kernel.swap_pages_loaded", "swap.pages_loaded", "count"),
    ("sva.ghost_swap_batches", "sva.ghost_swap_batches", "count"),
    ("kernel.bcache_writebacks", "bcache.writebacks", "count"),
)
PROTECTIONS = (("sva.ic_cycles", "ic"), ("sva.mmu_check_cycles", "mmu"),
               ("compiler.sandbox_cycles", "sandbox"),
               ("compiler.cfi_cycles", "cfi"))
APP_SPANS = ("apps.lmbench", "apps.postmark", "apps.apache_bench",
             "apps.ssh_fetch")


def _ratio(num, den):
    return num / den if den else 0.0


def _span_sums(spans, rep):
    sums = {}
    for s in spans:
        if s["rep"] == rep:
            sums[s["name"]] = sums.get(s["name"], 0.0) + s["end"] - s["start"]
    return sums


def _median_over(reps, fn):
    return statistics.median(fn(r) for r in reps)


def layer_metrics(workload, untraced, traced, breakdown, spans):
    """Per-layer metrics of a traced run: name -> (value, unit).

    Host-time figures are medians over the traced repetitions, from
    their spans; simulated counts come from the VG machines' timed
    phases (set-up too, for the load-time verifiers) and repeat
    exactly; protection costs come from the single-protection
    breakdown.
    """
    first = traced[0]
    vg_run = first["stats"]["vg"]["run"]
    native_run = first["stats"]["native"]["run"]
    units = first["units"]

    def span_total(name):
        return lambda r: _span_sums(spans, r["rep"]).get(name, 0.0)

    def setup_and_run(r, stat):
        vg = r["stats"]["vg"]
        return vg["setup"].get(stat, 0) + vg["run"].get(stat, 0)

    def all_switches(r):
        return sum(r["stats"][side]["run"].get("sva.context_switches", 0)
                   for side in ("native", "vg"))

    out = {}
    out["hw.machine_build_s"] = (_median_over(traced, span_total("hw.machine_build")), "s")
    out["sva.boot_s"] = (_median_over(traced, span_total("sva.boot")), "s")
    out["compiler.load_s"] = (_median_over(traced, span_total("compiler.load_module")), "s")
    for name in ("mverify", "iflow"):
        out[f"compiler.{name}_wall_ms"] = (_median_over(
            traced, lambda r: setup_and_run(r, f"{name}.wall_ns") / 1e6), "ms")
    for name in ("mverify", "iflow"):
        out[f"compiler.{name}_insts"] = (setup_and_run(first, f"{name}.insts"),
                                         "count")
    out["compiler.trace_coverage"] = (
        _ratio(vg_run.get("trace.retired_insts", 0), vg_run.get("exec.insts", 0)), "ratio")
    run_s = _median_over(traced, span_total("kernel.run"))
    out["kernel.run_s"] = (run_s, "s")
    out["kernel.host_us_per_switch"] = (
        _median_over(traced, lambda r: _ratio(
            _span_sums(spans, r["rep"]).get("kernel.run", 0.0) * 1e6,
            all_switches(r))), "us")

    for call in CALL_TYPES:
        pooled = [s for r in traced for s in r["calls"].get(call, [])]
        host = [s[0] for s in pooled]
        sim = [s[1] for s in pooled]
        tail_p = tail_percentile(len(host))
        out[f"kernel.syscall_host_ns.{call}.p50"] = (
            percentile(host, 50) if host else 0, "ns")
        if call in TAIL_CALLS:
            out[f"kernel.syscall_host_ns.{call}.tail"] = (
                percentile(host, tail_p) if tail_p else 0, "ns")
        out[f"kernel.syscall_sim_cycles.{call}.p50"] = (
            percentile(sim, 50) if sim else 0, "cycles")

    native = breakdown.get("native", 0)
    full = sum(m["sim_cycles"] for m in untraced[0]["machines"]
               if m["side"] == "vg")
    costs = 0
    for name, key in PROTECTIONS:
        cost = breakdown.get(key, 0) - native
        costs += cost
        out[name] = (cost, "cycles")
    out["kernel.protection_residual_cycles"] = (full - native - costs, "cycles")

    for name, stat in PER_UNIT_COUNTERS:
        out[f"{name}_per_unit"] = (_ratio(vg_run.get(stat, 0), units), "count")
    for name, stat, unit in TOTAL_COUNTERS:
        out[name] = (vg_run.get(stat, 0), unit)

    out["kernel.irq_coalesce_ratio"] = (_ratio(
        vg_run.get("kernel.irqs_coalesced", 0),
        vg_run.get("kernel.irqs_coalesced", 0)
        + vg_run.get("kernel.device_irqs", 0)), "ratio")
    out["kernel.zero_copy_ratio"] = (_ratio(
        vg_run.get("kernel.zero_copy_sends", 0),
        native_run.get("kernel.zero_copy_sends", 0)), "ratio")
    skew = 0.0
    for m in first["machines"]:
        if m["side"] == "vg" and len(m["clocks"]) > 1:
            skew = max(skew, _ratio(max(m["clocks"]) - min(m["clocks"]),
                                    max(m["clocks"])))
    out["sim.vcpu_clock_skew"] = (skew, "ratio")

    out["apps.request_host_us"] = (_median_over(traced, lambda r: _ratio(
        sum(_span_sums(spans, r["rep"]).get(n, 0.0) for n in APP_SPANS) * 1e6,
        r["units"])), "us")
    samples = first["samples"]
    out["apps.request_sim_us"] = (
        statistics.mean(samples) / CYCLES_PER_US if samples else 0, "us")
    extra = first["extra"]
    out["kernel.swap_cluster_yield"] = (_ratio(
        extra.get("swap.prefetch_used", 0), extra.get("swap.prefetched", 0)),
        "ratio")
    out["kernel.ghost_fault_us"] = (
        percentile(samples, 50) / CYCLES_PER_US
        if workload == "ghost_swap" else 0, "us")
    out["kernel.bcache_hit_ratio"] = (_ratio(
        vg_run.get("bcache.hits", 0),
        vg_run.get("bcache.hits", 0) + vg_run.get("bcache.misses", 0)), "ratio")
    out["hw.tlb_hit_ratio"] = (_ratio(
        vg_run.get("mmu.tlb_hits", 0),
        vg_run.get("mmu.tlb_hits", 0) + vg_run.get("mmu.tlb_misses", 0)), "ratio")

    def run_s(m):
        return m["run_s"]

    out["trace.host_overhead_pct"] = (100.0 * (
        _ratio(fastest_phases(traced, run_s),
               fastest_phases(untraced, run_s)) - 1.0), "%")
    return out


def self_times(spans):
    """Host self time per layer (the span name's first component): each
    span's duration minus the part its children cover."""
    child_time = {}
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    out = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[layer] = out.get(layer, 0.0) + own
    return out


# The layer-to-end-to-end mapping: which workload each layer metric
# should concentrate in, and where it should stay near zero.
LAYER_MAP = (
    (("hw.machine_build_s", "sva.boot_s"), "setup_s", "kernel_ops",
     ("ssh_ghost",)),
    (("compiler.load_s", "compiler.mverify_wall_ms", "compiler.iflow_wall_ms",
      "compiler.mverify_insts", "compiler.iflow_insts"), "setup_s",
     "kernel_ops", ("web_smp", "ssh_ghost", "ghost_swap")),
    (("compiler.exec_insts", "compiler.trace_coverage"), "host_s",
     "kernel_ops", ("web_smp", "ssh_ghost", "ghost_swap")),
    (("kernel.run_s", "kernel.host_us_per_switch", "sva.context_switches"),
     "host_s", "web_smp", ("ssh_ghost",)),
    (("kernel.syscall_sim_cycles.read.p50",), "sim_vg_p50_us", "kernel_ops",
     ("ghost_swap",)),
    (tuple(p[0] for p in PROTECTIONS) + ("kernel.protection_residual_cycles",),
     "sim_vg_s", "kernel_ops", ("web_smp",)),
    (tuple(f"{p[0]}_per_unit" for p in PER_UNIT_COUNTERS), "sim_vg_s",
     "kernel_ops", ("ghost_swap",)),
    (("hw.nic_tx_packets", "hw.nic_tx_bytes", "kernel.irq_coalesce_ratio", "kernel.zero_copy_ratio",
      "sim.vcpu_clock_skew"), "sim_vg_tail_us", "web_smp", ("kernel_ops",)),
    (("crypto.aes_bytes", "crypto.sha_bytes", "sva.ghost_pages_allocated",
      "apps.request_host_us", "apps.request_sim_us"), "host_s", "ssh_ghost",
     ("web_smp",)),
    (("hw.disk_requests", "hw.disk_blocks", "kernel.swap_pages_stored",
      "kernel.swap_pages_loaded", "sva.ghost_swap_batches",
      "kernel.swap_cluster_yield", "kernel.ghost_fault_us"),
     "sim_vg_tail_us", "ghost_swap", ("web_smp",)),
    (("kernel.bcache_hit_ratio", "kernel.bcache_writebacks",
      "hw.tlb_hit_ratio"), "sim_vg_s", "kernel_ops", ("ssh_ghost",)),
)

# "Near zero" in a flat workload: at most this share of the dominant
# workload's value.
FLAT_SHARE = 0.1


def layer_check(values):
    """Check LAYER_MAP against per-layer values of every workload
    (workload -> name -> value). Yields (metric, dominant, flat,
    verdict) with verdict "ok" or what failed."""
    for metrics, _e2e, dominant, flats in LAYER_MAP:
        for name in metrics:
            top = values[dominant].get(name, 0)
            problems = []
            for w in WORKLOADS:
                if w != dominant and abs(values[w].get(name, 0)) > abs(top):
                    problems.append(f"{w} higher")
            for w in flats:
                if abs(values[w].get(name, 0)) > FLAT_SHARE * abs(top):
                    problems.append(f"{w} not flat")
            if top == 0:
                problems.append("zero in dominant workload")
            yield name, dominant, flats, "ok" if not problems else ", ".join(problems)
