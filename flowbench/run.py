#!/usr/bin/env python3
"""Symbad flow benchmark: builds the driver from source, runs one workload,
prints a human-readable report and, as the last stdout line, one JSON object
{"correct", "attempted", "failed", "metrics"}.

    python3 flowbench/run.py --workload paper_flow --seed 0 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics (spans off, SYMBAD_OBS=1).
--trace 1 reports the per-layer metrics: self times aggregated from the
driver's Chrome trace (SYMBAD_OBS=2 iterations, interleaved with untraced
ones), per-iteration work counters, and the trace's own overhead and
coverage. It also writes the per-layer table and folded stacks next to the
trace under the build directory. See flowbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_flow", "fault_grading", "platform_sweep")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_TIMEOUT_S = 170

# What each workload's headline throughput counts (run.py's work_per_s).
WORK_UNIT = {"paper_flow": "faults", "fault_grading": "faults",
             "platform_sweep": "scenarios"}

# Per-layer self times: "<span>.self_ms" for each of these span names. The
# driver's boundary spans and the ones src/ emits.
SELF_TIME_SPANS = (
    "atpg.evaluate", "atpg.genetic_testbench", "atpg.sat_generate_test",
    "pcc.check_property_coverage", "mc.check_all", "mc.check", "opt.run",
    "lint.analyze", "sim.kernel.run", "exec.scenario", "core.system_model.run",
    "lpv", "symbc.check_source", "app.profile_reference",
)
# Per-iteration work counters (obs registry deltas), reported as counts.
WORK_COUNTERS = (
    "pcc.detected_by_simulation", "pcc.detected_by_bmc", "pcc.lint_pruned",
    "pcc.encoded_clauses", "sat.solves", "sat.decisions", "sat.propagations",
    "sat.conflicts", "mc.frames_encoded", "mc.portfolio.frames_encoded",
    "opt.gates_after", "lint.sat_proofs", "sim.kernel.callbacks",
    "sim.kernel.delta_cycles", "exec.scenarios", "exec.scenario_failures",
    "exec.agreement_failures",
)
# Spans on threads without a campaign worker id trace under tid >= 1000
# (obs::ScopedWorkerId); that is the thread that runs the iteration.
MAIN_THREAD_TID = 1000


def fail(message, code=1):
    print(f"flowbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    if not 1 <= args.seconds <= 120:
        fail("--seconds must be in [1, 120]", 2)
    return args


# ------------------------------------------------------------------ build

def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no Symbad source tree at {ROOT} (CMakeLists.txt and src/ are needed)", 2)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "flowbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "--target", "flowbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "flowbench"


def revision():
    """Git revision when run from a clone, else 'none'."""
    if not (ROOT / ".git").exists():
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True, env=env)
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """SHA-256 over src/ (paths and bytes): identifies the measured program
    even where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -------------------------------------------------------------- statistics

def p90(values):
    """Nearest-rank 90th percentile and how many samples lie above it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# ----------------------------------------------------------------- profile

def profile(trace_path, iterations):
    """Per-span (calls, inclusive ms, self ms) per traced iteration, folded
    stacks in total microseconds, and the main thread's total covered time
    in ms. Self time is a span's duration minus its children's,
    children being the next-deeper spans nested in it on the same thread."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = {}
    for ev in events:
        by_tid.setdefault(ev["tid"], []).append(ev)
    rows = {}
    folded = {}
    covered_us = 0.0
    for tid, evs in by_tid.items():
        evs.sort(key=lambda e: (e["ts"], e["args"]["depth"]))
        stack = []
        nodes = []
        for ev in evs:
            depth = ev["args"]["depth"]
            while stack and stack[-1]["depth"] >= depth:
                stack.pop()
            parent = stack[-1] if stack else None
            node = {"name": ev["name"], "dur": ev["dur"], "depth": depth, "child": 0.0,
                    "path": (parent["path"] + ";" if parent else "") + ev["name"]}
            if parent is not None:
                parent["child"] += ev["dur"]
            stack.append(node)
            nodes.append(node)
        for node in nodes:
            self_us = max(0.0, node["dur"] - node["child"])
            row = rows.setdefault(node["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += node["dur"]
            row[2] += self_us
            folded[node["path"]] = folded.get(node["path"], 0.0) + self_us
            if tid >= MAIN_THREAD_TID:
                covered_us += self_us
    n = max(1, iterations)
    table = {name: (calls / n, incl / n / 1e3, self_us / n / 1e3)
             for name, (calls, incl, self_us) in rows.items()}
    return table, folded, covered_us / 1e3


def write_profile(base, table, folded, iterations):
    lines = [f"# per traced iteration, {iterations} iterations",
             f"{'span':<34}{'calls':>10}{'inclusive_ms':>15}{'self_ms':>12}"]
    for name in sorted(table):
        calls, incl, self_ms = table[name]
        lines.append(f"{name:<34}{calls:>10.1f}{incl:>15.4f}{self_ms:>12.4f}")
    table_text = "\n".join(lines) + "\n"
    base.with_suffix(".profile.txt").write_text(table_text)
    base.with_suffix(".folded.txt").write_text(
        "".join(f"{path} {round(us)}\n" for path, us in sorted(folded.items())))
    return table_text


# ----------------------------------------------------------------- metrics

def end_to_end(run):
    """BENCHMARK.json's bounded end-to-end metrics (name -> (value, unit)),
    from the untraced iterations."""
    p50 = statistics.median(run["untraced_ms"])
    work = run[WORK_UNIT[run["workload"]]]
    return {
        "iter_ms_p50": (p50, "ms"),
        "work_per_s": (work / (p50 / 1e3), "1/s"),
        "setup_s": (run["setup_s"], "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def unbounded(run):
    """The other user-visible metrics, recorded with the per-layer set: the
    p90, which swings with host interference far more than the median, and
    the workload-specific throughputs, each zero on some workload."""
    p50_s = statistics.median(run["untraced_ms"]) / 1e3
    return {
        "iter_ms_p90": (p90(run["untraced_ms"])[0], "ms"),
        "faults_per_s": (run["faults"] / p50_s, "1/s"),
        "scenarios_per_s": (run["scenarios"] / p50_s, "1/s"),
        "sim_cycles_per_s": (median_or_zero(run["sim_cycles_per_s"]), "1/s"),
    }


def per_layer(run, table, covered_ms):
    c = run["counters"]
    traced = run["traced_ms"]
    metrics = {}
    for span in SELF_TIME_SPANS:
        metrics[f"{span}.self_ms"] = (table.get(span, (0, 0.0, 0.0))[2], "ms")
    for name in WORK_COUNTERS:
        metrics[name] = (c.get(name, 0), "count")
    faults = c.get("pcc.faults_total", 0)
    by_sim = c.get("pcc.detected_by_simulation", 0)
    pruned = c.get("pcc.lint_pruned", 0)
    metrics["pcc.sim_detect_ratio"] = (ratio(by_sim, faults), "ratio")
    metrics["pcc.bmc_detect_ratio"] = (
        ratio(c.get("pcc.detected_by_bmc", 0), faults - by_sim - pruned), "ratio")
    metrics["lint.prune_ratio"] = (ratio(pruned, faults - by_sim), "ratio")
    metrics["sim.ns_per_callback"] = (
        ratio(metrics["sim.kernel.run.self_ms"][0] * 1e6, c.get("sim.kernel.callbacks", 0)),
        "ns")
    metrics["exec.queue_wait_ms"] = (median_or_zero(run["queue_wait_ms"]), "ms")
    metrics["exec.busy_ratio"] = (median_or_zero(run["busy_ratio"]), "ratio")
    metrics.update(unbounded(run))
    metrics["trace_overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(run["untraced_ms"]) - 1.0), "%")
    metrics["trace_coverage_pct"] = (100.0 * covered_ms / sum(traced), "%")
    return metrics


def counters_digest(counters):
    text = json.dumps(counters, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def same_as_previous_run(path, src, counters):
    """Compares the work counters with the last run of this workload and
    seed on the same sources (either trace level), then records these.
    Returns False only on a mismatch."""
    same = True
    if path.is_file():
        previous = json.loads(path.read_text())
        same = previous["src"] != src or previous["counters"] == counters
    path.write_text(json.dumps({"src": src, "counters": counters}, sort_keys=True))
    return same


# -------------------------------------------------------------------- main

def main():
    args = parse_args()
    binary = build()
    out_dir = binary.parent / "out"
    out_dir.mkdir(exist_ok=True)
    base = out_dir / f"{args.workload}-seed{args.seed}"
    trace_path = base.with_suffix(".trace.json")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {BINARY_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"driver exited with {done.returncode}")
    run = json.loads(done.stdout.strip().splitlines()[-1])

    src = source_digest()
    knobs = " ".join(f"{k}={'unset' if v is None else v}" for k, v in run["knobs"].items())
    print(f"manifest: workload={args.workload} seed={args.seed} rev={revision()} "
          f"src={src} nproc={run['nproc']} knobs: {knobs} "
          f"outputs={run['output_digest']} counters={counters_digest(run['counters'])}")

    e2e = end_to_end(run)
    shown = dict(e2e)
    shown.update(unbounded(run))
    shown["error_rate"] = (ratio(run["failed"], run["attempted"]), "ratio")
    for name, (value, unit) in shown.items():
        note = ""
        if name == "iter_ms_p90":
            note = f"  ({len(run['untraced_ms'])} samples, {p90(run['untraced_ms'])[1]} above)"
        elif name == "setup_s":
            note = f"  (median of {run['setups']} set-ups)"
        elif value == 0 and name.endswith("_per_s"):
            note = "  (n/a for this workload)"
        print(f"{name:<20}{value:>18.6g} {unit}{note}")
    for error in run["errors"]:
        print(f"error: {error}")
    if run["counter_mismatches"]:
        print(f"error: work counters differ between iterations "
              f"({run['counter_mismatches']}x; first: {run['first_mismatch']})")

    repeatable = same_as_previous_run(base.with_suffix(".counters.json"), src,
                                      run["counters"])
    if not repeatable:
        print("error: work counters differ from the previous run of this seed")
    correct = run["failed"] == 0 and run["counter_mismatches"] == 0 and repeatable
    if args.trace:
        if run["span_drops"]:
            print(f"error: {run['span_drops']} spans dropped")
            correct = False
        table, folded, covered_ms = profile(trace_path, len(run["traced_ms"]))
        print(write_profile(base, table, folded, len(run["traced_ms"])), end="")
        metrics = per_layer(run, table, covered_ms)
        for name, (value, unit) in metrics.items():
            print(f"{name:<40}{value:>18.6g} {unit}")
        print(f"profile: {base.with_suffix('.profile.txt')} "
              f"folded: {base.with_suffix('.folded.txt')}")
    else:
        metrics = e2e

    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
