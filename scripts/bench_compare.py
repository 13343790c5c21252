#!/usr/bin/env python3
"""Compare a freshly recorded benchmark baseline against the committed one.

Usage:
    scripts/bench_compare.py [--baseline BENCH_BASELINE.json]
                             [--candidate BENCH_BASELINE.json]
                             [--threshold 0.20]
                             [--time-mode fail|warn]
                             [--counter-pattern REGEX]

Typical flow:
    scripts/bench_baseline.sh          # refresh bench/baseline + candidate
    git stash -- BENCH_BASELINE.json   # keep the committed reference aside
    scripts/bench_compare.py --candidate BENCH_BASELINE.json \
                             --baseline /tmp/committed.json

Two kinds of gates:
  * real_time — host-dependent. Regressions beyond the threshold fail by
    default; pass --time-mode warn on shared/noisy hosts (the CI container
    is a 1-core box where timings swing with neighbours).
  * counters matching --counter-pattern (default: allocation counts,
    clause-arena sizes, SAT conflict counts, encoded CNF sizes, the
    table engine's enumerated pairs, and simulation kernel callbacks and
    bus traffic per run, which are deterministic and host-independent) — regressions beyond the threshold always fail; a
    counter that appears from a zero baseline fails. A gated counter that
    goes dark fails too, otherwise the gate would silently stop gating:
    one that disappears from a still-running benchmark, and one that falls
    from nonzero to 0 (the work it measured moved elsewhere, e.g. to
    another engine). Re-record the baseline if either is intentional.

Missing/new benchmarks are reported but are not failures — renames and
added workloads should not break CI.
"""

import argparse
import json
import re
import sys


def load(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    return data.get("benchmarks", {})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_BASELINE.json",
                        help="committed reference (default: BENCH_BASELINE.json)")
    parser.add_argument("--candidate", required=True,
                        help="freshly recorded baseline JSON to check")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional regression (0.20 = 20%%)")
    parser.add_argument("--time-mode", choices=("fail", "warn"), default="fail",
                        help="whether real_time regressions fail or only warn")
    parser.add_argument("--counter-pattern",
                        default=r"alloc|arena_|bus_beats|bus_transactions|conflict|"
                                r"encoded_|gates_|gen_|lint_|obs_|sim_callbacks|tables_",
                        help="regex of counter names that hard-fail on regression "
                             "(host-independent metrics only: allocation counts, "
                             "SAT conflicts, encoded CNF vars/clauses, "
                             "incl. the fault-grading campaigns' per-fault "
                             "encoded_* sums, the platform "
                             "generator's gen_tasks/gen_gates/gen_beats "
                             "per-seed structure counts, "
                             "PCC's lint_pruned_faults and the obs layer's "
                             "obs_allocs/obs_span_drops/obs_spans_recorded/"
                             "obs_snapshot_entries zero-or-fixed contracts, "
                             "the table engine's tables_checks/"
                             "tables_pairs, and the simulations' "
                             "sim_callbacks (kernel callbacks per run) and "
                             "bus_transactions/bus_beats)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    candidate = load(args.candidate)
    counter_re = re.compile(args.counter_pattern)

    time_regressions = []
    counter_regressions = []
    improvements = []
    for name, ref in sorted(baseline.items()):
        cand = candidate.get(name)
        if cand is None:
            print(f"  [gone]     {name}")
            continue
        ref_t, cand_t = ref["real_time"], cand["real_time"]
        if ref_t > 0:
            delta = (cand_t - ref_t) / ref_t
            if delta > args.threshold:
                time_regressions.append((name, delta))
                tag = "REGRESS" if args.time_mode == "fail" else "slower "
                print(f"  [{tag}]  {name}: {ref_t:.3f} -> {cand_t:.3f} "
                      f"{ref['time_unit']} (+{delta * 100:.1f}%)")
            elif delta < -args.threshold:
                improvements.append((name, delta))
                print(f"  [faster]   {name}: {ref_t:.3f} -> {cand_t:.3f} "
                      f"{ref['time_unit']} ({delta * 100:.1f}%)")
        for cname, cref in ref.get("counters", {}).items():
            if not counter_re.search(cname):
                continue
            ccand = cand.get("counters", {}).get(cname)
            if ccand is None:
                # A hard-gated counter that vanished while its benchmark
                # still runs would silently neuter the gate — treat it as a
                # failure (re-record the baseline if the removal is
                # intentional).
                counter_regressions.append((f"{name}:{cname}", float("inf")))
                print(f"  [COUNTER]  {name}: gated counter {cname} disappeared "
                      f"(re-record if intentional)")
                continue
            if cref == 0:
                if ccand > 0:
                    counter_regressions.append((f"{name}:{cname}", float("inf")))
                    print(f"  [COUNTER]  {name}: {cname} appeared 0 -> {ccand:g}")
                continue
            if ccand == 0:
                # A gated counter that drops to 0 no longer gates anything:
                # the work it measured stopped or moved (e.g. to another
                # engine). Fail like a vanished counter.
                counter_regressions.append((f"{name}:{cname}", float("-inf")))
                print(f"  [COUNTER]  {name}: gated counter {cname} fell "
                      f"{cref:g} -> 0 (re-record if intentional)")
                continue
            cdelta = (ccand - cref) / cref
            if cdelta > args.threshold:
                counter_regressions.append((f"{name}:{cname}", cdelta))
                print(f"  [COUNTER]  {name}: {cname} {cref:g} -> {ccand:g} "
                      f"(+{cdelta * 100:.1f}%)")
    for name in sorted(set(candidate) - set(baseline)):
        print(f"  [new]      {name}")

    print(f"\n{len(baseline)} baseline entries, "
          f"{len(time_regressions)} real_time regression(s) beyond "
          f"{args.threshold * 100:.0f}% ({args.time_mode} mode), "
          f"{len(counter_regressions)} counter regression(s), "
          f"{len(improvements)} improvement(s)")
    if counter_regressions:
        return 1
    if time_regressions and args.time_mode == "fail":
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
