"""Perf regression gate over the committed BENCH_*.json baselines.

CI reruns the engine and batched benches with ``--json`` and compares
the fresh numbers against the baselines committed under
``benchmarks/baselines/``.  Two kinds of metrics:

* **ratio** metrics (speedups, stage-throughput ratios) are computed
  *within one run on one machine*, so they transfer across hardware;
  a drop of more than ``--threshold`` (default 30%) vs. the baseline
  fails the gate.
* **absolute** metrics (pairs/sec) vary with the runner's hardware;
  they are reported and soft-warned on the same threshold but never
  fail CI.  Watch them locally when touching hot paths.

Updating the baseline (after an intentional perf change, with the diff
reviewed — treat it like regenerating a golden fixture):

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py \\
        benchmarks/bench_batched.py --benchmark-only --json /tmp/bench
    python benchmarks/check_regression.py --fresh /tmp/bench --update-baseline

Exit codes: 0 ok, 1 hard regression (or missing fresh results).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "baselines")

#: (file, dotted-path, kind) — kind "ratio" hard-gates, "absolute" warns.
METRICS = [
    ("BENCH_batched.json", "speedup", "ratio"),
    ("BENCH_batched.json", "mixed.speedup", "ratio"),
    ("BENCH_batched.json", "pairs_per_sec_batched", "absolute"),
    ("BENCH_batched.json", "pairs_per_sec_serial", "absolute"),
    ("BENCH_engine.json", "stages.extend.pairs_per_sec", "absolute"),
    ("BENCH_engine.json", "stages.cold.pairs_per_sec", "absolute"),
    ("BENCH_sweep.json", "speedup", "ratio"),
    ("BENCH_sweep.json", "cold_throughput_ratio", "ratio"),
    # warm-start seed quality: a ratio of two deterministic iteration
    # counts, so it transfers across hardware exactly.
    ("BENCH_sweep.json", "iters_ratio", "ratio"),
    # search: the /topk-vs-Gram speedup is computed within one run, so
    # it transfers across hardware.
    ("BENCH_search.json", "speedup_vs_gram_10k", "ratio"),
    ("BENCH_search.json", "qps.exact", "absolute"),
    # load: containment and success rates are machine-independent hard
    # gates; the scale-out gain (which flips sign on single-core
    # machines) only warns.
    ("BENCH_load.json", "poison.sibling_success_rate", "ratio"),
    ("BENCH_load.json", "poison.poison_rejected_rate", "ratio"),
    ("BENCH_load.json", "multi.ok_rate", "ratio"),
    ("BENCH_load.json", "p99_gain_vs_single", "absolute"),
    # chaos: recovery correctness is machine-independent — bitwise
    # identity with the serial executor and under seeded kills, the
    # chaos actually firing, and poison containment are hard 1.0 gates;
    # the recovery overhead is wall-clock-dependent and only warns.
    ("BENCH_chaos.json", "completed", "ratio"),
    ("BENCH_chaos.json", "kill_bitwise_identical", "ratio"),
    ("BENCH_chaos.json", "chaos_fired", "ratio"),
    ("BENCH_chaos.json", "quarantine_contained", "ratio"),
    ("BENCH_chaos.json", "serial_bitwise_identical", "ratio"),
    ("BENCH_chaos.json", "recovery_overhead", "absolute"),
]

#: Ratio metrics derived from one file's fields (numerator / denominator),
#: machine-independent by construction.
DERIVED_RATIOS = [
    (
        "BENCH_engine.json",
        "extend_vs_cold_throughput",
        "stages.extend.pairs_per_sec",
        "stages.cold.pairs_per_sec",
    ),
]


def _get(payload: dict, dotted: str):
    cur = payload
    for part in dotted.split("."):
        cur = cur[part]
    return float(cur)


def _load(dirname: str, filename: str) -> dict | None:
    path = os.path.join(dirname, filename)
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def collect(dirname: str) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, kind) for every resolvable metric."""
    out: dict[str, tuple[float, str]] = {}
    for filename, dotted, kind in METRICS:
        payload = _load(dirname, filename)
        if payload is None:
            continue
        out[f"{filename}:{dotted}"] = (_get(payload, dotted), kind)
    for filename, name, num, den in DERIVED_RATIOS:
        payload = _load(dirname, filename)
        if payload is None:
            continue
        out[f"{filename}:{name}"] = (_get(payload, num) / _get(payload, den), "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", required=True,
                    help="directory holding freshly generated BENCH_*.json")
    ap.add_argument("--baseline", default=BASELINE_DIR,
                    help=f"baseline directory (default {BASELINE_DIR})")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="allowed fractional drop vs. baseline (default 0.30)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="copy the fresh results over the baselines and exit")
    args = ap.parse_args(argv)

    fresh_files = sorted(
        f for f in os.listdir(args.fresh)
        if f.startswith("BENCH_") and f.endswith(".json")
    ) if os.path.isdir(args.fresh) else []
    if not fresh_files:
        print(f"error: no BENCH_*.json under {args.fresh}", file=sys.stderr)
        return 1

    if args.update_baseline:
        os.makedirs(args.baseline, exist_ok=True)
        for f in fresh_files:
            shutil.copy(os.path.join(args.fresh, f),
                        os.path.join(args.baseline, f))
            print(f"baseline updated: {os.path.join(args.baseline, f)}")
        return 0

    base = collect(args.baseline)
    fresh = collect(args.fresh)
    if not base:
        print(f"error: no baselines under {args.baseline}; seed them with "
              "--update-baseline", file=sys.stderr)
        return 1

    hard_fail = False
    print(f"{'metric':58s} {'baseline':>10s} {'fresh':>10s} {'ratio':>7s}  verdict")
    for name, (b_val, kind) in sorted(base.items()):
        if name not in fresh:
            print(f"{name:58s} {b_val:10.3f} {'missing':>10s}       -  FAIL")
            hard_fail = True
            continue
        f_val, _ = fresh[name]
        ratio = f_val / b_val if b_val else float("inf")
        ok = ratio >= 1.0 - args.threshold
        if kind == "ratio":
            verdict = "ok" if ok else "REGRESSION"
            hard_fail |= not ok
        else:
            verdict = "ok" if ok else "warn (absolute; not gated)"
        print(f"{name:58s} {b_val:10.3f} {f_val:10.3f} {ratio:6.2f}x  {verdict}")
    if hard_fail:
        print(f"\nperf gate FAILED (>{100 * args.threshold:.0f}% drop on a "
              "ratio metric); if intentional, rerun with --update-baseline "
              "and commit the new baselines", file=sys.stderr)
        return 1
    print("\nperf gate ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
