"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sweep_q16 --seed 1 \\
        --seconds 45 --trace 0

Run from the repository root; the program is imported from ``src/``.

This file is a launcher.  It pins BLAS/OpenMP to one thread in the
environment of the processes it starts, so two process workers on two
cores do not oversubscribe, and it starts this same file again as
fresh child processes:

* ``--child setup`` sets the workload up, prints its set-up time and
  exits.  Untraced runs start ``SETUPS - 1`` of these first.
* ``--child measure`` sets the workload up, runs timed rounds for
  ``--seconds``, checks every output (see ``workloads.py``) and prints
  the result.

A set-up is timed from just before its process is started to just
before its first timed unit would begin.  That covers interpreter
start, imports, every lazy import and first-use cost, input generation
and one untimed warm-up unit, and no correctness check.  ``setup_s`` is
the median over the ``SETUPS`` processes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds whose layer calls are timed from outside
(see ``ledger.py``), prints the per-layer ledger, and writes every span
to ``.perfbench/ledger-<workload>-seed<seed>.json.gz``.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` and
``failed`` count checked pair values.  The exit code is 1 when any
check fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Thread-count variables of the BLAS and OpenMP runtimes NumPy may load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Set-ups per untraced run, each in its own process; ``setup_s`` is
#: their median.
SETUPS = 3


def now() -> float:
    """A clock that reads the same in every process of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set by the launcher on the processes it starts.
    p.add_argument("--child", choices=("setup", "measure"),
                   help=argparse.SUPPRESS)
    p.add_argument("--since", type=float, help=argparse.SUPPRESS)
    p.add_argument("--setups", default="", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def launch(args) -> int:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    base = [sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    for _ in range(0 if args.trace else SETUPS - 1):
        proc = subprocess.run(
            base + ["--child", "setup", "--since", repr(now())],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode:
            return proc.returncode
        setups.append(proc.stdout.split()[-1])
    return subprocess.run(
        base + ["--child", "measure", "--since", repr(now()),
                "--setups", ",".join(setups)],
        env=env,
    ).returncode


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    env.update({var: os.environ.get(var) for var in THREAD_VARS})
    return env


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest peak among reaped worker processes."""
    import resource

    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def measure(workload, seconds: float, traced: bool):
    """Timed rounds until ``seconds`` pass; traced runs alternate an
    untraced round with a traced one and need at least one of each."""
    import gc

    from ledger import Clock, LayerTracer

    plain = Clock()
    tracer = LayerTracer() if traced else None
    start = time.perf_counter()
    k = 0
    while True:
        # Start each round from a collected heap, so no unit pays for
        # the previous round's garbage.
        gc.collect()
        workload.round(tracer if traced and k % 2 else plain)
        k += 1
        if time.perf_counter() - start >= seconds and (
            not traced or tracer.samples
        ):
            return plain, tracer


def write_spans(path: str, record: dict, spans) -> None:
    import gzip
    import json

    record = dict(record, spans=[list(s) for s in spans])
    with gzip.open(path, "wt") as fh:
        json.dump(record, fh)


def child(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import json
    import multiprocessing
    import shutil
    import statistics
    import tempfile

    import numpy as np

    from ledger import LEDGER_ROWS, layer_metrics
    from workloads import WORKLOADS, Oracle

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"pick from {sorted(WORKLOADS)}")
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    oracle = Oracle()
    try:
        workload = cls(args.seed, workdir, oracle)
        workload.setup()
        setup_s = now() - args.since
        if args.child == "setup":
            print(repr(setup_s))
            return 0
        plain, tracer = measure(workload, args.seconds, bool(args.trace))
        workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for proc in multiprocessing.active_children():
            proc.join()

    setups = [float(s) for s in args.setups.split(",") if s] + [setup_s]
    env = environment()
    samples = plain.samples
    print(f"# env {json.dumps(env)}")
    print(f"# {cls.name} seed={args.seed}: {len(samples)} untraced units, "
          f"{cls.positions} positions/unit, set-ups "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    print(f"# pairs_attempted={oracle.attempted} pairs_failed={oracle.failed}")
    for line in oracle.failures:
        print(f"# FAILED {line}")

    if args.trace:
        metrics = layer_metrics(tracer, samples)
        wall = metrics["ledger.unit_s"][0]
        ledger_sum = sum(metrics[row][0] for row in LEDGER_ROWS)
        if not np.isclose(ledger_sum, wall, rtol=1e-9):
            raise RuntimeError(
                f"ledger rows sum to {ledger_sum} s, unit wall is {wall} s"
            )
        print(f"# ledger per unit over {len(tracer.samples)} traced units "
              f"(wall {wall:.6f} s, tracing overhead "
              f"{metrics['trace.overhead_s'][0]:+.6f} s):")
        for row in LEDGER_ROWS:
            value = metrics[row][0]
            print(f"#   {row:32s} {value:12.6f} s  {value / wall:7.2%}")
        path = os.path.join(
            out_dir, f"ledger-{cls.name}-seed{args.seed}.json.gz"
        )
        write_spans(path, {
            "workload": cls.name, "seed": args.seed, "env": env,
            "metrics": metrics, "traced_units": tracer.samples,
            "untraced_units": samples,
        }, tracer.spans)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
        for target in sorted(tracer.missing):
            print(f"# probe target missing, not traced: {target}")
        result = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        }
    else:
        result = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "unit_s.p50": {"value": float(np.median(samples)), "unit": "s"},
            "pairs_per_s": {
                "value": cls.positions * len(samples) / sum(samples),
                "unit": "1/s",
            },
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    correct = oracle.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": result,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return child(args) if args.child else launch(args)


if __name__ == "__main__":
    sys.exit(main())
