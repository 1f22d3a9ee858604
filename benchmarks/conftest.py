"""Shared fixtures and reporting helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper: it prints the
same rows/series the paper reports (scaled to a single-CPU-core budget)
and asserts the *shape* criteria listed in DESIGN.md §5 — who wins, by
roughly what factor, where crossovers fall.  Absolute numbers differ
from the paper's Summit/V100 testbed by construction.

Run with:  pytest benchmarks/ --benchmark-only
Scale up:  REPRO_BENCH_SCALE=4 pytest benchmarks/ --benchmark-only

Machine-readable results: pass ``--json DIR`` (or set
``REPRO_BENCH_JSON=DIR``) and each participating bench writes a
``BENCH_<name>.json`` file there — pairs/sec, cache-hit stats, stage
timings — so the perf trajectory can be tracked PR-over-PR.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.cache import atomic_write_json

#: Global workload multiplier (1.0 = CI-friendly sizes).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store",
        default=os.environ.get("REPRO_BENCH_JSON"),
        metavar="DIR",
        help="write machine-readable BENCH_<name>.json result files "
             "into this directory",
    )


def banner(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def write_bench_json(request, name: str, payload: dict) -> str | None:
    """Persist one bench's results as ``<dir>/BENCH_<name>.json``.

    No-op (returns None) when ``--json``/``REPRO_BENCH_JSON`` is unset.
    Files are written atomically so an interrupted run never leaves a
    truncated result for the trajectory tooling to trip on.
    """
    out_dir = request.config.getoption("--json")
    if not out_dir:
        return None
    os.makedirs(out_dir, exist_ok=True)
    target = os.path.join(out_dir, f"BENCH_{name}.json")
    atomic_write_json(target, {"bench": name, "scale": SCALE, **payload},
                      indent=1)
    print(f"[bench-json] wrote {target}")
    return target


def median_pair(baseline, candidate, pairs: int):
    """Interleaved (baseline, candidate) timings; the median-ratio pair.

    ``baseline()`` and ``candidate()`` each return a tuple whose second
    item is the seconds they took.  The two calls of a pair run back to
    back, the baseline first in even pairs and last in odd ones, so a
    seconds-scale slow phase of a shared runner slows both arms of a
    pair instead of one arm's runs, and one disturbed pair cannot move
    the median.  Returns the pair whose baseline/candidate time ratio
    is the median, as ``(baseline_tuple, candidate_tuple)``, and every
    pair's ratio in ascending order.
    """
    runs = []
    for i in range(pairs):
        if i % 2 == 0:
            base = baseline()
            cand = candidate()
        else:
            cand = candidate()
            base = baseline()
        runs.append((base, cand))
    runs.sort(key=lambda run: run[0][1] / run[1][1])
    return runs[len(runs) // 2], [base[1] / cand[1] for base, cand in runs]


@pytest.fixture(scope="session")
def scale() -> float:
    return SCALE
