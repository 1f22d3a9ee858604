"""Fault-tolerant supervised Gram execution bench (ISSUE 10).

Three claims, one engine configuration apart:

1. **Supervision changes no bits** — the fault-free supervised run
   returns a Gram matrix bitwise identical to the serial executor's on
   the same tile plan.
2. **Recovery is exact** — a supervised run disturbed by seeded worker
   kills (``kill-worker:p=0.3,seed=7``, the ISSUE's acceptance
   scenario) completes with a Gram matrix **bitwise identical** to the
   undisturbed supervised run, while actually having retried and
   respawned (retries > 0 asserts the chaos fired; a run the faults
   missed would gate nothing).
3. **Poison is contained** — under always-kill chaos that survives
   every retry (``attempts=99``), the run still terminates: every tile
   is quarantined, every pair comes back NaN with a diagnostic, and
   nothing leaks into the value cache or the block store.

The committed baseline (``benchmarks/baselines/BENCH_chaos.json``)
hard-gates the machine-independent ratios PR over PR: bitwise
identity with the serial executor and under kills, completion,
quarantine containment.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_chaos.py \
        --benchmark-only --json /tmp/bench
"""

from __future__ import annotations

import time

import numpy as np

from conftest import SCALE, banner, write_bench_json
from repro.engine import GramEngine
from repro.graphs.generators import random_labeled_graph
from repro.kernels.basekernels import synthetic_kernels
from repro.kernels.marginalized import MarginalizedGraphKernel

#: The ISSUE's acceptance scenario: kill probability >= 0.3, seeded.
KILL_SPEC = "kill-worker:p=0.3,seed=7"

#: Poison arm: kills that survive every retry force quarantine.
POISON_SPEC = "kill-worker:p=1.0,attempts=99,seed=3"

WORKERS = 2
TILE_PAIRS = 8


def make_graphs(n: int, seed0: int = 5000) -> list:
    return [
        random_labeled_graph(5 + (k % 4), density=0.55, weighted=True,
                             seed=seed0 + k)
        for k in range(n)
    ]


def make_engine(**kw):
    nk, ek = synthetic_kernels()
    mgk = MarginalizedGraphKernel(nk, ek, q=0.1, engine="fused_batched",
                                  solver="pcg")
    kw.setdefault("executor", "process_supervised")
    kw.setdefault("max_workers", WORKERS)
    kw.setdefault("batch_pairs", TILE_PAIRS)
    kw.setdefault("cache", False)
    return GramEngine(mgk, **kw)


def _timed_gram(eng, graphs):
    t0 = time.perf_counter()
    res = eng.gram(graphs)
    wall = time.perf_counter() - t0
    eng.close()
    return res, wall


def run_chaos_bench():
    n = int(16 * max(1.0, SCALE) ** 0.5)
    graphs = make_graphs(n)
    pairs = n * (n + 1) // 2

    # Arm 0: serial executor (the bitwise reference).
    serial, serial_t = _timed_gram(make_engine(executor="serial"), graphs)

    # Arm 1: fault-free supervised run (the identity reference).
    clean, clean_t = _timed_gram(make_engine(), graphs)
    clean_diag = clean.info["diagnostics"]

    # Arm 2: the same run under seeded worker kills.
    killed, killed_t = _timed_gram(make_engine(chaos=KILL_SPEC), graphs)
    kill_diag = killed.info["diagnostics"]
    kill_bitwise = bool(
        np.array_equal(clean.matrix, killed.matrix)
        and np.array_equal(clean.iterations, killed.iterations)
    )

    # Arm 3: poison — every attempt dies; the run must still terminate
    # with every pair quarantined to NaN and nothing cached.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        poison, poison_t = _timed_gram(
            make_engine(chaos=POISON_SPEC, max_tile_retries=1), graphs
        )
    poison_diag = poison.info["diagnostics"]
    contained = bool(
        poison_diag.quarantined_pairs == pairs
        and poison_diag.solves == 0
        and np.isnan(poison.matrix).all()
    )

    return {
        "n": n,
        "pairs": pairs,
        "tiles": clean_diag.tiles,
        "workers": WORKERS,
        "kill_spec": KILL_SPEC,
        "serial_t": serial_t,
        "clean_t": clean_t,
        "killed_t": killed_t,
        "poison_t": poison_t,
        # hard machine-independent gates
        "completed": 1.0,  # reaching this line is the claim
        "kill_bitwise_identical": float(kill_bitwise),
        "chaos_fired": float(kill_diag.retries > 0),
        "quarantine_contained": float(contained),
        "serial_bitwise_identical": float(
            np.array_equal(serial.matrix, clean.matrix)
        ),
        # fault diagnostics of the killed arm
        "retries": kill_diag.retries,
        "respawns": kill_diag.respawns,
        "quarantined_pairs_under_kills": kill_diag.quarantined_pairs,
        # machine-dependent, warn-only
        "recovery_overhead": killed_t / clean_t,
        "pairs_per_sec_supervised": pairs / clean_t,
        "poison": {
            "quarantined_pairs": poison_diag.quarantined_pairs,
            "solves": poison_diag.solves,
            "retries": poison_diag.retries,
            "respawns": poison_diag.respawns,
        },
    }


def test_chaos_recovery(benchmark, request):
    r = benchmark.pedantic(run_chaos_bench, rounds=1, iterations=1)
    banner("Fault-tolerant supervised Gram — recovery under seeded chaos")
    print(f"{r['n']} graphs, {r['pairs']} pairs, {r['tiles']} tiles, "
          f"{r['workers']} workers, chaos '{r['kill_spec']}'")
    print(f"{'arm':>24s} {'wall':>9s}  notes")
    print(f"{'serial':>24s} {r['serial_t']:8.2f}s")
    print(f"{'supervised, fault-free':>24s} {r['clean_t']:8.2f}s")
    print(f"{'supervised, kills':>24s} {r['killed_t']:8.2f}s  "
          f"{r['retries']} retries, {r['respawns']} respawns, "
          f"recovery overhead {r['recovery_overhead']:.2f}x")
    print(f"{'supervised, poison':>24s} {r['poison_t']:8.2f}s  "
          f"{r['poison']['quarantined_pairs']} pairs quarantined")
    print(f"bitwise identical under kills: "
          f"{bool(r['kill_bitwise_identical'])}; "
          f"poison contained: {bool(r['quarantine_contained'])}")

    # Shape criteria (all machine-independent).
    assert r["chaos_fired"] == 1.0, \
        "the seeded kills never fired; the bench gates nothing"
    assert r["kill_bitwise_identical"] == 1.0, \
        "recovered result differs from the undisturbed run"
    assert r["quarantined_pairs_under_kills"] == 0, \
        "bounded kills must be recovered, not quarantined"
    assert r["quarantine_contained"] == 1.0, \
        "poison run leaked: wrong quarantine count or non-NaN values"
    assert r["serial_bitwise_identical"] == 1.0, \
        "supervised executor changed the numbers vs the serial executor"

    write_bench_json(request, "chaos", r)
