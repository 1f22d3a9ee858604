"""Structure-reuse sweep bench: cached topology + warm starts (ISSUE 5).

The paper's motivating workload — "the graph kernel often has to be
evaluated on all pairs of graphs for hundreds of times to train a
machine learning model" — rebuilds the *same* product-graph topology at
every hyperparameter point; only the numeric weights change.  This
bench pins the structure-reuse pipeline's claim on a 16-point stopping-
probability sweep over a GDB-style small-molecule library:

* the structured sweep (shared ``StructureCache`` + ``WarmStartStore``,
  points visited in bisection order: the exact configuration
  ``grid_search`` uses) must be >= 3x faster than the PR-4
  ``fused_batched`` baseline that replans, reassembles, and
  cold-solves every point.  The speedup is the median over
  ``TIMED_PAIRS`` interleaved (baseline, structured) sweep pairs
  (``conftest.median_pair``): single sweeps on a shared 2-core runner
  swing by more than the margin over 3x;
* every sweep point's Gram values must agree with the baseline within
  rtol 1e-10 (the engine's equivalence budget);
* a *cold* single-shot Gram through a fresh, empty structure cache
  (what a sweep's first point pays, nothing warmed) must not regress
  against the structure-less baseline — reported as
  ``cold_throughput_ratio`` (baseline time / structured time, >= 1
  means structure caching is free when unused) and gated loosely here
  (CI machines are noisy); the committed baseline tracks it PR over PR;
* ``iters_ratio`` (baseline CG iterations / structured CG iterations)
  pins the warm-start seed's quality: both are deterministic counts,
  so a weaker seed shows up in the committed-baseline gate even when
  the wall-clock speedup still clears its bound.

Shape criteria only — absolute numbers vary by machine; the committed
baseline gate (``benchmarks/check_regression.py``) tracks the
machine-independent speedup ratios PR over PR.
"""

import time

import numpy as np

from conftest import SCALE, banner, median_pair, write_bench_json
from repro import GramEngine, MarginalizedGraphKernel
from repro.engine.cache import StructureCache, WarmStartStore
from repro.graphs.generators import drugbank_like_molecule
from repro.kernels.basekernels import molecule_kernels
from repro.ml.tuning import bisection_order

#: ISSUE 5 acceptance thresholds.
MIN_SPEEDUP = 3.0
RTOL = 1e-10
N_POINTS = 16
#: Interleaved (baseline, structured) sweep pairs the speedup is the
#: median of.
TIMED_PAIRS = 5

#: Solver tolerance for both arms: tight enough that two independently
#: converged trajectories (cold vs. warm-started) land well inside the
#: rtol-1e-10 agreement budget.
SOLVER_RTOL = 1e-11


def fragment_library(n_graphs: int, seed: int = 5) -> list:
    """GDB-style library: uniformly sized 3-8 heavy-atom molecules."""
    rng = np.random.default_rng(seed)
    return [
        drugbank_like_molecule(n_heavy=int(rng.integers(3, 9)), seed=rng)
        for _ in range(n_graphs)
    ]


def _engine(q, structured, shared=None):
    nk, ek = molecule_kernels()
    mgk = MarginalizedGraphKernel(nk, ek, q=q, rtol=SOLVER_RTOL)
    if structured:
        cache, warm = shared
        return GramEngine(
            mgk, cache=False, structure_cache=cache, warm_start=warm
        )
    return GramEngine(mgk, cache=False, structure_cache=False)


def run_sweep(graphs, qs, structured):
    """One full sweep through fresh caches, timed.

    Both arms visit ``qs`` in ``grid_search``'s order
    (:func:`~repro.ml.tuning.bisection_order`); the results come back
    in grid order.  The baseline arm's points are independent cold
    solves, so the order only matters to the structured arm, whose
    warm starts draw on the points visited before.
    """
    shared = (StructureCache(), WarmStartStore()) if structured else None
    results = [None] * len(qs)
    t0 = time.perf_counter()
    for k in bisection_order(len(qs)):
        results[k] = _engine(qs[k], structured, shared).gram(graphs)
    elapsed = time.perf_counter() - t0
    iters = sum(int(r.iterations.sum()) for r in results)
    return [r.matrix for r in results], elapsed, iters, shared


def _cold_times(graphs, rounds=5):
    """Best-of interleaved single-shot Gram times (fresh engines).

    Interleaving and best-of make the ~100 ms measurements robust to
    CI-runner noise; the structured engine gets a fresh, empty
    structure cache (nothing warmed), as a ``grid_search``'s first
    point does, so this measures exactly the cold-start overhead the
    acceptance bounds.
    """
    nk, ek = molecule_kernels()

    def one(structured):
        mgk = MarginalizedGraphKernel(nk, ek, q=0.05, rtol=SOLVER_RTOL)
        eng = GramEngine(
            mgk, cache=False,
            structure_cache=StructureCache() if structured else False,
        )
        t0 = time.perf_counter()
        eng.gram(graphs)
        return time.perf_counter() - t0

    one(False)  # warm both code paths before timing
    one(True)
    base, struct = [], []
    for _ in range(rounds):
        base.append(one(False))
        struct.append(one(True))
    return float(min(base)), float(min(struct))


def run_sweep_bench():
    n = int(64 * max(1.0, SCALE) ** 0.5)
    graphs = fragment_library(n_graphs=n)
    # A fine refinement grid around the paper's q ≈ 0.05 operating
    # point — the LML-polishing regime where a tuner spends most of its
    # evaluations, and where adjacent solutions are close enough for
    # the warm-start projection to bite hardest.
    qs = np.geomspace(0.04, 0.05, N_POINTS)

    (base, struct), ratios = median_pair(
        lambda: run_sweep(graphs, qs, structured=False),
        lambda: run_sweep(graphs, qs, structured=True),
        TIMED_PAIRS,
    )
    base_K, base_t, base_iters, _ = base
    str_K, str_t, str_iters, (cache, warm) = struct
    max_rel = max(
        float(np.max(np.abs(a - b) / np.abs(a)))
        for a, b in zip(base_K, str_K)
    )

    cold_base, cold_struct = _cold_times(graphs)

    # Stage breakdown from one traced structured sweep point (the timed
    # arms above run untraced, so tracing never skews the speedup).
    from repro.obs import (collect_tracer, disable_tracing, enable_tracing,
                           stage_seconds)
    enable_tracing()
    try:
        shared = (StructureCache(), WarmStartStore())
        _engine(float(qs[0]), True, shared).gram(graphs)
        stages = stage_seconds(collect_tracer())
    finally:
        disable_tracing()

    pairs = n * (n + 1) // 2
    return {
        "stage_seconds": stages,
        "n": n,
        "points": N_POINTS,
        "pairs": pairs,
        "baseline_t": base_t,
        "structured_t": str_t,
        "speedup": base_t / str_t,
        "speedup_pairs": ratios,
        "max_rel": max_rel,
        "baseline_iters": base_iters,
        "structured_iters": str_iters,
        "iters_ratio": base_iters / str_iters,
        "cold_base_t": cold_base,
        "cold_struct_t": cold_struct,
        "cold_throughput_ratio": cold_base / cold_struct,
        "structure_hits": cache.stats.hits,
        "structure_misses": cache.stats.misses,
        "warm_hits": warm.stats.hits,
    }


def test_sweep_speedup(benchmark, request):
    r = benchmark.pedantic(run_sweep_bench, rounds=1, iterations=1)
    banner("Structure-reuse sweep — cached topology + warm-started solves")
    print(f"{'arm':>12s} {'points':>7s} {'pairs':>7s} {'time':>8s} "
          f"{'CG iters':>9s}")
    print(f"{'baseline':>12s} {r['points']:7d} {r['pairs']:7d} "
          f"{r['baseline_t']:7.2f}s {r['baseline_iters']:9d}")
    print(f"{'structured':>12s} {r['points']:7d} {r['pairs']:7d} "
          f"{r['structured_t']:7.2f}s {r['structured_iters']:9d}")
    print(f"CG iteration ratio (baseline / structured): "
          f"{r['iters_ratio']:.2f}")
    print(f"sweep speedup: {r['speedup']:.2f}x, the median of "
          + ", ".join(f"{x:.2f}" for x in r["speedup_pairs"])
          + f"  (structure hits {r['structure_hits']}, "
          f"warm hits {r['warm_hits']})")
    print(f"max |Δ|/|K| vs baseline: {r['max_rel']:.2e}  (bound {RTOL:g})")
    print(f"cold single-shot: baseline {1e3 * r['cold_base_t']:.0f} ms, "
          f"structured {1e3 * r['cold_struct_t']:.0f} ms "
          f"(ratio {r['cold_throughput_ratio']:.2f})")
    st = r["stage_seconds"]
    print(f"stage breakdown (traced point): plan {st['plan']:.2f}s  "
          f"fill {st['fill']:.2f}s  solve {st['solve']:.2f}s  "
          f"scatter {st['scatter']:.2f}s")

    write_bench_json(request, "sweep", {
        "stage_seconds": r["stage_seconds"],
        "n": r["n"],
        "points": r["points"],
        "pairs": r["pairs"],
        "baseline_seconds": r["baseline_t"],
        "structured_seconds": r["structured_t"],
        "speedup": r["speedup"],
        "speedup_pairs": r["speedup_pairs"],
        "max_rel_error": r["max_rel"],
        "baseline_iters": r["baseline_iters"],
        "structured_iters": r["structured_iters"],
        "iters_ratio": r["iters_ratio"],
        "cold_throughput_ratio": r["cold_throughput_ratio"],
        "structure_hits": r["structure_hits"],
        "warm_hits": r["warm_hits"],
    })

    # the equivalence budget against the PR-4 baseline values
    assert r["max_rel"] <= RTOL
    # warm starts must genuinely cut iteration work, not just overhead
    assert r["structured_iters"] < 0.5 * r["baseline_iters"]
    # ISSUE 5 acceptance: >= 3x on the 16-point sweep
    assert r["speedup"] >= MIN_SPEEDUP, (
        f"structured sweep only {r['speedup']:.2f}x over PR-4 baseline"
    )
    # cold single-shot must not regress (acceptance asks within 5%;
    # the hard gate is loose because CI timer noise at ~100 ms scale
    # dwarfs the real overhead — the committed baseline tracks it)
    assert r["cold_throughput_ratio"] >= 0.75, (
        f"cold Gram regressed: ratio {r['cold_throughput_ratio']:.2f}"
    )
