"""Structure-reuse assembly pipeline — equivalence and invalidation.

The structure cache's contract is layered (ISSUE 5):

* serving a bucket from a cached :class:`StructurePlan` is **bitwise**
  neutral — plan + numeric fill is one code path, so cached and
  freshly-planned assemblies produce identical Gram matrices;
* solver warm-starting changes iteration trajectories, so it agrees
  with the plain path within **rtol 1e-10** (the engine's equivalence
  budget), never bitwise;
* cache keys are content-addressed: changing *hyperparameters only*
  must hit (that is the entire point of the pipeline), while changing
  graph content or the assembly config must miss;
* bookkeeping must not lie: pairs served from cached structure still
  count as solves, `nonconverged_pairs` propagates identically through
  cached plans and warm starts, and structure-cache stats are reported
  separately from value-cache stats.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest

from repro import GramEngine, MarginalizedGraphKernel
from repro.engine import executors
from repro.engine.cache import StructureCache, WarmStartStore
from repro.engine.executors import _seed_warm_start, structure_key
from repro.engine.tiles import plan_bucketed_tiles
from repro.graphs.datasets import drugbank_dataset
from repro.graphs.generators import drugbank_like_molecule, random_labeled_graph
from repro.kernels.basekernels import (
    KroneckerDelta,
    SquareExponential,
    TensorProduct,
    molecule_kernels,
    synthetic_kernels,
)
from repro.kernels.linsys import (
    BATCH_SPARSE_MAX,
    BlockCSROffdiag,
    build_batched_system,
    build_structure_plan,
    fill_batched_system,
)
from repro.kernels.marginalized import normalized
from repro.ml import tuning
from repro.ml.gpr import GaussianProcessRegressor
from repro.ml.tuning import bisection_order, grid_search
from repro.solvers import batched_pcg
from repro.solvers.batched_pcg import batched_pcg_solve
from repro.solvers.pcg import pcg_solve

NK, EK = synthetic_kernels()

#: The engine's equivalence budget for trajectory-changing options.
RTOL = 1e-10

SEEDS = [0, 3, 7]

#: Product-size bands, each pinned as its own block-CSR system.  They
#: are named for the two operators the batched path once had: a padded
#: dense stack took products up to 64, block-CSR the larger ones.
SIZE_BANDS = {"dense": (2, 64), "sparse": (65, 512)}


def mixed_batch(seed: int, n_graphs: int = 12) -> list:
    """Seeded mixed-size graphs spanning product sizes 1–256."""
    rng = random.Random(seed)
    out = [random_labeled_graph(1, density=0.5, seed=rng.randrange(2**31))]
    for _ in range(n_graphs - 1):
        out.append(
            random_labeled_graph(
                rng.randint(2, 16),
                density=rng.uniform(0.2, 0.7),
                weighted=rng.random() < 0.5,
                seed=rng.randrange(2**31),
            )
        )
    return out


def fragment_set(n_graphs: int, seed: int = 5) -> list:
    """Seeded GDB-style fragments of 3-8 heavy atoms."""
    rng = np.random.default_rng(seed)
    return [
        drugbank_like_molecule(n_heavy=int(rng.integers(3, 9)), seed=rng)
        for _ in range(n_graphs)
    ]


def with_extra_edge(graphs: list, k: int) -> list:
    """A copy of ``graphs`` whose ``k``-th graph gains one edge (graphs
    are immutable by convention — content changes arrive as new
    objects)."""
    g = graphs[k]
    A = g.adjacency.copy()
    zeros = np.argwhere(np.triu(A == 0, k=1))
    if len(zeros):
        i, j = zeros[0]
        A[i, j] = A[j, i] = 1.0
    out = list(graphs)
    out[k] = type(g)(
        A, dict(g.node_labels), dict(g.edge_labels), g.coords, g.name
    )
    return out


def make_engine(graphs_kernel_q=0.05, rtol=1e-11, **engine_kw):
    mgk = MarginalizedGraphKernel(NK, EK, q=graphs_kernel_q, rtol=rtol)
    return GramEngine(mgk, cache=False, **engine_kw)


# ----------------------------------------------------------------------
# plan + fill vs. direct assembly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("band", ["dense", "sparse"])
def test_fill_from_plan_is_bitwise_identical(seed, band):
    graphs = mixed_batch(seed)
    lo, hi = SIZE_BANDS[band]
    pairs = [
        (a, b)
        for i, a in enumerate(graphs)
        for b in graphs[i:]
        if lo <= a.n_nodes * b.n_nodes <= hi
    ]
    assert pairs
    direct = build_batched_system(pairs, NK, EK, q=0.05)
    plan = build_structure_plan(pairs)
    for _ in range(2):  # second fill exercises the base-kernel memos
        filled = fill_batched_system(plan, NK, EK, q=0.05)
        assert np.array_equal(filled.diag, direct.diag)
        assert np.array_equal(filled.rhs, direct.rhs)
        assert np.array_equal(filled.px, direct.px)
        v = np.random.default_rng(0).standard_normal(direct.total)
        assert np.array_equal(
            filled.matvec_offdiag(v), direct.matvec_offdiag(v)
        )


def test_plan_memos_from_another_point_fill_like_a_fresh_plan():
    graphs = mixed_batch(1)
    pairs = [(graphs[2], graphs[3]), (graphs[4], graphs[5])]
    plan = build_structure_plan(pairs)
    fill_batched_system(plan, NK, EK, q=0.05)
    assert plan._vx_memo is not None and plan._ke_memo is not None
    fresh = build_structure_plan(pairs)
    a = fill_batched_system(plan, NK, EK, q=0.07)
    b = fill_batched_system(fresh, NK, EK, q=0.07)
    assert np.array_equal(a.diag, b.diag)
    v = np.random.default_rng(1).standard_normal(a.total)
    assert np.array_equal(a.matvec_offdiag(v), b.matvec_offdiag(v))


def test_plan_nbytes_counts_arrays_and_memos():
    graphs = mixed_batch(2)
    plan = build_structure_plan([(graphs[3], graphs[4])])
    assert plan.nbytes > 0
    assert plan.nbytes >= plan.wprod.nbytes + plan.px.nbytes
    # Fill memos must enter the eviction currency: the first fill
    # memoizes the CSR operator, and a q-only refill hands it out again.
    before = plan.nbytes
    first = fill_batched_system(plan, NK, EK, q=0.05)
    assert plan._ke_memo[1] is first.offdiag
    assert plan.nbytes > before
    assert fill_batched_system(plan, NK, EK, q=0.06).offdiag is first.offdiag


@pytest.mark.parametrize("kind", ["fragments", "druglike"])
def test_plan_build_peak_per_stored_entry(kind):
    """A batched tile's plan build stays below 120 B per stored entry
    at its tracemalloc peak, on the largest tile of a 96-fragment and
    of a 60-molecule drug-like set.  The finished plan holds about 50;
    a sorting planner peaked near 130-150.  Each graph's cached edge
    arrays are built first, as every later tile finds them."""
    if kind == "fragments":
        graphs = fragment_set(96, seed=3)
    else:
        graphs = drugbank_dataset(n_graphs=60, seed=3, max_atoms=64)
    n = len(graphs)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    tile = max(
        (t for t in plan_bucketed_tiles(graphs, graphs, pairs) if not t.solo),
        key=lambda t: t.nnz,
    )
    members = [(graphs[i], graphs[j]) for i, j in tile.pairs]
    for g in graphs:
        g.edge_arrays()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan = build_structure_plan(members)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert plan.nnz == tile.nnz > 200_000
    assert peak / plan.nnz < 120


def test_structure_cache_refreshes_sizes_on_hit():
    graphs = mixed_batch(2)
    plan = build_structure_plan([(graphs[3], graphs[4])])
    cache = StructureCache()
    cache.put("k", plan)
    counted = cache.nbytes
    fill_batched_system(plan, NK, EK, q=0.05)
    assert cache.get("k") is plan
    assert cache.nbytes > counted  # memo growth picked up on the hit


# ----------------------------------------------------------------------
# engine-level equivalence: cached / warm-started
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_structure_cached_gram_is_bitwise_identical(seed):
    graphs = mixed_batch(seed)
    plain = make_engine(structure_cache=False).gram(graphs)
    cache = StructureCache()
    eng = make_engine(structure_cache=cache)
    first = eng.gram(graphs)
    assert np.array_equal(first.matrix, plain.matrix)
    assert np.array_equal(first.iterations, plain.iterations)
    assert cache.stats.misses > 0 and cache.stats.hits == 0

    # A different engine (fresh value cache) over the same graphs with
    # different hyperparameters: pure structural hits, still bitwise
    # equal to a structure-less run at that q.
    eng2 = make_engine(graphs_kernel_q=0.11, structure_cache=cache)
    second = eng2.gram(graphs)
    assert cache.stats.hits > 0
    plain2 = make_engine(graphs_kernel_q=0.11, structure_cache=False).gram(
        graphs
    )
    assert np.array_equal(second.matrix, plain2.matrix)
    assert np.array_equal(second.iterations, plain2.iterations)


@pytest.mark.parametrize("seed", SEEDS)
def test_warm_started_sweep_matches_within_rtol(seed):
    graphs = mixed_batch(seed)
    qs = [0.05, 0.055, 0.06, 0.066]
    cache, warm = StructureCache(), WarmStartStore()
    warm_iters = []
    for q in qs:
        eng = make_engine(
            graphs_kernel_q=q, structure_cache=cache, warm_start=warm
        )
        res = eng.gram(graphs)
        cold = make_engine(
            graphs_kernel_q=q, structure_cache=False
        ).gram(graphs)
        assert np.allclose(res.matrix, cold.matrix, rtol=RTOL, atol=0)
        warm_iters.append(int(res.iterations.sum()))
        if q == qs[0]:
            cold_iters = int(cold.iterations.sum())
    # Later sweep points must do strictly less iteration work than a
    # cold solve (the exact-iteration fallback covers only point 0).
    assert warm_iters[-1] < cold_iters
    assert warm.stats.hits > 0


@pytest.mark.parametrize("rtol", [1e-9, 1e-11])
def test_warm_sweep_retires_only_on_true_residuals(monkeypatch, rtol):
    graphs = mixed_batch(5)
    qs = np.geomspace(0.04, 0.05, 6)
    solve = batched_pcg.batched_pcg_solve
    tally = {"iters": 0, "zero": 0, "worst": 0.0}

    def checked(system, **kw):
        res = solve(system, **kw)
        tally["iters"] += int(res.iterations.sum())
        zero = res.iterations == 0
        if zero.any():
            x = res.x
            r = system.rhs - (system.diag * x - system.matvec_offdiag(x))
            bound = np.maximum(
                kw["rtol"] * system.pair_norms(system.rhs),
                kw.get("atol", 0.0),
            )
            ratio = system.pair_norms(r)[zero] / bound[zero]
            tally["zero"] += int(zero.sum())
            tally["worst"] = max(tally["worst"], float(ratio.max()))
        return res

    monkeypatch.setattr(batched_pcg, "batched_pcg_solve", checked)

    def sweep(warm_start):
        tally.update(iters=0, zero=0, worst=0.0)
        cache = StructureCache()
        for q in qs:
            make_engine(
                graphs_kernel_q=q, rtol=rtol, structure_cache=cache,
                warm_start=warm_start,
            ).gram(graphs)
        return dict(tally)

    cold = sweep(False)
    warm = sweep(WarmStartStore())
    assert warm["zero"] > 0
    # Every zero-iteration pair meets its threshold on b − S x.
    assert warm["worst"] <= 1.0
    assert warm["iters"] < cold["iters"]


def test_warm_start_without_history_is_exact_cold_fallback():
    graphs = mixed_batch(4)
    plain = make_engine(structure_cache=False).gram(graphs)
    res = make_engine(warm_start=True).gram(graphs)
    # No prior solutions anywhere: every pair runs its exact cold
    # iteration over the same tiles as the plain path, so the warm
    # engine's first call is bitwise the cold Gram (and two fresh warm
    # engines take identical trajectories).
    assert np.array_equal(res.matrix, plain.matrix)
    assert np.array_equal(res.iterations, plain.iterations)
    assert res.converged == plain.converged
    repeat = make_engine(warm_start=True).gram(graphs)
    assert np.array_equal(res.matrix, repeat.matrix)
    assert np.array_equal(res.iterations, repeat.iterations)


@pytest.mark.parametrize("seed", SEEDS)
def test_nonconverged_pairs_propagate_under_reorder_and_warm(seed):
    graphs = mixed_batch(seed)
    kw = dict(graphs_kernel_q=0.05, rtol=1e-12)

    def run(**engine_kw):
        mgk = MarginalizedGraphKernel(NK, EK, q=0.05, rtol=1e-12, max_iter=2)
        eng = GramEngine(mgk, cache=False, **engine_kw)
        with pytest.warns(RuntimeWarning):
            res = eng.gram(graphs)
        return res

    plain = run(structure_cache=False)
    cache = StructureCache()
    run(structure_cache=cache)
    cached = run(structure_cache=cache)  # every plan served from cache
    warm = run(warm_start=True)
    assert cache.stats.hits > 0
    assert plain.info["nonconverged_pairs"]
    want = plain.info["nonconverged_pairs"]
    assert cached.info["nonconverged_pairs"] == want
    assert warm.info["nonconverged_pairs"] == want
    del kw


def test_sole_label_kernels_through_plan_fill():
    # Non-TensorProduct base kernels exercise the plan's sole-label
    # gather path (name-independent single label per side).
    graphs = mixed_batch(5)
    nk, ek = KroneckerDelta(0.5), SquareExponential(1.0)
    mgk_b = MarginalizedGraphKernel(nk, ek, q=0.05, engine="fused_batched")
    mgk_f = MarginalizedGraphKernel(nk, ek, q=0.05, engine="fused")
    Kb = GramEngine(mgk_b, cache=False).gram(graphs).matrix
    Kf = GramEngine(mgk_f, cache=False).gram(graphs).matrix
    assert np.allclose(Kb, Kf, rtol=RTOL, atol=0)


def test_supervised_executor_ignores_warm_start():
    # Process workers are rebuilt per call, so warm history can never
    # accumulate; the engine must produce bitwise the same result with
    # or without the flag.
    graphs = mixed_batch(6, n_graphs=8)
    plain = make_engine(
        executor="process_supervised", max_workers=2, structure_cache=False
    ).gram(graphs)
    warm = make_engine(
        executor="process_supervised", max_workers=2, warm_start=True
    ).gram(graphs)
    assert np.array_equal(warm.matrix, plain.matrix)
    assert np.array_equal(warm.iterations, plain.iterations)


# ----------------------------------------------------------------------
# cache invalidation semantics
# ----------------------------------------------------------------------


def test_hyperparameter_change_hits_structure_cache():
    graphs = mixed_batch(7)
    cache = StructureCache()
    make_engine(graphs_kernel_q=0.05, structure_cache=cache).gram(graphs)
    built = cache.stats.puts
    assert built > 0
    # Changed q and changed solver tolerance: structure unaffected.
    make_engine(
        graphs_kernel_q=0.09, rtol=1e-9, structure_cache=cache
    ).gram(graphs)
    assert cache.stats.puts == built
    assert cache.stats.hits >= built


def test_mutated_graph_content_misses_structure_cache():
    graphs = mixed_batch(8)
    cache = StructureCache()
    make_engine(structure_cache=cache).gram(graphs)
    hits0, misses0 = cache.stats.hits, cache.stats.misses
    mutated = with_extra_edge(graphs, 3)
    make_engine(structure_cache=cache).gram(mutated)
    assert cache.stats.misses > misses0
    del hits0


def test_warm_points_reuse_tile_structure_keys(monkeypatch):
    graphs = mixed_batch(8)
    calls = []

    def counting(pair_graphs):
        calls.append(len(pair_graphs))
        return structure_key(pair_graphs)

    monkeypatch.setattr(executors, "structure_key", counting)
    cache, warm = StructureCache(), WarmStartStore()

    def point(gs, q):
        return make_engine(
            graphs_kernel_q=q, structure_cache=cache, warm_start=warm
        ).gram(gs)

    point(graphs, 0.05)
    first = len(calls)
    assert first > 0
    # A later sweep point is served the tile plan, and with it every
    # tile's structure key: no member is hashed again.
    point(graphs, 0.055)
    assert len(calls) == first

    # A content change at a solved position misses the tile plan, so
    # the new tiles hash their members and agree with a fresh engine.
    mutated = with_extra_edge(graphs, 3)
    assert mutated[3].n_edges == graphs[3].n_edges + 1
    misses = cache.stats.misses
    res = point(mutated, 0.06)
    assert cache.stats.misses > misses
    assert len(calls) > first
    fresh = make_engine(graphs_kernel_q=0.06, warm_start=True).gram(mutated)
    assert np.allclose(res.matrix, fresh.matrix, rtol=RTOL, atol=0)


def test_concurrent_calls_share_cached_tiles_and_keys():
    # Calls on several threads share one structure cache, so a call can
    # be served tiles whose structure keys another call is still
    # writing.  Every result must stay bitwise the uncached one.
    graphs = mixed_batch(11)
    ref = make_engine(structure_cache=False, batch_pairs=8).gram(graphs)
    cache = StructureCache()
    results, errors = [], []

    def call():
        try:
            eng = make_engine(structure_cache=cache, batch_pairs=8)
            results.append(eng.gram(graphs).matrix)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 6
    for matrix in results:
        assert np.array_equal(matrix, ref.matrix)
    assert cache.stats.hits > 0


def test_engine_config_change_misses_structure_cache():
    graphs = mixed_batch(9)
    cache = StructureCache()
    make_engine(structure_cache=cache).gram(graphs)
    built = cache.stats.puts
    # Same graphs, same hyperparameters — but a pair cap re-cuts the
    # tiles, which changes the tile plan and the tiles' members, so
    # neither may be served from the uncapped entries.
    make_engine(structure_cache=cache, batch_pairs=4).gram(graphs)
    assert cache.stats.puts > built
    capped = cache.stats.puts
    make_engine(structure_cache=cache, batch_pairs=4).gram(graphs)
    assert cache.stats.puts == capped


# ----------------------------------------------------------------------
# the stores themselves
# ----------------------------------------------------------------------


def test_structure_cache_lru_evicts_by_bytes():
    class Plan:
        def __init__(self, nbytes):
            self.nbytes = nbytes

    cache = StructureCache(max_bytes=100)
    cache.put("a", Plan(40))
    cache.put("b", Plan(40))
    cache.get("a")  # refresh a
    cache.put("c", Plan(40))  # evicts b (LRU)
    assert cache.get("a") is not None
    assert cache.get("b") is None
    assert cache.get("c") is not None
    assert cache.nbytes <= 100


def test_warm_store_history_and_eviction():
    store = WarmStartStore(max_bytes=1000, history=2)
    a = np.arange(10.0)
    store.put("k", a)
    store.put("k", a + 1)
    store.put("k", a + 2)
    vecs = store.get("k")
    assert len(vecs) == 2
    assert np.array_equal(vecs[0], a + 2)
    assert np.array_equal(vecs[1], a + 1)
    # Images count toward nbytes and move with the vectors a put keeps.
    store.attach("k", vecs, "W", {0: -a})
    assert store.nbytes == 3 * a.nbytes
    store.put("k", a + 3)
    kept = store.get("k")
    assert kept.images[0] is None and kept.images[1][0] == "W"
    assert store.nbytes == 3 * a.nbytes
    store.attach("k", vecs, "W", {1: -a})  # a replaced history: ignored
    assert store.nbytes == 3 * a.nbytes
    # Evicts whole LRU entries, images included, once the byte budget
    # is exceeded.
    for i in range(20):
        store.put(f"fill{i}", np.zeros(10))
        store.attach(f"fill{i}", store.get(f"fill{i}"), "W",
                     {0: np.zeros(10)})
    assert store.nbytes <= 1000
    assert store.get("k") is None


def test_warm_store_images_under_concurrent_seeds_and_puts():
    # Threads that seed (attach images) and push solutions on shared
    # keys: every image stays next to its own vector, and nbytes equals
    # what the entries hold.
    store = WarmStartStore(history=3)
    keys = ("a", "b")
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            for step in range(200):
                key = keys[step % 2]
                history = store.get(key)
                if history:
                    store.attach(key, history, "W",
                                 {a: -v for a, v in enumerate(history)})
                store.put(key, rng.standard_normal(8))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    held = [store.get(key) for key in keys]
    for history in held:
        assert len(history) == 3
        for v, image in zip(history, history.images):
            assert image is None or np.array_equal(image[1], -v)
    assert any(image is not None for h in held for image in h.images)
    assert store.nbytes == sum(h.nbytes for h in held)


def test_warm_store_rejects_bad_args():
    with pytest.raises(ValueError):
        WarmStartStore(max_bytes=0)
    with pytest.raises(ValueError):
        WarmStartStore(history=0)
    with pytest.raises(ValueError):
        StructureCache(max_bytes=0)


# ----------------------------------------------------------------------
# solver warm-start primitives
# ----------------------------------------------------------------------


def test_batched_solver_zero_x0_is_bitwise_cold():
    graphs = mixed_batch(3)
    pairs = [
        (a, b) for i, a in enumerate(graphs) for b in graphs[i:]
        if a.n_nodes * b.n_nodes >= 2
    ][:8]
    system = build_batched_system(pairs, NK, EK, q=0.05)
    cold = batched_pcg_solve(system, rtol=1e-11)
    seeded = batched_pcg_solve(
        system, rtol=1e-11, x0=np.zeros(system.total)
    )
    assert np.array_equal(cold.x, seeded.x)
    assert np.array_equal(cold.iterations, seeded.iterations)


def test_batched_solver_exact_x0_retires_at_zero_iterations():
    graphs = mixed_batch(3)
    pairs = [
        (a, b) for i, a in enumerate(graphs) for b in graphs[i:]
        if a.n_nodes * b.n_nodes >= 2
    ][:8]
    system = build_batched_system(pairs, NK, EK, q=0.05)
    cold = batched_pcg_solve(system, rtol=1e-9)
    warm = batched_pcg_solve(system, rtol=1e-9, x0=cold.x)
    assert (warm.iterations == 0).all()
    assert warm.converged.all()
    assert np.allclose(warm.x, cold.x, rtol=RTOL, atol=0)


@pytest.mark.parametrize("band", ["dense", "sparse"])
@pytest.mark.parametrize("n_seeded", [3, 9])
def test_partial_zero_iteration_retirement(monkeypatch, band, n_seeded):
    # 12 pairs with 3 or 9 seeded: 0.75 and 0.25 of the layout stay
    # alive, on either side of COMPACT_FRACTION (0.35).
    graphs = mixed_batch(3)
    lo, hi = SIZE_BANDS[band]
    pairs = [
        (a, b) for i, a in enumerate(graphs) for b in graphs[i:]
        if lo <= a.n_nodes * b.n_nodes <= hi
    ][:12]
    assert len(pairs) == 12
    system = build_batched_system(pairs, NK, EK, q=0.05)
    cold = batched_pcg_solve(system, rtol=1e-9)
    exact = batched_pcg_solve(system, rtol=1e-12)
    assert exact.converged.all()
    seeded = np.zeros(system.batch, dtype=bool)
    seeded[np.random.default_rng(n_seeded).permutation(12)[:n_seeded]] = True
    in_seeded = system.expand(seeded)
    x0 = np.where(in_seeded, exact.x, 0.0)

    runs = []
    # Never compact, always compact, and the default rule.
    for fraction in (0.0, 1.0, batched_pcg.COMPACT_FRACTION):
        monkeypatch.setattr(batched_pcg, "COMPACT_FRACTION", fraction)
        runs.append(batched_pcg_solve(system, rtol=1e-9, x0=x0))
    warm = runs[0]
    for other in runs[1:]:
        assert np.array_equal(other.x, warm.x)
        assert np.array_equal(other.iterations, warm.iterations)
        assert np.array_equal(other.converged, warm.converged)
        assert np.array_equal(other.residual_norms, warm.residual_norms)

    assert (warm.iterations[seeded] == 0).all()
    assert warm.converged.all()
    assert np.array_equal(warm.x[in_seeded], x0[in_seeded])
    # Unseeded pairs follow their cold trajectory byte for byte.
    assert np.array_equal(warm.x[~in_seeded], cold.x[~in_seeded])
    assert np.array_equal(warm.iterations[~seeded], cold.iterations[~seeded])
    assert np.array_equal(
        warm.residual_norms[~seeded], cold.residual_norms[~seeded]
    )


def _image_lstsq_residuals(system, vecs) -> np.ndarray:
    """Per pair, min over c of ||b − S V c|| on that pair's rows."""
    V = np.stack(vecs, axis=1)
    Y = system.diag[:, None] * V - system.offdiag.mat @ V
    out = np.empty(system.batch)
    for p in range(system.batch):
        rows = slice(system.offsets[p], system.offsets[p + 1])
        c, *_ = np.linalg.lstsq(Y[rows], system.rhs[rows], rcond=None)
        out[p] = np.linalg.norm(system.rhs[rows] - Y[rows] @ c)
    return out


@pytest.mark.parametrize("seed", [1, 4])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_warm_seed_matches_least_squares_reference(seed, k):
    graphs = mixed_batch(seed)
    pairs = [
        (a, b) for i, a in enumerate(graphs) for b in graphs[i:]
        if a.n_nodes * b.n_nodes <= BATCH_SPARSE_MAX
    ]
    plan = build_structure_plan(pairs)
    system = fill_batched_system(plan, NK, EK, q=0.05)
    # Solutions at nearby q, plus an exact duplicate and a zero vector:
    # the zero one first, where a drop rule measured against the first
    # image alone would keep rounding noise.
    sols = [
        batched_pcg_solve(
            fill_batched_system(plan, NK, EK, q=q), rtol=1e-11
        ).x
        for q in np.geomspace(0.052, 0.06, k)
    ]
    history = [np.zeros(system.total)] + sols + [sols[0].copy()]
    store = WarmStartStore(history=len(history))
    for v in reversed(history):
        store.put("bucket", v)

    x0 = _seed_warm_start(store, "bucket", system)
    assert np.isfinite(x0).all()
    r = system.rhs - (system.diag * x0 - system.matvec_offdiag(x0))
    bnorm = system.pair_norms(system.rhs)
    ref = _image_lstsq_residuals(system, history)
    assert (np.abs(system.pair_norms(r) - ref) <= 1e-12 * bnorm).all()

    wrong = WarmStartStore()
    wrong.put("bucket", np.ones(system.total + 1))
    wrong.put("bucket", np.ones(system.total - 1))
    assert _seed_warm_start(wrong, "bucket", system) is None


def test_warm_seed_images_are_reused_and_invalidated(monkeypatch):
    # Each seed call computes only the images W·x its store lacks: on a
    # q sweep, the newest vector's alone; after an edge-kernel change,
    # all of them.  Its x0 is byte-equal to the seed from a store that
    # holds the same vectors and no images.
    graphs = mixed_batch(4)
    spmv = BlockCSROffdiag.matvec
    seed = executors._seed_warm_start
    spmvs = [0]
    counts, keys = [], set()

    def counting_spmv(self, p):
        spmvs[0] += 1
        return spmv(self, p)

    def checked_seed(store, key, system):
        before = spmvs[0]
        x0 = seed(store, key, system)
        counts.append(spmvs[0] - before)
        history = store.get(key)
        bare = WarmStartStore(history=store.history)
        for v in reversed(history or ()):
            bare.put(key, v)
        ref = seed(bare, key, system)
        assert (x0 is None) == (ref is None)
        if x0 is not None:
            assert x0.tobytes() == ref.tobytes()
        keys.add(key)
        return x0

    monkeypatch.setattr(BlockCSROffdiag, "matvec", counting_spmv)
    monkeypatch.setattr(executors, "_seed_warm_start", checked_seed)
    cache, warm = StructureCache(), WarmStartStore()
    for q in (0.05, 0.055, 0.06):
        make_engine(
            graphs_kernel_q=q, structure_cache=cache, warm_start=warm,
            batch_pairs=16,
        ).gram(graphs)
    n = len(warm)
    assert n > 1 and counts == [0] * n + [1] * n + [1] * n
    # nbytes counts the attached images next to the vectors
    current = [warm.get(key) for key in keys]
    vec_bytes = sum(v.nbytes for h in current for v in h)
    assert warm.nbytes == sum(h.nbytes for h in current) > vec_bytes

    other_edges = TensorProduct(length=SquareExponential(0.7))
    mgk = MarginalizedGraphKernel(NK, other_edges, q=0.06, rtol=1e-11)
    GramEngine(mgk, cache=False, structure_cache=cache, warm_start=warm,
               batch_pairs=16).gram(graphs)
    assert counts[3 * n:] == [3] * n


def test_pcg_x0_warm_start():
    g1 = random_labeled_graph(6, density=0.5, seed=1)
    g2 = random_labeled_graph(7, density=0.5, seed=2)
    mgk = MarginalizedGraphKernel(NK, EK, q=0.05)
    system = mgk.build_system(g1, g2)
    cold = pcg_solve(system, rtol=1e-11)
    warm = pcg_solve(system, rtol=1e-11, x0=cold.x)
    assert warm.iterations == 0 and warm.converged
    bad = np.zeros(system.size + 1)
    with pytest.raises(ValueError):
        pcg_solve(system, x0=bad)


# ----------------------------------------------------------------------
# bookkeeping: stats, progress, no undercounting
# ----------------------------------------------------------------------


def test_cache_stats_reports_structure_separately():
    graphs = mixed_batch(5)
    eng = make_engine(structure_cache=StructureCache(), warm_start=True)
    eng.gram(graphs)
    stats = eng.cache_stats()
    assert "structure" in stats
    assert set(stats["structure"]) >= {
        "hits", "misses", "puts", "entries", "bytes",
    }
    assert stats["structure"]["puts"] > 0
    assert stats["structure"]["bytes"] > 0
    assert "warm_start" in stats
    # Value-cache counters remain their own block.
    assert stats["solves"] > 0
    assert stats["structure"]["puts"] != stats["solves"]


def test_progress_does_not_undercount_with_structure_hits():
    graphs = mixed_batch(6)
    cache = StructureCache()
    make_engine(structure_cache=cache).gram(graphs)

    events = []
    mgk = MarginalizedGraphKernel(NK, EK, q=0.08, rtol=1e-11)
    eng = GramEngine(
        mgk, cache=False, structure_cache=cache, progress=events.append
    )
    res = eng.gram(graphs)
    done = events[-1]
    assert done.phase == "done"
    n = len(graphs)
    assert done.pairs_done == done.pairs_total == n * (n + 1) // 2
    # Structure hits happened, yet every pair still counts as solved
    # work (the numeric fill + solve really ran).
    assert done.structure_hits > 0
    assert done.solves == res.info["solves"]
    assert done.solves + done.cache_hits == done.pairs_total
    diag = res.info["diagnostics"]
    assert diag.structure_hits == done.structure_hits
    assert "structure cache" in diag.summary()


# ----------------------------------------------------------------------
# memory: plans outlive their tile only in a structure cache
# ----------------------------------------------------------------------


def _record_plans(monkeypatch, exclusive: bool) -> list:
    """Weak references to every plan the batched task body builds.

    With ``exclusive``, building a plan while an earlier one is still
    alive fails the test: the call holds one tile's plan at a time.
    """
    from repro.kernels import linsys

    refs = []
    build = linsys.build_structure_plan

    def recording(pair_graphs):
        if exclusive:
            assert all(ref() is None for ref in refs), "earlier plan alive"
        plan = build(pair_graphs)
        refs.append(weakref.ref(plan))
        return plan

    monkeypatch.setattr(linsys, "build_structure_plan", recording)
    return refs


def test_default_engine_cold_gram_keeps_no_plan(monkeypatch):
    graphs = mixed_batch(3)
    ref = make_engine(structure_cache=StructureCache()).gram(graphs)
    refs = _record_plans(monkeypatch, exclusive=True)
    eng = GramEngine(
        MarginalizedGraphKernel(NK, EK, q=0.05, rtol=1e-11), batch_pairs=8
    )
    assert eng.structure_cache is None
    gc.disable()  # plans must go by reference counting alone
    try:
        res = eng.gram(graphs)
    finally:
        gc.enable()
    assert len(refs) >= 3
    assert all(r() is None for r in refs)
    assert np.array_equal(res.matrix, ref.matrix)
    assert np.array_equal(res.iterations, ref.iterations)
    assert "structure" not in eng.cache_stats()
    assert "structure" not in res.info["diagnostics"].cache_tiers


def test_default_engine_query_calls_leave_no_plan(monkeypatch):
    # The serving pattern: K(queries, train) calls on one long-lived
    # engine.  Each call's plans are gone when it returns.
    train = mixed_batch(3)
    refs = _record_plans(monkeypatch, exclusive=True)
    eng = GramEngine(MarginalizedGraphKernel(NK, EK, q=0.05, rtol=1e-11))
    gc.disable()
    try:
        for seed in (4, 5, 6):
            built = len(refs)
            eng.gram(mixed_batch(seed, n_graphs=3), train)
            assert len(refs) > built
            assert all(r() is None for r in refs)
    finally:
        gc.enable()
    assert "structure" not in eng.cache_stats()["tiers"]


def test_grid_search_plans_only_its_first_point(monkeypatch):
    from repro.engine import core
    from repro.ml.tuning import grid_search

    graphs = mixed_batch(3)
    refs = _record_plans(monkeypatch, exclusive=False)
    tile_plans = []
    plan_tiles = core.plan_bucketed_tiles

    def recording(*args, **kwargs):
        tile_plans.append(1)
        return plan_tiles(*args, **kwargs)

    monkeypatch.setattr(core, "plan_bucketed_tiles", recording)
    built_before = []

    def factory(q):
        built_before.append((len(refs), len(tile_plans)))
        return MarginalizedGraphKernel(NK, EK, q=q, rtol=1e-11)

    y = np.linspace(0.0, 1.0, len(graphs))
    grid_search(graphs, y, factory, {"q": [0.04, 0.05, 0.06]})
    assert built_before[0] == (0, 0)
    assert built_before[1][0] > 0 and built_before[1][1] == 1
    # Points 2 and 3 are served whole from the search's shared cache.
    assert (len(refs), len(tile_plans)) == built_before[1]


# ----------------------------------------------------------------------
# grid_search: candidates in bisection order, fits in grid order
# ----------------------------------------------------------------------


def _sweep_targets(graphs: list) -> np.ndarray:
    return 0.1 * np.array([g.n_nodes for g in graphs]) + np.linspace(
        0.0, 0.05, len(graphs)
    )


def test_bisection_order_is_a_permutation_from_both_ends():
    assert bisection_order(16) == [
        0, 15, 7, 3, 11, 1, 5, 9, 13, 2, 4, 6, 8, 10, 12, 14
    ]
    for size in range(1, 21):
        order = bisection_order(size)
        assert sorted(order) == list(range(size))
        assert order[:2] == [0, size - 1][:size]


def _captured_fits(monkeypatch, run) -> list:
    """The Gram of every model fit ``run()`` makes, in fit order,
    captured by subclassing the regressor the search module uses."""
    grams = []
    base = tuning.GaussianProcessRegressor

    class Capture(base):
        def fit(self, K, y):
            grams.append(np.array(K))
            return super().fit(K, y)

    with monkeypatch.context() as patch:
        patch.setattr(tuning, "GaussianProcessRegressor", Capture)
        run()
    return grams


def test_grid_search_fits_grams_in_grid_order(monkeypatch):
    """The search computes its points in bisection order and fits them
    in grid order: the k-th fit sees grid point k's Gram, within rtol
    1e-10 of the same point computed without structure reuse, and
    farther than that from every other point's."""
    graphs = fragment_set(14)
    y = _sweep_targets(graphs)
    qs = np.geomspace(0.04, 0.05, 7)
    nk, ek = molecule_kernels()
    visited = []

    def factory(q):
        visited.append(q)
        return MarginalizedGraphKernel(nk, ek, q=q, rtol=1e-11)

    def search(structure_reuse):
        return lambda: grid_search(
            graphs, y, factory, {"q": qs}, structure_reuse=structure_reuse
        )

    warm = _captured_fits(monkeypatch, search(True))
    assert visited == [qs[k] for k in bisection_order(len(qs))]
    cold = _captured_fits(monkeypatch, search(False))
    assert visited[len(qs):] == visited[:len(qs)]
    assert len(warm) == len(cold) == len(qs)
    for k, K in enumerate(warm):
        for j, ref in enumerate(cold):
            assert np.allclose(K, ref, rtol=1e-10, atol=0) == (j == k)


def test_grid_search_history_and_best_follow_grid_order():
    """``history``, the best pick and its first-index tie rule are a
    grid-order loop's, although the points are computed in another
    order.  Tags 1-4 share one kernel, so their scores tie exactly
    without structure reuse; bisection order computes tag 4 first of
    them, and grid order reaches tag 1 first."""
    graphs = fragment_set(12)
    y = _sweep_targets(graphs)
    nk, ek = molecule_kernels()
    q_of_tag = [0.6, 0.05, 0.05, 0.05, 0.05]

    def factory(tag):
        return MarginalizedGraphKernel(nk, ek, q=q_of_tag[tag], rtol=1e-11)

    grid = {"tag": [0, 1, 2, 3, 4]}
    assert bisection_order(5) == [0, 4, 2, 1, 3]
    history = []
    for tag in grid["tag"]:
        K = normalized(GramEngine(factory(tag), cache=False).gram(graphs).matrix)
        gpr = GaussianProcessRegressor(alpha=1e-6).fit(K, y)
        history.append(({"tag": tag}, gpr.log_marginal_likelihood(y)))
    scores = [s for _, s in history]
    best = scores.index(max(scores))
    assert best == 1 and scores[1:] == [scores[1]] * 4

    res = grid_search(graphs, y, factory, grid, structure_reuse=False)
    assert res.history == history
    assert res.params == {"tag": best} and res.score == scores[best]
    warm = grid_search(graphs, y, factory, grid)
    assert [p for p, _ in warm.history] == [p for p, _ in history]
    assert np.allclose([s for _, s in warm.history], scores, rtol=1e-9)


def test_grid_search_two_axis_grid_visits_every_point_once():
    graphs = fragment_set(8)
    y = _sweep_targets(graphs)
    ek = molecule_kernels()[1]
    grid = {"q": [0.03, 0.05, 0.08], "h": [0.2, 0.3, 0.4, 0.5]}
    visited = []

    def factory(q, h):
        visited.append((q, h))
        nk = TensorProduct(element=KroneckerDelta(h))
        return MarginalizedGraphKernel(nk, ek, q=q, rtol=1e-11)

    res = grid_search(graphs, y, factory, grid)
    assert visited == [
        (grid["q"][i], grid["h"][j])
        for i, j in product(bisection_order(3), bisection_order(4))
    ]
    assert sorted(visited) == sorted(product(*grid.values()))
    assert [tuple(p.values()) for p, _ in res.history] == list(
        product(*grid.values())
    )
