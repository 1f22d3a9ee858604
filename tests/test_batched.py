"""Batched pair solver — equivalence with the per-pair path.

The ``fused_batched`` engine's contract is strict: for every pair it
must reproduce the per-pair ``fused`` result — values within rtol
1e-10 (block-CSR buckets are bitwise-identical per block up to dot
reduction order), iteration counts within ±2, converged flags exactly,
nonconverged pairs propagated identically.  This suite pins that
contract over seeded random graph batches with mixed sizes, plus the
golden fixture, bucket planning, cache interchange between the two
engines, and the per-pair fallbacks.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import GramEngine, MarginalizedGraphKernel
from repro.engine import kernel_fingerprint, plan_bucketed_tiles
from repro.engine.cache import LRUCache
from repro.engine.executors import solve_tile
from repro.graphs.generators import (
    drugbank_like_molecule,
    random_labeled_graph,
)
from repro.kernels.basekernels import (
    KroneckerDelta,
    SquareExponential,
    molecule_kernels,
    synthetic_kernels,
    unlabeled_kernels,
)
from repro.kernels.linsys import (
    BATCH_SPARSE_MAX,
    assemble_sparse_offdiag,
    build_batched_system,
    build_product_system,
    build_structure_plan,
    fill_batched_system,
)
from repro.obs import trace
from repro.solvers import batched_pcg
from repro.solvers.batched_pcg import batched_cg_solve, batched_pcg_solve
from repro.solvers.cg import cg_solve
from repro.solvers.pcg import pcg_solve

NK, EK = synthetic_kernels()

#: The equivalence tolerance the engine promises (ISSUE 4).
RTOL = 1e-10

SEEDS = [0, 1, 5, 9]


def mixed_batch(seed: int, n_graphs: int = 12) -> list:
    """Seeded random labeled graphs with deliberately mixed sizes
    (1-node graphs, trees, dense blobs, weighted and not)."""
    rng = random.Random(seed)
    out = [random_labeled_graph(1, density=0.5, seed=rng.randrange(2**31))]
    for _ in range(n_graphs - 1):
        out.append(
            random_labeled_graph(
                rng.randint(2, 14),
                density=rng.uniform(0.15, 0.7),
                weighted=rng.random() < 0.5,
                seed=rng.randrange(2**31),
            )
        )
    return out


def mixed_pairs(graphs, seed: int, count: int = 50):
    rng = random.Random(seed + 77)
    return [
        (graphs[rng.randrange(len(graphs))], graphs[rng.randrange(len(graphs))])
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# solver-level equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "ref_engine", ["fused", "dense"], ids=["sparse", "dense"]
)
def test_batched_pcg_matches_per_pair(seed, ref_engine):
    """Against per-pair references whose W is the ``fused`` CSR or the
    explicit dense matrix (the ground truth)."""
    graphs = mixed_batch(seed)
    pairs = mixed_pairs(graphs, seed)
    system = build_batched_system(pairs, NK, EK, q=0.1)
    res = batched_pcg_solve(system, rtol=1e-9)
    values = system.kernel_values(res.x)
    for b, (g1, g2) in enumerate(pairs):
        ref_sys = build_product_system(g1, g2, NK, EK, 0.1, engine=ref_engine)
        ref = pcg_solve(ref_sys, rtol=1e-9)
        v_ref = ref_sys.kernel_value(ref.x)
        assert values[b] == pytest.approx(v_ref, rel=RTOL), (
            seed, ref_engine, b
        )
        assert abs(int(res.iterations[b]) - ref.iterations) <= 2, (seed, b)
        assert bool(res.converged[b]) == ref.converged


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_batched_cg_matches_per_pair(seed):
    graphs = mixed_batch(seed)
    pairs = mixed_pairs(graphs, seed, count=25)
    system = build_batched_system(pairs, NK, EK, q=0.2)
    res = batched_cg_solve(system, rtol=1e-9)
    values = system.kernel_values(res.x)
    for b, (g1, g2) in enumerate(pairs):
        ref_sys = build_product_system(g1, g2, NK, EK, 0.2, engine="fused")
        ref = cg_solve(ref_sys, rtol=1e-9)
        assert values[b] == pytest.approx(ref_sys.kernel_value(ref.x), rel=RTOL)
        assert abs(int(res.iterations[b]) - ref.iterations) <= 2


def _block_contract_pairs(kind: str) -> list:
    """Pairs of product size 1–512, 1-atom (edgeless) graphs included."""
    sizes = (1, 1, 2, 3, 4, 6, 8, 11, 16, 22)
    if kind == "molecule":
        graphs = [
            drugbank_like_molecule(n, seed=k) for k, n in enumerate(sizes)
        ]
    else:
        graphs = [
            random_labeled_graph(n, density=0.4, weighted=k % 2 == 0, seed=k)
            for k, n in enumerate(sizes)
        ]
    return [
        (a, b) for a in graphs for b in graphs
        if a.n_nodes * b.n_nodes <= BATCH_SPARSE_MAX
    ]


@pytest.mark.parametrize("kind", ["molecule", "synthetic"])
def test_block_csr_blocks_are_the_per_pair_operator(kind):
    """Each block of a bucket's operator is bitwise the pair's ``fused``
    W: same row pointer, same column indices once the segment offset is
    taken off, same data bytes."""
    nk, ek = molecule_kernels() if kind == "molecule" else (NK, EK)
    pairs = _block_contract_pairs(kind)
    sizes = [g1.n_nodes * g2.n_nodes for g1, g2 in pairs]
    # small product sizes and ones near the batchable cap alike
    assert min(sizes) == 1 and max(sizes) > BATCH_SPARSE_MAX // 2
    # every batchable pair in one system, as the planner stacks them,
    # and the edgeless 1-node pairs alone (a system with an empty W)
    edgeless = [p for p, size in zip(pairs, sizes) if size == 1]
    for members in (pairs, edgeless):
        system = build_batched_system(members, nk, ek, q=0.05)
        mat, off = system.offdiag.mat, system.offsets
        for b, (g1, g2) in enumerate(members):
            ref = assemble_sparse_offdiag(g1, g2, ek)
            ptr = mat.indptr[off[b]:off[b + 1] + 1]
            assert np.array_equal(np.diff(ptr), np.diff(ref.indptr))
            cols = mat.indices[ptr[0]:ptr[-1]] - off[b]
            assert np.array_equal(cols, ref.indices)
            assert mat.data[ptr[0]:ptr[-1]].tobytes() == ref.data.tobytes()


def _relabel(g, node_labels, edge_labels):
    """``g``'s topology under new label dicts: node arrays of length n,
    edge label values aligned with ``g.edge_list()``."""
    edges = g.edge_list()
    matrices = {}
    for name, values in edge_labels.items():
        mat = np.zeros(g.adjacency.shape, dtype=np.asarray(values).dtype)
        mat[edges[:, 0], edges[:, 1]] = values
        mat[edges[:, 1], edges[:, 0]] = values
        matrices[name] = mat
    return type(g)(g.adjacency, node_labels, matrices, name=g.name)


def _writer_case(case: str):
    """(node kernel, edge kernel, pairs) for one tile-writer edge case."""
    gs = [
        random_labeled_graph(n, density=0.5, weighted=k % 2 == 1, seed=40 + k)
        for k, n in enumerate((5, 7, 3, 9, 6, 4))
    ]
    if case == "repeated":
        # one Graph object in many members, on both sides
        g, h = gs[0], gs[1]
        return NK, EK, [(g, g), (g, h), (h, g), (g, g), (h, h), (g, h)]
    if case == "distinct_sides":
        return NK, EK, [(x, y) for x in gs[:3] for y in gs[3:]]
    if case == "edgeless":
        single = random_labeled_graph(1, seed=7)
        empty = _relabel(
            type(gs[0])(np.zeros((3, 3))),
            {"label": np.array([0, 1, 0])}, {"length": np.zeros(0)},
        )
        mixed = [single, empty, gs[0], gs[2]]
        return NK, EK, [(a, b) for a in mixed for b in mixed]
    if case in ("label_keys", "sole_names", "dtypes"):
        out = []
        for k, g in enumerate(gs):
            nodes = g.node_labels["label"]
            lengths = g.edge_arrays().labels["length"]
            if case == "label_keys":
                # extra keys on some members: the per-side intersection
                # leaves only "label" and "length"
                nl = {"label": nodes}
                el = {"length": lengths}
                if k % 2:
                    nl["extra"] = nodes + 1
                if k % 3 == 0:
                    el["bond"] = np.ones_like(lengths)
            elif case == "sole_names":
                # one label each, under different names
                nl = {("label", "kind")[k % 2]: nodes}
                el = {("length", "dist", "r")[k % 3]: lengths}
            else:
                # int and float labels under one name
                nl = {"label": nodes if k % 2 else nodes.astype(np.float64)}
                el = {"length": np.rint(4 * lengths).astype(np.int64)
                      if k % 2 == 0 else 4 * lengths}
            out.append(_relabel(g, nl, el))
        pairs = [(a, b) for a in out for b in out[::-1]]
        if case == "sole_names":
            return KroneckerDelta(0.5), SquareExponential(1.0), pairs
        return NK, EK, pairs
    raise ValueError(case)


@pytest.mark.parametrize(
    "case",
    ["repeated", "distinct_sides", "edgeless", "label_keys", "sole_names",
     "dtypes"],
)
def test_tile_writer_matches_per_pair_assembly(case):
    """The tile writer packs each side's distinct graphs once; every
    block must still be the pair's own system, bit for bit: CSR bytes
    as :func:`assemble_sparse_offdiag` writes them, and the fill's
    diagonal, right-hand side, start vector and W data as the per-pair
    :func:`build_product_system` computes them."""
    nk, ek, pairs = _writer_case(case)
    plan = build_structure_plan(pairs)
    assert plan.indptr.dtype == np.int32 and plan.indices.dtype == np.int32
    assert plan.data_gather.dtype == np.int64
    if case == "label_keys":
        assert list(plan.node_labels1) == ["label"]
        assert list(plan.edge_labels2) == ["length"]
    elif case == "sole_names":
        assert not plan.node_labels1 and not plan.edge_labels2
        assert plan.sole_node1 is not None and plan.sole_edge2 is not None
    elif case == "dtypes":
        assert plan.node_labels1["label"].dtype == np.float64
        assert plan.edge_labels2["length"].dtype == np.float64
    system = fill_batched_system(plan, nk, ek, q=0.05)
    mat, off = system.offdiag.mat, system.offsets
    for b, (g1, g2) in enumerate(pairs):
        ref = build_product_system(g1, g2, nk, ek, 0.05, engine="fused")
        W = assemble_sparse_offdiag(g1, g2, ek)
        seg = slice(off[b], off[b + 1])
        assert system.diag[seg].tobytes() == ref.sys_diag.tobytes()
        assert system.rhs[seg].tobytes() == ref.rhs.tobytes()
        assert system.px[seg].tobytes() == ref.px.tobytes()
        ptr = plan.indptr[off[b]:off[b + 1] + 1]
        assert (ptr - ptr[0]).tobytes() == W.indptr.tobytes()
        lo, hi = ptr[0], ptr[-1]
        cols = plan.indices[lo:hi] - plan.indices.dtype.type(off[b])
        assert cols.tobytes() == W.indices.tobytes()
        assert mat.data[lo:hi].tobytes() == W.data.tobytes()
        assert W.data.tobytes() == ref.info["W_sparse"].data.tobytes()


def test_tile_writer_refuses_a_pattern_past_int32(monkeypatch):
    """The writer sums slots and columns in int32: a tile whose entry
    count would not fit fails loudly instead of wrapping."""
    from repro.kernels import linsys

    g = random_labeled_graph(6, density=0.6, seed=3)
    monkeypatch.setattr(linsys, "_INT32_MAX", 4 * g.n_edges ** 2 - 1)
    with pytest.raises(ValueError, match="int32"):
        build_structure_plan([(g, g)])


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_nonconverged_pairs_propagate(seed):
    """A starved iteration budget must mark exactly the same pairs
    nonconverged as the per-pair solver, with the same counts."""
    graphs = mixed_batch(seed)
    pairs = mixed_pairs(graphs, seed, count=30)
    system = build_batched_system(pairs, NK, EK, q=0.1)
    res = batched_pcg_solve(system, rtol=1e-12, max_iter=2)
    for b, (g1, g2) in enumerate(pairs):
        ref_sys = build_product_system(g1, g2, NK, EK, 0.1, engine="fused")
        ref = pcg_solve(ref_sys, rtol=1e-12, max_iter=2)
        assert bool(res.converged[b]) == ref.converged, (seed, b)
        assert int(res.iterations[b]) == ref.iterations, (seed, b)
    # the starved batch genuinely contains failures (not a vacuous test)
    assert not res.converged.all()


def test_batch_composition_does_not_change_values():
    """A pair's result must not depend on which other pairs share its
    bucket (dropout, compaction, and stacking are per-pair exact)."""
    graphs = mixed_batch(3)
    pairs = mixed_pairs(graphs, 3, count=24)
    big = build_batched_system(pairs, NK, EK, q=0.1)
    vals_big = big.kernel_values(batched_pcg_solve(big, rtol=1e-9).x)
    small = build_batched_system(pairs[:5], NK, EK, q=0.1)
    vals_small = small.kernel_values(batched_pcg_solve(small, rtol=1e-9).x)
    np.testing.assert_array_equal(vals_big[:5], vals_small)


def test_compaction_is_exact(monkeypatch):
    """Dropping retired blocks from the operator and the state changes
    no bit: a solve that compacts is byte-equal to one that never does."""
    nk, ek = molecule_kernels()
    system = build_batched_system(
        _block_contract_pairs("molecule"), nk, ek, q=0.05
    )
    tracer = trace.Tracer()
    monkeypatch.setattr(trace, "_TRACER", tracer)
    runs = []
    for fraction in (batched_pcg.COMPACT_FRACTION, 0.0):
        monkeypatch.setattr(batched_pcg, "COMPACT_FRACTION", fraction)
        runs.append(batched_pcg_solve(system, rtol=1e-9))
    compacted, plain = runs
    compactions = [
        s.attrs["compactions"] for s in tracer.finished()
        if s.name == "pcg.batch"
    ]
    assert compactions[0] >= 2 and compactions[1] == 0
    # pairs retire from the first iteration to the twentieth and beyond
    its = compacted.iterations
    assert its.min() == 1 and its.max() >= 20
    assert compacted.x.tobytes() == plain.x.tobytes()
    assert np.array_equal(compacted.iterations, plain.iterations)
    assert compacted.residual_norms.tobytes() == plain.residual_norms.tobytes()
    assert np.array_equal(compacted.converged, plain.converged)


@pytest.mark.parametrize("fraction", [0.0, batched_pcg.COMPACT_FRACTION])
def test_retired_solutions_are_returned_as_they_retired(monkeypatch,
                                                        fraction):
    """A retired pair's segment only gains zeros until it is written
    back (at a compaction or at the end), so the returned x equals, byte
    for byte, each pair's x at the moment it retired."""
    nk, ek = molecule_kernels()
    pairs = _block_contract_pairs("molecule")
    system = build_batched_system(pairs, nk, ek, q=0.05)
    exact = batched_pcg_solve(system, rtol=1e-12).x
    near = batched_pcg_solve(
        build_batched_system(pairs, nk, ek, q=0.045), rtol=1e-12
    ).x
    # Seed a third of the pairs exactly, a third from a nearby q, and
    # leave the rest cold: retirements spread from iteration 0 onward.
    seed = system.expand(np.arange(system.batch) % 3)
    x0 = np.where(seed == 0, exact, np.where(seed == 1, near, 0.0))
    snapshots = {}

    class Snapshotting(batched_pcg.BatchedSolveHandle):
        def _retire(self, local_idx, iters, ok):
            for k in local_idx.tolist():
                seg = self.x[self.offsets[k]:self.offsets[k + 1]]
                snapshots[int(self.pair_of[k])] = seg.tobytes()
            super()._retire(local_idx, iters, ok)

    monkeypatch.setattr(batched_pcg, "COMPACT_FRACTION", fraction)
    stats = {"compactions": 0, "breakdowns": 0, "zero_iter_retired": 0}
    res = Snapshotting(system, rtol=1e-9, x0=x0, stats=stats).run()
    assert res.iterations.min() == 0 and res.iterations.max() >= 6
    assert (stats["compactions"] > 0) == (fraction > 0)
    assert sorted(snapshots) == list(range(system.batch))
    off = system.offsets
    for b in range(system.batch):
        assert res.x[off[b]:off[b + 1]].tobytes() == snapshots[b], b


# ----------------------------------------------------------------------
# buckets and tiling
# ----------------------------------------------------------------------


def test_plan_bucketed_tiles_cover_and_pure():
    # a 60-node graph makes its pairs with the larger graphs solo
    graphs = mixed_batch(7, n_graphs=10) + [
        random_labeled_graph(60, density=0.1, seed=7)
    ]
    positions = [(i, j) for i in range(11) for j in range(i, 11)]
    tiles = plan_bucketed_tiles(graphs, graphs, positions, batch_pairs=8)
    seen = sorted(p for t in tiles for p in t.pairs)
    assert seen == sorted(positions)  # exact cover
    assert {t.solo for t in tiles} == {True, False}
    for t in tiles:
        assert len(t) <= 8
        solo = {
            graphs[i].n_nodes * graphs[j].n_nodes > BATCH_SPARSE_MAX
            for i, j in t.pairs
        }
        assert solo == {t.solo}  # solo and batchable pairs kept apart
        assert np.array_equal(t.ij, np.reshape(t.pairs, (-1, 2)))
    # deterministic: same inputs, same plan (workers never enter)
    again = plan_bucketed_tiles(graphs, graphs, positions, batch_pairs=8)
    assert [t.pairs for t in again] == [t.pairs for t in tiles]


def _planned_rows(mgk, graphs, pairs, **plan_kw):
    """Every planned tile's block rows from the task body, stacked."""
    tiles = plan_bucketed_tiles(graphs, graphs, pairs, **plan_kw)
    return tiles, np.vstack(
        [solve_tile(mgk, graphs, graphs, tile) for tile in tiles]
    )


def test_solo_falls_back_per_pair_and_singletons_batch():
    """Giant pairs run through kernel.pair; a one-pair batchable tile
    runs the batched body, bit for bit as inside a larger tile."""
    big = random_labeled_graph(140, density=0.05, seed=1)  # N = 19600 > solo cap
    small = [
        random_labeled_graph(n, density=0.4, weighted=True, seed=n)
        for n in (4, 5, 6, 7)
    ]
    graphs = small + [big]
    mgk = MarginalizedGraphKernel(NK, EK, q=0.2)
    pairs = [(i, j) for i in range(len(graphs)) for j in range(i, len(graphs))]
    # 10 batchable pairs: three 3-pair tiles and a singleton, the 4-node
    # self-pair, whose value kernel.pair does not reproduce bit for bit
    tiles, rows = _planned_rows(mgk, graphs, pairs, batch_pairs=3)
    assert any(t.solo for t in tiles)
    assert any(len(t) == 1 and not t.solo for t in tiles)
    assert sorted(map(tuple, rows[:, :2].astype(int).tolist())) == pairs
    _, whole = _planned_rows(mgk, graphs, pairs)
    one_tile = {(int(r[0]), int(r[1])): r for r in whole}
    solo = {p for t in tiles if t.solo for p in t.pairs}
    for row in rows:
        i, j = int(row[0]), int(row[1])
        ref = mgk.pair(graphs[i], graphs[j])
        if (i, j) in solo:
            assert row[2] == ref.value and row[3] == ref.iterations
        else:
            assert row.tobytes() == one_tile[(i, j)].tobytes()
        assert row[2] == pytest.approx(ref.value, rel=RTOL)
        assert row[4] == 1.0


def test_unbatchable_solver_falls_back():
    mgk = MarginalizedGraphKernel(NK, EK, q=0.2, solver="direct")
    graphs = mixed_batch(6, n_graphs=5)
    pairs = [(i, j) for i in range(5) for j in range(i, 5)]
    _, rows = _planned_rows(mgk, graphs, pairs, batch_pairs=4)
    assert len(rows) == len(pairs)
    for i, j, value, iters, converged, resnorm in rows:
        assert iters == 0  # direct solves report zero iterations
        pair = mgk.pair(graphs[int(i)], graphs[int(j)])
        assert value == pytest.approx(pair.value)


# ----------------------------------------------------------------------
# engine-level equivalence and cache interchange
# ----------------------------------------------------------------------


def _gram(engine_name, graphs, **engine_kw):
    mgk = MarginalizedGraphKernel(NK, EK, q=0.2, engine=engine_name)
    return GramEngine(mgk, **engine_kw).gram(graphs)


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_gram_matches_fused(seed):
    graphs = mixed_batch(seed)
    batched = _gram("fused_batched", graphs, cache=False)
    serial = _gram("fused", graphs, cache=False)
    np.testing.assert_allclose(batched.matrix, serial.matrix, rtol=RTOL)
    assert np.abs(batched.iterations - serial.iterations).max() <= 2


def test_fused_engine_selects_the_per_pair_path():
    """The kernel alone picks the body: ``engine="fused"`` solves every
    pair through kernel.pair, whatever the tile plan."""
    graphs = mixed_batch(12, n_graphs=6)
    fused = MarginalizedGraphKernel(NK, EK, q=0.2, engine="fused")
    assert GramEngine(MarginalizedGraphKernel(NK, EK, q=0.2)).batched
    eng = GramEngine(fused, batch_pairs=4, cache=False)
    assert not eng.batched
    K = eng.gram(graphs).matrix
    ref = np.array([[fused.pair(a, b).value for b in graphs] for a in graphs])
    np.testing.assert_array_equal(np.triu(K), np.triu(ref))


def test_fused_and_batched_share_cache_entries():
    """The engines are fingerprint-aliased: entries solved by one serve
    the other, so flipping the default never cold-starts a cache."""
    a = MarginalizedGraphKernel(NK, EK, q=0.2, engine="fused")
    b = MarginalizedGraphKernel(NK, EK, q=0.2, engine="fused_batched")
    assert kernel_fingerprint(a) == kernel_fingerprint(b)
    cache = LRUCache()
    graphs = mixed_batch(13, n_graphs=6)
    eng_a = GramEngine(a, cache=cache)
    K = eng_a.gram(graphs).matrix
    eng_b = GramEngine(b, cache=cache)
    res = eng_b.gram(graphs)
    assert res.info["solves"] == 0  # pure cache hits across engines
    np.testing.assert_array_equal(res.matrix, K)


def test_unlabeled_kernels_batch():
    nk, ek = unlabeled_kernels()
    graphs = mixed_batch(14, n_graphs=6)
    batched = GramEngine(
        MarginalizedGraphKernel(nk, ek, q=0.3), cache=False
    ).gram(graphs)
    serial = GramEngine(
        MarginalizedGraphKernel(nk, ek, q=0.3, engine="fused"), cache=False
    ).gram(graphs)
    np.testing.assert_allclose(batched.matrix, serial.matrix, rtol=RTOL)


def test_golden_fixture_reproduced_by_fused_batched():
    """ISSUE 4 satellite: the batched engine reproduces the frozen
    golden Gram within the fixture's pinned tolerance."""
    from test_golden import GOLDEN_PATH, canonical_graphs, load_golden

    if not GOLDEN_PATH.is_file():  # pragma: no cover - fixture ships in-tree
        pytest.skip("golden fixture missing")
    golden = load_golden()
    from repro.kernels.basekernels import synthetic_kernels as sk

    nk, ek = sk()
    mgk = MarginalizedGraphKernel(nk, ek, q=0.2, engine="fused_batched")
    K = GramEngine(mgk).gram(canonical_graphs()).matrix
    np.testing.assert_allclose(
        K, np.array(golden["gram"]), rtol=golden["rtol"], atol=1e-12
    )
