"""Similarity-search bench: Nyström feature index vs. Gram ranking.

The paper's kernel prices similarity at one linear-system solve per
graph pair, so ranking a corpus of n against one query costs n solves
through ``/similarity``.  The search subsystem collapses that to one
m-landmark featurization (m « n kernel solves) plus a dense top-k scan
— the whole point of serving Φ = K(·, Z)·P instead of K itself.

Three measurements:

* **build + scan throughput** — index construction over a real graph
  corpus, then queries/sec of ``FeatureIndex.query_features`` (the
  path ``/topk`` serves) on a SCALE-adjusted n≈2000 feature cloud
  (``qps.exact``) and on a 100k-row cloud (``qps.exact_100k``), the
  size at which a sublinear scan would have to pay off;
* **online p50 vs. Gram ranking** — ``/topk`` latency against a
  10k-item index, compared with the *extrapolated* cost of ranking
  the same corpus through ``/similarity`` (measured per-pair kernel
  cost × corpus size).  Shape criterion: ≥ 20×.

The clouds and the 10k corpus ride in through ``insert_features``
(bulk feature rows), because what is under test is the scan and the
serving path, not 160k kernel evaluations.
"""

import time

import numpy as np

from conftest import SCALE, banner, write_bench_json
from repro import GramEngine, MarginalizedGraphKernel
from repro.graphs.generators import random_labeled_graph
from repro.kernels.basekernels import synthetic_kernels
from repro.ml import GaussianProcessRegressor
from repro.search import FeatureIndex, NystromFeatureMap, index_from_graphs
from repro.serve import KernelServer, ServeClient, ServerThread


def make_graphs(n, size=6, seed0=300):
    return [
        random_labeled_graph(size, density=0.5, weighted=True, seed=seed0 + k)
        for k in range(n)
    ]


def make_engine():
    nk, ek = synthetic_kernels()
    return GramEngine(MarginalizedGraphKernel(nk, ek, q=0.2))


def scan_qps(F, Q, k=10, rounds=5):
    """Queries/sec of the exact scan over the raw rows of ``F``."""
    index = FeatureIndex(NystromFeatureMap([], np.zeros((0, F.shape[1]))))
    index.insert_features(
        F, [f"fp{i}" for i in range(len(F))], [""] * len(F)
    )
    index.query_features(Q, k)  # warm-up
    t0 = time.perf_counter()
    for _ in range(rounds):
        index.query_features(Q, k)
    return rounds * len(Q) / (time.perf_counter() - t0)


def run_search_workload():
    out = {}

    # -- 1. real-graph index build ------------------------------------
    engine = make_engine()
    corpus = make_graphs(int(48 * max(1.0, SCALE)), seed0=300)
    t0 = time.perf_counter()
    index = index_from_graphs(corpus, engine, n_landmarks=12)
    out["build"] = {
        "n_graphs": len(corpus),
        "n_landmarks": 12,
        "seconds": time.perf_counter() - t0,
    }

    # -- 2. scan throughput on an n≈2000 and a 100k-row cloud ---------
    n_cloud = int(2000 * max(1.0, SCALE))
    rng = np.random.default_rng(7)
    F = rng.normal(size=(n_cloud, 24))
    Q = rng.normal(size=(50, 24))
    # A separate generator keeps the 10k index's rows below independent
    # of this arm.
    F100k = np.random.default_rng(8).normal(size=(100_000, 24))
    out["qps"] = {
        "exact": scan_qps(F, Q),
        "exact_100k": scan_qps(F100k, Q),
    }

    # -- 3. /topk p50 vs. extrapolated Gram ranking at 10k ------------
    n_big = 10_000
    big = FeatureIndex(index.feature_map)
    Fbig = rng.normal(size=(n_big, index.dim))
    big.insert_features(
        Fbig,
        [f"fp{i}" for i in range(n_big)],
        [f"item{i}" for i in range(n_big)],
    )
    train = corpus[:8]
    y = np.array([float(g.degrees.mean()) for g in train])
    gpr = GaussianProcessRegressor(alpha=1e-6, engine=engine)
    gpr.fit_graphs(train, y)
    queries = make_graphs(24, seed0=9000)
    server = KernelServer(gpr, index=big, window_s=0.0)
    with ServerThread(server) as handle:
        client = ServeClient(port=handle.port)
        client.wait_ready()
        client.topk([queries[0]], k=10)  # warm the route
        lat = []
        for g in queries:
            t0 = time.perf_counter()
            client.topk([g], k=10)
            lat.append(time.perf_counter() - t0)
        # per-pair Gram cost through /similarity, fresh (uncached) pairs
        pair_graphs = make_graphs(40, seed0=9500)
        pairs = list(zip(pair_graphs[:20], pair_graphs[20:]))
        t0 = time.perf_counter()
        client.similarity(pairs)
        per_pair_s = (time.perf_counter() - t0) / len(pairs)
    topk_p50_s = float(np.percentile(lat, 50))
    gram_ranking_s = per_pair_s * n_big
    out["topk"] = {
        "n_index": n_big,
        "p50_ms": topk_p50_s * 1e3,
        "p99_ms": float(np.percentile(lat, 99)) * 1e3,
    }
    out["gram_per_pair_ms"] = per_pair_s * 1e3
    out["gram_ranking_extrapolated_s"] = gram_ranking_s
    out["speedup_vs_gram_10k"] = gram_ranking_s / topk_p50_s
    return out


def test_search_index(benchmark, request):
    r = benchmark.pedantic(run_search_workload, rounds=1, iterations=1)
    banner("Similarity search — Nyström feature index")
    b = r["build"]
    print(f"index build: {b['n_graphs']} graphs, {b['n_landmarks']} "
          f"landmarks in {b['seconds']:.2f}s")
    for name, qps in r["qps"].items():
        print(f"  {name:>10}: {qps:9.0f} queries/s")
    t = r["topk"]
    print(f"/topk on {t['n_index']:,}-item index: p50 {t['p50_ms']:.2f} ms, "
          f"p99 {t['p99_ms']:.2f} ms")
    print(f"Gram ranking (extrapolated from "
          f"{r['gram_per_pair_ms']:.2f} ms/pair): "
          f"{r['gram_ranking_extrapolated_s']:.1f} s "
          f"-> speedup {r['speedup_vs_gram_10k']:.0f}x")

    write_bench_json(request, "search", {
        "build": r["build"],
        "qps": r["qps"],
        "topk": r["topk"],
        "gram_per_pair_ms": r["gram_per_pair_ms"],
        "speedup_vs_gram_10k": r["speedup_vs_gram_10k"],
    })

    # shape criterion
    assert r["speedup_vs_gram_10k"] >= 20.0
