"""Command-line interface: ``python -m repro.cli <command>``.

Batch entry points for the common workflows:

* ``generate`` — produce one of the four benchmark datasets as a
  JSON-lines file;
* ``gram`` — compute the (normalized) Gram matrix of a dataset through
  the :mod:`repro.engine` subsystem and save it as ``.npy``, printing
  solver statistics; runs tiles serially or on the supervised process
  pool (``--executor``, ``--supervised``), persists per-tile result
  blocks that a rerun is served from (``--spill-dir``, alias
  ``--cache-dir``), and extends a previously saved matrix
  incrementally (``--extend``);
* ``reorder`` — report non-empty-octile counts of a dataset under the
  available orderings (a Fig. 7 row for your own data);
* ``profile`` — run one graph pair through the virtual-GPU engine and
  print the nvprof-style counter report;
* ``fit`` — train a graph GPR on a dataset and save it to a versioned
  model registry (:mod:`repro.serve.registry`); ``--lowrank M`` fits
  the Nyström :class:`repro.ml.lowrank.LowRankGPR` on M landmark
  graphs instead of the exact O(n³) GPR (``--landmarks`` picks the
  selection strategy);
* ``serve`` — put a registry model online behind the asyncio
  microbatching inference server (:mod:`repro.serve.server`);
  ``--index`` additionally loads a registry similarity index and
  enables the ``/topk`` and ``/update`` routes;
* ``predict`` — score a dataset against a running server
  (``--server``) or straight from a registry model (offline);
* ``index`` — similarity-search index workflows
  (:mod:`repro.search`): ``index build`` embeds a dataset into
  Nyström feature space and saves the index to the registry,
  ``index query`` answers top-k most-similar queries against it, and
  ``index update`` streams new graphs in (content duplicates are
  no-ops) and saves the grown index as the next version;
* ``trace`` — observability workflows (:mod:`repro.obs`): ``trace
  summarize`` prints the per-stage wall-time breakdown of a trace
  recorded with ``gram --trace`` or ``serve --trace-dir``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .engine.executors import EXECUTORS


def _kernels_for(scheme: str):
    from .kernels.basekernels import KERNEL_SCHEMES

    if scheme not in KERNEL_SCHEMES:
        raise SystemExit(f"unknown kernel scheme {scheme!r}; pick from "
                         f"{sorted(KERNEL_SCHEMES)}")
    return KERNEL_SCHEMES[scheme]()


def cmd_generate(args: argparse.Namespace) -> int:
    from .graphs import datasets
    from .graphs.io import save_dataset

    makers = {
        "small-world": lambda: datasets.small_world_dataset(
            n_graphs=args.count, seed=args.seed
        ),
        "scale-free": lambda: datasets.scale_free_dataset(
            n_graphs=args.count, seed=args.seed
        ),
        "protein": lambda: datasets.protein_dataset(
            n_graphs=args.count, seed=args.seed
        ),
        "drugbank": lambda: datasets.drugbank_dataset(
            n_graphs=args.count, seed=args.seed
        ),
    }
    if args.dataset not in makers:
        raise SystemExit(f"unknown dataset {args.dataset!r}; pick from "
                         f"{sorted(makers)}")
    graphs = makers[args.dataset]()
    save_dataset(graphs, args.output)
    sizes = [g.n_nodes for g in graphs]
    print(f"wrote {len(graphs)} graphs to {args.output} "
          f"(nodes: min {min(sizes)}, median {int(np.median(sizes))}, "
          f"max {max(sizes)})")
    return 0


def _gram_meta_path(npy_path: str) -> str:
    if not npy_path.endswith(".npy"):
        npy_path += ".npy"  # np.save appends the suffix
    return npy_path + ".meta.json"


def cmd_gram(args: argparse.Namespace) -> int:
    import json

    from .engine import GramEngine, graph_fingerprint, kernel_fingerprint
    from .graphs.io import load_dataset
    from .kernels import MarginalizedGraphKernel

    graphs = load_dataset(args.dataset)
    nk, ek = _kernels_for(args.kernels)
    mgk = MarginalizedGraphKernel(nk, ek, q=args.q, engine=args.engine)

    tracer = None
    if args.trace:
        from .obs import enable_tracing

        tracer = enable_tracing()

    progress = None
    if args.progress:
        def progress(ev):
            print(f"  [{ev.phase}] tiles {ev.tiles_done}/{ev.tiles_total} "
                  f"pairs {ev.pairs_done}/{ev.pairs_total} "
                  f"(solved {ev.solves}, cached {ev.cache_hits}, "
                  f"{ev.elapsed:.2f} s)")

    executor = args.executor
    if args.supervised:
        executor = "process_supervised"
    engine_kw = {}
    if args.max_tile_retries is not None:
        engine_kw["max_tile_retries"] = args.max_tile_retries
    if args.tile_timeout is not None:
        engine_kw["tile_timeout_s"] = args.tile_timeout
    if args.chaos:
        engine_kw["chaos"] = args.chaos
    if args.shard:
        try:
            idx, _, total = args.shard.partition("/")
            engine_kw["shard"] = (int(idx), int(total))
        except ValueError:
            raise SystemExit(
                f"--shard must be I/N (e.g. 0/4), got {args.shard!r}"
            )
        if args.spill_dir is None:
            raise SystemExit("--shard requires --spill-dir (shards "
                             "exchange results through the block store)")
    eng = GramEngine(
        mgk,
        executor=executor,
        max_workers=args.workers,
        batch_pairs=args.batch_pairs,
        spill_dir=args.spill_dir,
        progress=progress,
        **engine_kw,
    )

    if args.extend:
        K_old = np.load(args.extend)
        n_old = K_old.shape[0]
        if not (0 < n_old < len(graphs)):
            raise SystemExit(
                f"--extend matrix covers {n_old} graphs but the dataset "
                f"has {len(graphs)}; it must cover a strict prefix"
            )
        meta_file = _gram_meta_path(args.extend)
        try:
            with open(meta_file) as fh:
                meta = json.load(fh)
        except OSError:
            meta = None
        if meta is not None:
            # Full provenance check from the sidecar written at save
            # time: normalization, hyperparameters, and every graph.
            if meta.get("normalized"):
                raise SystemExit(
                    f"{args.extend} was saved with --normalize; --extend "
                    "needs the raw (unnormalized) matrix"
                )
            if meta.get("kernel_fingerprint") != kernel_fingerprint(mgk):
                raise SystemExit(
                    f"{args.extend} was computed with different kernel "
                    "hyperparameters (--kernels/--q/--engine); recompute "
                    "instead of extending"
                )
            prefix_fps = [graph_fingerprint(g) for g in graphs[:n_old]]
            if meta.get("graph_fingerprints") != prefix_fps:
                raise SystemExit(
                    f"the first {n_old} dataset graphs do not match the "
                    f"graphs {args.extend} was computed from; --extend "
                    "requires the old dataset as an unchanged prefix"
                )
        else:
            # No sidecar (hand-made .npy): one self-similarity
            # recompute as a spot check against normalized or
            # mismatched matrices.
            check = eng.diag(graphs[:1])[0]
            if not np.isclose(check, K_old[0, 0], rtol=1e-6):
                raise SystemExit(
                    f"--extend matrix does not match this dataset/kernel: "
                    f"K[0, 0] is {K_old[0, 0]:.6g} but recomputes to "
                    f"{check:.6g} (was it saved with --normalize, or with "
                    f"different kernels/q, or did the dataset prefix "
                    f"change?)"
                )
        res = eng.extend(
            K_old, graphs[:n_old], graphs[n_old:], normalize=args.normalize
        )
        tri = res.iterations[np.triu_indices(len(graphs))]
        tri = tri[tri > 0]
        print(f"extended {n_old} -> {len(graphs)} graphs: "
              f"{res.info['new_pairs']} new pairs, "
              f"{res.info['reused_pairs']} reused")
    else:
        res = eng.gram(graphs, normalize=args.normalize)
        tri = res.iterations[np.triu_indices(len(graphs))]
    np.save(args.output, res.matrix)
    with open(_gram_meta_path(args.output), "w") as fh:
        json.dump(
            {
                "kernel_fingerprint": kernel_fingerprint(mgk),
                "graph_fingerprints": [graph_fingerprint(g) for g in graphs],
                "normalized": bool(args.normalize),
            },
            fh,
        )
    print(f"{len(graphs)} graphs, {len(tri)} pairs in {res.wall_time:.2f} s "
          f"({'converged' if res.converged else 'NOT CONVERGED'})")
    if len(tri):
        print(f"CG iterations: min {tri.min()}, mean {tri.mean():.1f}, "
              f"max {tri.max()}")
    diag = res.info["diagnostics"]
    print(diag.summary())
    if args.diag_json:
        with open(args.diag_json, "w") as fh:
            json.dump(diag.as_dict(), fh, indent=2, sort_keys=True)
        print(f"diagnostics saved to {args.diag_json}")
    if diag.pending_pairs:
        print(f"NOTE: {diag.pending_pairs} pairs are pending on other "
              f"shards (NaN in the saved matrix); run the remaining "
              f"shards over the same --spill-dir, then an unsharded pass "
              f"to merge")
    print(f"Gram matrix saved to {args.output}")
    eng.close()
    if tracer is not None:
        from .obs import disable_tracing, format_summary, write_chrome_trace

        spans = tracer.finished()
        n = write_chrome_trace(spans, args.trace)
        print(format_summary(spans))
        print(f"trace with {n} spans saved to {args.trace} "
              f"(open in Perfetto or chrome://tracing)")
        disable_tracing()
    return 0 if res.converged else 1


def cmd_reorder(args: argparse.Namespace) -> int:
    from .graphs.io import load_dataset
    from .reorder import ORDERINGS
    from .reorder.metrics import ordering_report

    graphs = load_dataset(args.dataset)
    names = args.orderings.split(",")
    print(f"{'ordering':>10s} {'% non-empty octiles':>20s} "
          f"{'mean tile density':>18s}")
    for name in names:
        if name not in ORDERINGS:
            raise SystemExit(f"unknown ordering {name!r}; pick from "
                             f"{sorted(ORDERINGS)}")
        rep = ordering_report(graphs, ORDERINGS[name], name)
        print(f"{name:>10s} {100 * rep.mean_nonempty_fraction:19.1f}% "
              f"{rep.mean_tile_density:18.2f}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .graphs.io import load_dataset
    from .kernels import MarginalizedGraphKernel

    graphs = load_dataset(args.dataset)
    i, j = args.pair
    if not (0 <= i < len(graphs) and 0 <= j < len(graphs)):
        raise SystemExit(f"pair indices out of range (dataset has "
                         f"{len(graphs)} graphs)")
    nk, ek = _kernels_for(args.kernels)
    mgk = MarginalizedGraphKernel(
        nk, ek, q=args.q, engine="vgpu",
        vgpu_options={"reorder": args.reorder or None},
    )
    r = mgk.pair(graphs[i], graphs[j])
    c = r.info["counters"]
    stats = r.info["tile_stats"]
    print(f"K(G{i}, G{j}) = {r.value:.6e}  ({r.iterations} PCG iterations)")
    print(f"global load  {c.global_load_bytes / 1e6:10.3f} MB")
    print(f"global store {c.global_store_bytes / 1e6:10.3f} MB")
    print(f"shared load  {c.shared_load_bytes / 1e6:10.3f} MB")
    print(f"shared store {c.shared_store_bytes / 1e6:10.3f} MB")
    print(f"flops        {c.flops / 1e6:10.3f} MFLOP")
    print(f"AI (global)  {c.arithmetic_intensity_global:10.2f} FLOP/B")
    print(f"tile pairs   {int(c.tile_pairs):10d}")
    print(f"mode census  {stats['mode_census']}")
    return 0


def _load_targets(args: argparse.Namespace, graphs) -> np.ndarray:
    import json

    if args.targets:
        if args.targets.endswith(".npy"):
            y = np.load(args.targets)
        else:
            with open(args.targets) as fh:
                y = np.asarray(json.load(fh), dtype=np.float64)
        if y.shape != (len(graphs),):
            raise SystemExit(
                f"targets {args.targets} has shape {y.shape} but the "
                f"dataset holds {len(graphs)} graphs"
            )
        return np.asarray(y, dtype=np.float64)
    # Demo target: mean weighted degree (documented in the README
    # walkthrough; real workflows pass --targets).
    return np.array([float(g.degrees.mean()) for g in graphs])


def _build_serving_engine(args: argparse.Namespace, kernel):
    from .engine import GramEngine

    return GramEngine(
        kernel,
        executor=args.executor,
        max_workers=args.workers,
        spill_dir=args.cache_dir,
    )


def cmd_fit(args: argparse.Namespace) -> int:
    from .graphs.io import load_dataset
    from .kernels import MarginalizedGraphKernel
    from .ml import GaussianProcessRegressor, LowRankGPR
    from .serve import ModelRegistry

    graphs = load_dataset(args.dataset)
    y = _load_targets(args, graphs)
    nk, ek = _kernels_for(args.kernels)
    mgk = MarginalizedGraphKernel(nk, ek, q=args.q)
    engine = _build_serving_engine(args, mgk)
    if args.lowrank < 0:
        raise SystemExit("--lowrank needs a positive landmark count")
    if args.lowrank:
        model = LowRankGPR(
            n_landmarks=args.lowrank,
            selection=args.landmarks,
            alpha=args.alpha,
            seed=args.seed,
            engine=engine,
        )
        model.fit_graphs(graphs, y, normalize=args.normalize)
        pred = model.predict_graphs(graphs)
        rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
        registry_graphs = model.landmarks
        metadata = {
            "dataset": args.dataset,
            "train_rmse": rmse,
            "lml": model.log_marginal_likelihood(),
            "n_train": len(graphs),
            "n_landmarks": len(model.landmarks),
            "selection": args.landmarks,
        }
        rmse_label = "train RMSE"
    else:
        model = GaussianProcessRegressor(alpha=args.alpha, engine=engine)
        model.fit_graphs(graphs, y, normalize=args.normalize)
        loo = model.loocv_predictions(y)
        rmse = float(np.sqrt(np.mean((loo - y) ** 2)))
        registry_graphs = graphs
        metadata = {"dataset": args.dataset, "loocv_rmse": rmse}
        rmse_label = "LOOCV RMSE"
    record = ModelRegistry(args.registry).save(
        args.name,
        model,
        mgk,
        registry_graphs,
        scheme=args.kernels,
        metadata=metadata,
    )
    if args.lowrank:
        print(f"fitted low-rank on {len(graphs)} graphs with "
              f"{len(model.landmarks)} landmarks "
              f"({args.landmarks} selection, rank {model.rank})")
    print(f"fitted on {len(graphs)} graphs "
          f"(engine: {engine.solves} solves, {engine.cache_hits} cache hits)")
    print(f"{rmse_label}: {rmse:.6g}")
    print(f"saved {record.name} v{record.version} -> {record.path}")
    print(f"kernel fingerprint {record.kernel_fingerprint[:12]}…")
    return 0


def _worker_serve_args(args: argparse.Namespace) -> list[str]:
    """Re-serialize the serve flags a worker process must inherit
    (everything except host/port, which the pool assigns, and the
    router-only admission/worker-count flags)."""
    argv = ["--registry", args.registry, "--name", args.name]
    if args.version is not None:
        argv += ["--version", str(args.version)]
    argv += [
        "--max-batch", str(args.max_batch),
        "--window-ms", str(args.window_ms),
        "--max-queue", str(args.max_queue),
    ]
    if args.index:
        argv += ["--index", args.index]
    if args.index_version is not None:
        argv += ["--index-version", str(args.index_version)]
    if args.mmap:
        argv += ["--mmap"]
    if args.adaptive_window:
        argv += [
            "--adaptive-window",
            "--window-min-ms", str(args.window_min_ms),
            "--window-max-ms", str(args.window_max_ms),
        ]
    argv += ["--executor", args.executor]
    if args.workers is not None:
        argv += ["--workers", str(args.workers)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    return argv


def _cmd_serve_multi(args: argparse.Namespace) -> int:
    """The ``--serve-workers N`` deployment: N worker processes behind
    a health-aware router, artifacts shared via ``--mmap``."""
    import asyncio
    import os
    import signal
    import sys

    from .serve.router import Router, WorkerPool

    # SIGTERM must tear down the worker processes too, not orphan them;
    # route it through the KeyboardInterrupt path below.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    base = _worker_serve_args(args)

    def worker_argv(host: str, port: int) -> list[str]:
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            *base, "--host", host, "--port", str(port),
        ]
        if args.trace_dir:
            # One spans.jsonl per worker; a shared file would interleave.
            argv += ["--trace-dir",
                     os.path.join(args.trace_dir, f"worker-{port}")]
        return argv

    pool = WorkerPool(args.serve_workers, worker_argv)
    pool.start()
    try:
        pool.wait_ready(timeout=300)
        router = Router(
            pool.replicas,
            host=args.host,
            port=args.port,
            rate_rps=args.rate_limit,
            burst=args.burst,
        )

        async def run() -> None:
            await router.start()
            print(f"routing {args.name} across {args.serve_workers} workers "
                  f"(ports {pool.ports}) on "
                  f"http://{router.host}:{router.port}"
                  + (f", admission {args.rate_limit:g} rps"
                     if args.rate_limit > 0 else ""),
                  flush=True)
            await router.serve_forever()

        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            print("shutting down")
    finally:
        pool.terminate()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from .serve import AdaptiveWindow, KernelServer, ModelRegistry

    if args.serve_workers > 1:
        return _cmd_serve_multi(args)

    if args.trace_dir:
        from .obs import enable_tracing, jsonl_sink

        os.makedirs(args.trace_dir, exist_ok=True)
        trace_path = os.path.join(args.trace_dir, "spans.jsonl")
        enable_tracing(sink=jsonl_sink(trace_path))
        print(f"tracing enabled, spans stream to {trace_path} "
              f"(summarize with: repro trace summarize {trace_path})")

    registry = ModelRegistry(args.registry)
    model = registry.load(args.name, version=args.version, mmap=args.mmap)
    model.gpr.engine = _build_serving_engine(args, model.kernel)
    index = None
    if args.index:
        loaded = registry.load_index(
            args.index, version=args.index_version, mmap=args.mmap
        )
        if (loaded.record.kernel_fingerprint
                == model.record.kernel_fingerprint):
            # Same kernel: share the model's engine (and its cache).
            loaded.index.feature_map.engine = model.gpr.engine
        else:
            loaded.index.feature_map.engine = _build_serving_engine(
                args, loaded.kernel
            )
        index = loaded.index
    adaptive = None
    if args.adaptive_window:
        adaptive = AdaptiveWindow(
            min_s=args.window_min_ms / 1e3,
            max_s=args.window_max_ms / 1e3,
            initial_s=args.window_ms / 1e3,
        )
    server = KernelServer(
        model.gpr,
        model_info={
            "name": model.record.name,
            "version": model.record.version,
            "kind": model.model_kind,
            "n_train": len(model.train_graphs),
            "kernel_fingerprint": model.record.kernel_fingerprint,
        },
        host=args.host,
        port=args.port,
        max_batch_graphs=args.max_batch,
        window_s=args.window_ms / 1e3,
        max_queue=args.max_queue,
        index=index,
        adaptive_window=adaptive,
        rate_rps=args.rate_limit,
        rate_burst=args.burst,
    )

    async def run() -> None:
        await server.start()
        routes = "/predict /similarity /healthz /metrics"
        if index is not None:
            routes += " /topk /update"
        print(f"serving {model.record.name} v{model.record.version} "
              f"({len(model.train_graphs)} train graphs"
              + (f", index of {len(index)} items" if index is not None
                 else "")
              + f") on http://{server.host}:{server.port}  [{routes}]",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    import json

    from .graphs.io import load_dataset

    graphs = load_dataset(args.dataset)
    if args.server:
        from .serve import ServeClient, ServeClientError

        host, _, port = args.server.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit(
                f"--server expects HOST:PORT, got {args.server!r}"
            )
        client = ServeClient(host, int(port))
        # Chunk to the request size cap; the server coalesces anyway.
        mus, stds = [], []
        try:
            for lo in range(0, len(graphs), args.batch):
                chunk = graphs[lo:lo + args.batch]
                if args.std:
                    m, s = client.predict(chunk, return_std=True)
                    stds.append(s)
                else:
                    m = client.predict(chunk)
                mus.append(m)
        except ServeClientError as exc:
            raise SystemExit(f"server refused the request: {exc}")
        except OSError as exc:
            raise SystemExit(f"cannot reach {args.server}: {exc}")
        mu = np.concatenate(mus)
        std = np.concatenate(stds) if args.std else None
    else:
        if not args.registry or not args.name:
            raise SystemExit("predict needs --server HOST:PORT, or "
                             "--registry and --name for offline scoring")
        from .serve import ModelRegistry

        model = ModelRegistry(args.registry).load(
            args.name, version=args.version
        )
        model.gpr.engine = _build_serving_engine(args, model.kernel)
        if args.std:
            mu, std = model.gpr.predict_graphs(graphs, return_std=True)
        else:
            mu, std = model.gpr.predict_graphs(graphs), None
    payload = {"mean": np.asarray(mu).tolist()}
    if std is not None:
        payload["std"] = np.asarray(std).tolist()
    text = json.dumps(payload, indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(graphs)} predictions to {args.output}")
    else:
        print(text)
    return 0


def cmd_index_build(args: argparse.Namespace) -> int:
    from .graphs.io import load_dataset
    from .kernels import MarginalizedGraphKernel
    from .search import index_from_graphs
    from .serve import ModelRegistry

    graphs = load_dataset(args.dataset)
    nk, ek = _kernels_for(args.kernels)
    mgk = MarginalizedGraphKernel(nk, ek, q=args.q)
    engine = _build_serving_engine(args, mgk)
    index = index_from_graphs(
        graphs,
        engine,
        n_landmarks=args.landmarks,
        selection=args.selection,
        seed=args.seed,
        metric=args.metric,
        normalize=args.normalize,
    )
    record = ModelRegistry(args.registry).save_index(
        args.name,
        index,
        mgk,
        scheme=args.kernels,
        metadata={"dataset": args.dataset},
    )
    print(f"indexed {len(index)} graphs into {index.dim}-dim feature space "
          f"({index.feature_map.n_landmarks} landmarks, "
          f"{index.build_time:.2f} s)")
    print(f"engine: {engine.solves} solves, {engine.cache_hits} cache hits")
    print(f"saved {record.name} v{record.version} -> {record.path}")
    return 0


def _load_registry_index(args: argparse.Namespace):
    from .serve import ModelRegistry

    loaded = ModelRegistry(args.registry).load_index(
        args.name, version=args.version
    )
    loaded.index.feature_map.engine = _build_serving_engine(
        args, loaded.kernel
    )
    return loaded


def cmd_index_query(args: argparse.Namespace) -> int:
    import json

    from .graphs.io import load_dataset

    graphs = load_dataset(args.dataset)
    loaded = _load_registry_index(args)
    results = loaded.index.query(graphs, k=args.k)
    payload = {
        "index": {"name": loaded.record.name,
                  "version": loaded.record.version,
                  "n_items": len(loaded.index)},
        "results": [
            {"query": g.name or f"#{i}", "topk": hits}
            for i, (g, hits) in enumerate(zip(graphs, results))
        ],
    }
    text = json.dumps(payload, indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote top-{args.k} results for {len(graphs)} queries "
              f"to {args.output}")
    else:
        print(text)
    return 0


def cmd_index_update(args: argparse.Namespace) -> int:
    from .graphs.io import load_dataset
    from .serve import ModelRegistry

    graphs = load_dataset(args.dataset)
    loaded = _load_registry_index(args)
    added = loaded.index.insert(graphs)
    record = ModelRegistry(args.registry).save_index(
        args.name,
        loaded.index,
        loaded.kernel,
        scheme=loaded.manifest["kernel_spec"]["scheme"],
        metadata={
            **loaded.manifest.get("metadata", {}),
            "updated_from": loaded.record.version,
            "update_dataset": args.dataset,
        },
    )
    print(f"inserted {added} new graphs "
          f"({len(graphs) - added} already indexed); "
          f"index now holds {len(loaded.index)} items")
    print(f"saved {record.name} v{record.version} -> {record.path}")
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from .obs import format_summary, load_spans

    try:
        spans = load_spans(args.file)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read trace {args.file!r}: {exc}")
    if not spans:
        print(f"no spans in {args.file}")
        return 1
    print(f"{len(spans)} spans from {args.file}")
    print(format_summary(spans))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0]
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a benchmark dataset")
    g.add_argument("dataset", help="small-world|scale-free|protein|drugbank")
    g.add_argument("output", help="output .jsonl path")
    g.add_argument("--count", type=int, default=16)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    m = sub.add_parser(
        "gram",
        help="compute, cache, or incrementally extend a Gram matrix",
    )
    m.add_argument("dataset", help="input .jsonl path")
    m.add_argument("output", help="output .npy path")
    m.add_argument("--kernels", default="synthetic",
                   help="unlabeled|synthetic|protein|molecule")
    m.add_argument("--q", type=float, default=0.05)
    m.add_argument("--engine", default="fused_batched",
                   choices=["fused_batched", "fused", "dense", "vgpu"])
    m.add_argument("--normalize", action="store_true")
    m.add_argument("--executor", default="serial", choices=EXECUTORS,
                   help="tile execution backend")
    m.add_argument("--workers", type=int, default=None,
                   help="worker count of the process_supervised pool")
    m.add_argument("--batch-pairs", type=int, default=None, metavar="N",
                   help="at most N pairs per tile, on top of the tile "
                        "planner's entry cap (default: no pair cap; "
                        "--engine fused selects the per-pair path)")
    m.add_argument("--spill-dir", "--cache-dir", dest="spill_dir",
                   default=None, metavar="DIR",
                   help="out-of-core root and persistent result store: "
                        "per-tile result blocks are persisted here (a "
                        "rerun is served from them; one after a crash "
                        "recomputes only missing tiles) and oversized "
                        "result matrices are memory-mapped instead of "
                        "held in RAM")
    m.add_argument("--supervised", action="store_true",
                   help="shorthand for the process_supervised "
                        "executor: fault-tolerant worker pool with "
                        "per-tile deadlines, retry, respawn, and "
                        "poison-tile quarantine")
    m.add_argument("--shard", default=None, metavar="I/N",
                   help="compute only this engine's share of the pair "
                        "space (tiles are routed by content key); "
                        "requires --spill-dir shared by all N shards. "
                        "Foreign pairs are NaN until an unsharded merge "
                        "pass over the same spill dir")
    m.add_argument("--max-tile-retries", type=int, default=None,
                   metavar="K",
                   help="supervised executor: failures a tile may "
                        "accumulate before quarantine (default 2)")
    m.add_argument("--tile-timeout", type=float, default=None,
                   metavar="S",
                   help="supervised executor: per-tile deadline in "
                        "seconds; a worker past it is killed and its "
                        "tile re-dispatched (default: none)")
    m.add_argument("--chaos", default=None, metavar="SPEC",
                   help="deterministic fault injection for testing, "
                        "e.g. 'kill-worker:p=0.3,seed=7' or "
                        "'hang:p=0.2,s=30;torn-block:p=0.1' (actions: "
                        "kill-worker, hang, torn-block, io-error)")
    m.add_argument("--diag-json", default=None, metavar="OUT_JSON",
                   help="write the run's Diagnostics (solves, retries, "
                        "respawns, quarantined pairs, ...) as JSON")
    m.add_argument("--extend", default=None, metavar="OLD_NPY",
                   help="previously saved unnormalized Gram over the "
                        "first N dataset graphs; only new rows/columns "
                        "are solved")
    m.add_argument("--progress", action="store_true",
                   help="print per-tile progress lines")
    m.add_argument("--trace", default=None, metavar="OUT_JSON",
                   help="record a span trace of the run and save it as "
                        "Chrome trace-event JSON (Perfetto-loadable); "
                        "also prints the per-stage wall-time breakdown")
    m.set_defaults(func=cmd_gram)

    r = sub.add_parser("reorder", help="tile-sparsity report per ordering")
    r.add_argument("dataset", help="input .jsonl path")
    r.add_argument("--orderings", default="natural,rcm,pbr")
    r.set_defaults(func=cmd_reorder)

    f = sub.add_parser("profile", help="virtual-GPU counter report")
    f.add_argument("dataset", help="input .jsonl path")
    f.add_argument("--pair", type=int, nargs=2, default=(0, 1))
    f.add_argument("--kernels", default="synthetic")
    f.add_argument("--q", type=float, default=0.05)
    f.add_argument("--reorder", default="pbr")
    f.set_defaults(func=cmd_profile)

    def add_engine_opts(sp):
        sp.add_argument("--executor", default="serial", choices=EXECUTORS)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="the engine's spill dir: per-tile result "
                             "blocks persisted here serve repeated "
                             "requests across runs")

    t = sub.add_parser(
        "fit", help="train a graph GPR and save it to a model registry"
    )
    t.add_argument("dataset", help="input .jsonl path")
    t.add_argument("--registry", required=True,
                   help="registry root directory")
    t.add_argument("--name", required=True, help="model name")
    t.add_argument("--targets", default=None,
                   help=".npy or JSON list of per-graph targets "
                        "(default: mean weighted degree, a demo target)")
    t.add_argument("--kernels", default="synthetic",
                   help="unlabeled|synthetic|protein|molecule")
    t.add_argument("--q", type=float, default=0.05)
    t.add_argument("--alpha", type=float, default=1e-6,
                   help="observation-noise variance / jitter")
    t.add_argument("--normalize", action="store_true",
                   help="fit on the cosine-normalized kernel")
    t.add_argument("--lowrank", type=int, default=0, metavar="M",
                   help="fit a Nyström low-rank GPR on M landmark graphs "
                        "instead of the exact GPR (0 = exact)")
    t.add_argument("--landmarks", default="uniform",
                   choices=["uniform", "leverage", "kcenter"],
                   help="landmark selection strategy for --lowrank")
    t.add_argument("--seed", type=int, default=0,
                   help="seed folded into landmark selection")
    add_engine_opts(t)
    t.set_defaults(func=cmd_fit)

    s = sub.add_parser(
        "serve", help="serve a registry model over HTTP (asyncio)"
    )
    s.add_argument("--registry", required=True)
    s.add_argument("--name", required=True)
    s.add_argument("--version", type=int, default=None,
                   help="model version (default: latest)")
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8077,
                   help="bind port (0 picks a free one)")
    s.add_argument("--max-batch", type=int, default=64,
                   help="graphs per coalesced microbatch")
    s.add_argument("--window-ms", type=float, default=10.0,
                   help="microbatching window")
    s.add_argument("--max-queue", type=int, default=256,
                   help="queued requests before 503 backpressure")
    s.add_argument("--index", default=None, metavar="NAME",
                   help="also load this registry similarity index and "
                        "enable the /topk and /update routes")
    s.add_argument("--index-version", type=int, default=None,
                   help="index version (default: latest)")
    s.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="enable tracing and stream finished spans to "
                        "DIR/spans.jsonl (one JSON object per line)")
    s.add_argument("--serve-workers", type=int, default=1, metavar="N",
                   help="run N worker processes behind a health-aware "
                        "router on --port (1 = single in-process server; "
                        "distinct from --workers, the engine's "
                        "supervised process pool inside each worker)")
    s.add_argument("--mmap", action="store_true",
                   help="memory-map model/index arrays read-only so "
                        "worker processes share one physical copy")
    s.add_argument("--adaptive-window", action="store_true",
                   help="let each batcher's window track its queue depth "
                        "(grow under sustained load, shrink when idle) "
                        "between --window-min-ms and --window-max-ms")
    s.add_argument("--window-min-ms", type=float, default=2.0,
                   help="adaptive-window floor")
    s.add_argument("--window-max-ms", type=float, default=100.0,
                   help="adaptive-window ceiling")
    s.add_argument("--rate-limit", type=float, default=0.0, metavar="RPS",
                   help="token-bucket admission control: shed load with "
                        "429 beyond RPS requests/s (0 = off; /healthz "
                        "and /metrics are always admitted)")
    s.add_argument("--burst", type=float, default=None,
                   help="token-bucket burst capacity (default: RPS)")
    add_engine_opts(s)
    s.set_defaults(func=cmd_serve)

    q = sub.add_parser(
        "predict",
        help="score a dataset via a running server or a registry model",
    )
    q.add_argument("dataset", help="input .jsonl path of graphs to score")
    q.add_argument("--server", default=None, metavar="HOST:PORT",
                   help="send requests to this inference server")
    q.add_argument("--batch", type=int, default=32,
                   help="graphs per request when using --server (keep at "
                        "or below the server's per-request cap)")
    q.add_argument("--registry", default=None,
                   help="offline mode: registry root")
    q.add_argument("--name", default=None, help="offline mode: model name")
    q.add_argument("--version", type=int, default=None)
    q.add_argument("--std", action="store_true",
                   help="also report posterior standard deviations")
    q.add_argument("--output", default=None,
                   help="write predictions JSON here instead of stdout")
    add_engine_opts(q)
    q.set_defaults(func=cmd_predict)

    ix = sub.add_parser(
        "index", help="similarity-search index workflows (repro.search)"
    )
    ixsub = ix.add_subparsers(dest="index_command", required=True)

    ib = ixsub.add_parser(
        "build", help="embed a dataset and save the index to the registry"
    )
    ib.add_argument("dataset", help="input .jsonl path of graphs to index")
    ib.add_argument("--registry", required=True,
                    help="registry root directory")
    ib.add_argument("--name", required=True, help="index name")
    ib.add_argument("--kernels", default="synthetic",
                    help="unlabeled|synthetic|protein|molecule")
    ib.add_argument("--q", type=float, default=0.05)
    ib.add_argument("--landmarks", type=int, default=16, metavar="M",
                    help="Nyström landmark count (the feature dimension "
                         "is at most M)")
    ib.add_argument("--selection", default="uniform",
                    choices=["uniform", "leverage", "kcenter"],
                    help="landmark selection strategy")
    ib.add_argument("--seed", type=int, default=0,
                    help="seed folded into landmark selection")
    ib.add_argument("--metric", default="cosine",
                    choices=["cosine", "euclidean"])
    ib.add_argument("--normalize", action="store_true",
                    help="embed with the cosine-normalized kernel")
    add_engine_opts(ib)
    ib.set_defaults(func=cmd_index_build)

    iq = ixsub.add_parser(
        "query", help="top-k most-similar indexed items per query graph"
    )
    iq.add_argument("dataset", help="input .jsonl path of query graphs")
    iq.add_argument("--registry", required=True)
    iq.add_argument("--name", required=True)
    iq.add_argument("--version", type=int, default=None,
                    help="index version (default: latest)")
    iq.add_argument("-k", type=int, default=10,
                    help="results per query")
    iq.add_argument("--output", default=None,
                    help="write results JSON here instead of stdout")
    add_engine_opts(iq)
    iq.set_defaults(func=cmd_index_query)

    iu = ixsub.add_parser(
        "update",
        help="stream new graphs into an index and save the next version",
    )
    iu.add_argument("dataset", help="input .jsonl path of graphs to insert")
    iu.add_argument("--registry", required=True)
    iu.add_argument("--name", required=True)
    iu.add_argument("--version", type=int, default=None,
                    help="index version to grow (default: latest)")
    add_engine_opts(iu)
    iu.set_defaults(func=cmd_index_update)

    tr = sub.add_parser(
        "trace", help="inspect recorded span traces (repro.obs)"
    )
    trsub = tr.add_subparsers(dest="trace_command", required=True)
    ts = trsub.add_parser(
        "summarize",
        help="per-stage wall-time breakdown of a saved trace",
    )
    ts.add_argument("file",
                    help="Chrome trace JSON (gram --trace) or span "
                         "JSONL (serve --trace-dir)")
    ts.set_defaults(func=cmd_trace_summarize)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
