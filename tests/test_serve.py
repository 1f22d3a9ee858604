"""Serving subsystem tests: registry, protocol, batcher, server, client.

The load-bearing properties (ISSUE 2 acceptance criteria):

* a fit survives the registry roundtrip bit-exactly, and every
  integrity rung (checksums, kernel fingerprint, schema, graph
  fingerprints) fails loudly instead of serving stale weights;
* concurrent predict requests are coalesced into engine batches and
  the answers match offline ``predict_graphs`` to 1e-10;
* failure paths answer with the right HTTP statuses: 400 malformed,
  404/405 routing, 413 oversized, 503 backpressure.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as cf
import http.client
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import GramEngine, MarginalizedGraphKernel
from repro.graphs.generators import random_labeled_graph
from repro.kernels.basekernels import synthetic_kernels
from repro.ml import GaussianProcessRegressor, NotFittedError
from repro.graphs.io import graph_from_dict, graph_to_dict
from repro.serve import (
    AdaptiveWindow,
    BatcherClosedError,
    KernelServer,
    MicroBatcher,
    ModelRegistry,
    QueueFullError,
    RegistryError,
    Router,
    ServeClient,
    ServeClientError,
    ServerThread,
    TokenBucket,
)
from repro.serve.batcher import PredictItem
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import ProtocolError, parse_predict_request

NK, EK = synthetic_kernels()


def make_graphs(n, size=6, seed0=700):
    return [
        random_labeled_graph(size, density=0.5, weighted=True, seed=seed0 + k)
        for k in range(n)
    ]


def make_kernel(q=0.2):
    return MarginalizedGraphKernel(NK, EK, q=q)


@pytest.fixture(scope="module")
def fitted():
    """A fitted graph GPR plus its kernel and train/test graphs."""
    graphs = make_graphs(10)
    train, test = graphs[:8], graphs[8:]
    y = np.array([float(g.degrees.mean()) for g in train])
    mgk = make_kernel()
    gpr = GaussianProcessRegressor(alpha=1e-6, engine=GramEngine(mgk))
    gpr.fit_graphs(train, y, normalize=True)
    return {"gpr": gpr, "kernel": mgk, "train": train, "test": test, "y": y}


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_roundtrip_is_exact(self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        rec = reg.save("m", fitted["gpr"], fitted["kernel"],
                       fitted["train"], scheme="synthetic")
        assert rec.version == 1
        model = reg.load("m")
        model.gpr.engine = GramEngine(model.kernel)
        want = fitted["gpr"].predict_graphs(fitted["test"])
        have = model.gpr.predict_graphs(fitted["test"])
        np.testing.assert_allclose(have, want, rtol=0, atol=1e-10)

    def test_roundtrip_with_std(self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.save("m", fitted["gpr"], fitted["kernel"],
                 fitted["train"], scheme="synthetic")
        model = reg.load("m")
        model.gpr.engine = GramEngine(model.kernel)
        want_mu, want_std = fitted["gpr"].predict_graphs(
            fitted["test"], return_std=True
        )
        mu, std = model.gpr.predict_graphs(fitted["test"], return_std=True)
        np.testing.assert_allclose(mu, want_mu, atol=1e-10)
        np.testing.assert_allclose(std, want_std, atol=1e-10)

    def test_versions_increment_and_latest_wins(self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        r1 = reg.save("m", fitted["gpr"], fitted["kernel"],
                      fitted["train"], scheme="synthetic")
        r2 = reg.save("m", fitted["gpr"], fitted["kernel"],
                      fitted["train"], scheme="synthetic")
        assert (r1.version, r2.version) == (1, 2)
        assert reg.versions("m") == [1, 2]
        assert reg.load("m").record.version == 2
        assert reg.load("m", version=1).record.version == 1
        assert reg.models() == ["m"]

    def test_missing_model_and_version(self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="no model named"):
            reg.load("ghost")
        reg.save("m", fitted["gpr"], fitted["kernel"],
                 fitted["train"], scheme="synthetic")
        with pytest.raises(RegistryError, match="no version 9"):
            reg.load("m", version=9)

    def test_corrupted_payload_fails_integrity(self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        rec = reg.save("m", fitted["gpr"], fitted["kernel"],
                       fitted["train"], scheme="synthetic")
        arrays = Path(rec.path) / "arrays.npz"
        arrays.write_bytes(arrays.read_bytes()[:-7])  # truncate
        with pytest.raises(RegistryError, match="integrity"):
            reg.load("m")

    def test_kernel_fingerprint_mismatch_refuses(self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        rec = reg.save("m", fitted["gpr"], fitted["kernel"],
                       fitted["train"], scheme="synthetic")
        mpath = Path(rec.path) / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["kernel_spec"]["q"] = 0.5  # drift: spec no longer matches
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(RegistryError, match="fingerprint mismatch"):
            reg.load("m")

    def test_schema_version_mismatch(self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        rec = reg.save("m", fitted["gpr"], fitted["kernel"],
                       fitted["train"], scheme="synthetic")
        mpath = Path(rec.path) / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["schema_version"] = 99
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(RegistryError, match="schema"):
            reg.load("m")

    def test_unfitted_model_rejected_at_save(self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(NotFittedError):
            reg.save("m", GaussianProcessRegressor(), fitted["kernel"],
                     fitted["train"], scheme="synthetic")

    def test_non_roundtrippable_kernel_rejected_at_save(self, fitted,
                                                        tmp_path):
        # base kernels differ from what the named scheme constructs:
        # saving would record a fingerprint load() can never rebuild
        from repro.kernels.basekernels import protein_kernels

        nk, ek = protein_kernels()
        wrong = MarginalizedGraphKernel(nk, ek, q=0.2)
        with pytest.raises(RegistryError, match="round-trip"):
            ModelRegistry(tmp_path).save(
                "m", fitted["gpr"], wrong, fitted["train"],
                scheme="synthetic",
            )

    def test_orphan_version_dir_does_not_brick_save(self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.save("m", fitted["gpr"], fitted["kernel"],
                 fitted["train"], scheme="synthetic")
        # simulate a crash mid-save: a version dir without a manifest
        (tmp_path / "m" / "v0002").mkdir()
        rec = reg.save("m", fitted["gpr"], fitted["kernel"],
                       fitted["train"], scheme="synthetic")
        assert rec.version == 3  # skipped the orphan
        assert reg.versions("m") == [1, 3]
        assert reg.load("m").record.version == 3


# ----------------------------------------------------------------------
# gpr fitted-state errors and artifact versioning
# ----------------------------------------------------------------------


class TestGprStates:
    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError, match="not fitted"):
            GaussianProcessRegressor().predict(np.eye(3))

    def test_predict_graphs_without_engine(self, fitted):
        gpr = GaussianProcessRegressor()
        with pytest.raises(RuntimeError, match="engine"):
            gpr.predict_graphs(fitted["test"])

    def test_predict_graphs_without_fit(self, fitted):
        gpr = GaussianProcessRegressor(engine=fitted["gpr"].engine)
        with pytest.raises(NotFittedError, match="not fitted"):
            gpr.predict_graphs(fitted["test"])

    def test_export_before_fit(self):
        with pytest.raises(NotFittedError):
            GaussianProcessRegressor().export_artifact()

    def test_artifact_version_gate(self, fitted):
        art = fitted["gpr"].export_artifact()
        art["artifact_version"] = 99
        with pytest.raises(ValueError, match="artifact version"):
            GaussianProcessRegressor.from_artifact(art)

    def test_artifact_train_graph_count_checked(self, fitted):
        art = fitted["gpr"].export_artifact()
        with pytest.raises(ValueError, match="graphs"):
            GaussianProcessRegressor.from_artifact(
                art, train_graphs=fitted["train"][:3]
            )


# ----------------------------------------------------------------------
# engine batch hook + disk-cache durability
# ----------------------------------------------------------------------


class TestEngineServingHooks:
    def test_pairs_matches_pair_loop(self, fitted):
        eng = GramEngine(make_kernel())
        pairs = [(a, b) for a in fitted["test"] for b in fitted["train"][:3]]
        values = eng.pairs(pairs)
        want = [make_kernel().pair(a, b).value for a, b in pairs]
        np.testing.assert_allclose(values, want, atol=1e-12)
        assert eng.pairs([]).shape == (0,)

    def test_pairs_shares_cache(self, fitted):
        eng = GramEngine(make_kernel())
        pairs = [(fitted["test"][0], fitted["train"][0])] * 4
        eng.pairs(pairs)
        assert eng.solves == 1  # duplicates deduplicated
        eng.pairs(pairs)
        assert eng.solves == 1  # second call fully cached

    def test_cache_stats_shape(self, fitted):
        eng = GramEngine(make_kernel())
        eng.gram(fitted["train"][:3])
        stats = eng.cache_stats()
        assert stats["solves"] == 6
        assert 0.0 <= stats["hit_rate"] <= 1.0
        assert stats["cache_entries"] == 6
        assert stats["cache"]["puts"] == 6


# ----------------------------------------------------------------------
# protocol + batcher units
# ----------------------------------------------------------------------


class TestProtocol:
    def test_malformed_json(self):
        with pytest.raises(ProtocolError) as ei:
            parse_predict_request(b"{not json")
        assert ei.value.status == 400

    def test_missing_graphs(self):
        with pytest.raises(ProtocolError, match="graphs"):
            parse_predict_request(b"{}")

    def test_oversized_batch(self):
        body = json.dumps({"graphs": [{} for _ in range(5)]}).encode()
        with pytest.raises(ProtocolError) as ei:
            parse_predict_request(body, max_graphs=4)
        assert ei.value.status == 413

    def test_bad_graph_entry(self):
        body = json.dumps({"graphs": [{"bogus": 1}]}).encode()
        with pytest.raises(ProtocolError) as ei:
            parse_predict_request(body)
        assert ei.value.status == 400


class TestBatcher:
    def test_coalesces_within_window(self):
        async def scenario():
            dispatched = []

            def run_batch(items):
                dispatched.append(len(items))
                return [sum(len(i.graphs) for i in items)] * len(items)

            b = MicroBatcher(run_batch, window_s=0.2, max_batch_graphs=100)
            b.start()
            results = await asyncio.gather(
                *(b.submit(["g"], False) for _ in range(5))
            )
            await b.stop()
            return dispatched, results

        dispatched, results = asyncio.run(scenario())
        assert sum(dispatched) == 5  # every request served exactly once
        assert max(dispatched) > 1  # and some were coalesced
        # each result reports the graph count of the batch it rode in
        assert sum(results) == sum(d * d for d in dispatched)

    def test_max_batch_graphs_bound(self):
        async def scenario():
            dispatched = []

            def run_batch(items):
                dispatched.append(sum(len(i.graphs) for i in items))
                return [None] * len(items)

            b = MicroBatcher(run_batch, window_s=0.2, max_batch_graphs=3)
            b.start()
            await asyncio.gather(
                *(b.submit(["g", "g"], False) for _ in range(4))
            )
            await b.stop()
            return dispatched

        dispatched = asyncio.run(scenario())
        assert all(n <= 3 for n in dispatched)
        assert sum(dispatched) == 8

    def test_backpressure_raises_queue_full(self):
        async def scenario():
            b = MicroBatcher(lambda items: [None] * len(items), max_queue=1)
            # not started: the queue can only fill
            first = asyncio.get_running_loop().create_task(
                b.submit(["g"], False)
            )
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError):
                await b.submit(["g"], False)
            first.cancel()

        asyncio.run(scenario())

    def test_stop_cancels_pending_submits(self):
        async def scenario():
            b = MicroBatcher(lambda items: [None] * len(items))
            # never started: submissions can only queue up
            pending = asyncio.get_running_loop().create_task(
                b.submit(["g"], False)
            )
            await asyncio.sleep(0)
            await b.stop()
            with pytest.raises(asyncio.CancelledError):
                await pending

        asyncio.run(scenario())

    def test_run_batch_failure_fans_out(self):
        async def scenario():
            def boom(items):
                raise RuntimeError("kernel exploded")

            b = MicroBatcher(boom, window_s=0.05)
            b.start()
            with pytest.raises(RuntimeError, match="kernel exploded"):
                await b.submit(["g"], False)
            await b.stop()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# the live server
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def live(fitted, tmp_path_factory):
    """A registry-restored model behind a running in-process server."""
    root = tmp_path_factory.mktemp("registry")
    reg = ModelRegistry(root)
    rec = reg.save("live", fitted["gpr"], fitted["kernel"],
                   fitted["train"], scheme="synthetic")
    model = reg.load("live")
    model.gpr.engine = GramEngine(model.kernel)
    server = KernelServer(
        model.gpr,
        model_info={"name": rec.name, "version": rec.version},
        window_s=0.15,
        max_request_graphs=8,
        max_body_bytes=1 << 16,
    )
    with ServerThread(server) as handle:
        client = ServeClient(port=handle.port)
        client.wait_ready()
        yield {"client": client, "server": server, "port": handle.port}


class TestServer:
    def test_healthz(self, live):
        h = live["client"].healthz()
        assert h["status"] == "ok"
        assert h["model"]["name"] == "live"

    def test_acceptance_concurrent_predicts_match_offline(self, fitted, live):
        """≥8 concurrent predicts: exact answers + a coalesced batch."""
        client = live["client"]
        test_indices = [i % 2 for i in range(8)]
        barrier = threading.Barrier(8)

        def fire(idx):
            barrier.wait(timeout=10)
            return client.predict_info([fitted["test"][idx]])

        with cf.ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(fire, test_indices))
        offline = fitted["gpr"].predict_graphs(fitted["test"])
        for idx, resp in zip(test_indices, responses):
            assert abs(resp["mean"][0] - offline[idx]) < 1e-10
        assert max(r["batched_with"] for r in responses) > 1
        metrics = client.metrics()
        assert metrics["max_batch_size"] > 1
        assert metrics["requests_by_route"]["/predict"] >= 8

    def test_mixed_std_batch_slices_correctly(self, fitted, live):
        """std and non-std requests coalesced into one batch."""
        client = live["client"]
        barrier = threading.Barrier(6)

        def fire(k):
            barrier.wait(timeout=10)
            return client.predict_info(
                [fitted["test"][k % 2]], return_std=(k % 3 == 0)
            )

        with cf.ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(fire, range(6)))
        mu_off, std_off = fitted["gpr"].predict_graphs(
            fitted["test"], return_std=True
        )
        for k, resp in enumerate(responses):
            assert abs(resp["mean"][0] - mu_off[k % 2]) < 1e-10
            if k % 3 == 0:
                assert abs(resp["std"][0] - std_off[k % 2]) < 1e-10
            else:
                assert "std" not in resp

    def test_predict_with_std_matches_offline(self, fitted, live):
        mu, std = live["client"].predict(fitted["test"], return_std=True)
        want_mu, want_std = fitted["gpr"].predict_graphs(
            fitted["test"], return_std=True
        )
        np.testing.assert_allclose(mu, want_mu, atol=1e-10)
        np.testing.assert_allclose(std, want_std, atol=1e-10)

    def test_similarity_matches_pair(self, fitted, live):
        a, b = fitted["test"][0], fitted["train"][0]
        values = live["client"].similarity([(a, b), (a, a)])
        assert abs(values[0] - make_kernel().pair(a, b).value) < 1e-10
        assert abs(values[1] - make_kernel().pair(a, a).value) < 1e-10

    def test_metrics_reports_cache_economics(self, live, fitted):
        live["client"].predict([fitted["test"][0]])
        live["client"].predict([fitted["test"][0]])  # warm repeat
        m = live["client"].metrics()
        assert m["engine"]["cache_hits"] > 0
        assert m["latency_ms"]["p99"] >= m["latency_ms"]["p50"] >= 0
        assert sum(m["batch_size_histogram"].values()) == m["batches_total"]

    # -------------------------- failure paths --------------------------

    def _raw(self, live, method, path, body=b"", headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", live["port"], timeout=30)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            conn.close()

    def test_malformed_json_is_400(self, live):
        status, obj = self._raw(live, "POST", "/predict", b"{oops")
        assert status == 400
        assert obj["error"]["code"] == "bad_json"

    def test_bad_graph_is_400(self, live):
        body = json.dumps({"graphs": [[1, 2, 3]]}).encode()
        status, obj = self._raw(live, "POST", "/predict", body)
        assert status == 400
        assert obj["error"]["code"] == "bad_graph"

    def test_oversized_batch_is_413(self, fitted, live):
        with pytest.raises(ServeClientError) as ei:
            live["client"].predict([fitted["test"][0]] * 9)  # cap is 8
        assert ei.value.status == 413
        assert ei.value.code == "batch_too_large"

    def test_unknown_route_is_404_and_folded_in_metrics(self, live):
        status, obj = self._raw(live, "GET", "/nope")
        assert status == 404
        routes = live["client"].metrics()["requests_by_route"]
        assert "/nope" not in routes  # scanners can't grow the Counter
        assert routes.get("<other>", 0) >= 1

    def test_wrong_method_is_405(self, live):
        status, _ = self._raw(live, "POST", "/healthz", b"{}")
        assert status == 405

    def test_oversized_body_is_413_and_counted(self, fitted, live):
        before = live["client"].metrics()["requests_by_status"].get("413", 0)
        big = b'{"graphs": [' + b" " * (live["server"].max_body_bytes + 1)
        status, obj = self._raw(live, "POST", "/predict", big)
        assert status == 413
        assert obj["error"]["code"] == "body_too_large"
        # framing-level rejections show up in /metrics too
        after = live["client"].metrics()["requests_by_status"].get("413", 0)
        assert after == before + 1

    def test_oversized_header_is_400(self, live):
        import socket

        with socket.create_connection(
            ("127.0.0.1", live["port"]), timeout=30
        ) as s:
            s.sendall(b"GET /healthz HTTP/1.1\r\nX-Big: "
                      + b"a" * 70000 + b"\r\n\r\n")
            data = s.recv(65536)
        assert data.split(b"\r\n")[0] == b"HTTP/1.1 400 Bad Request"


class TestShutdown:
    def test_stop_completes_with_open_keepalive_connection(self, fitted):
        """Server.stop() must not wait on idle keep-alive handlers."""
        import socket
        import time as _time

        gpr = fitted["gpr"]
        server = KernelServer(gpr, window_s=0.01)
        handle = ServerThread(server).start()
        s = socket.create_connection(("127.0.0.1", handle.port), timeout=30)
        try:
            s.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert s.recv(65536).startswith(b"HTTP/1.1 200")
            # connection stays open (keep-alive); stop must still return
            t0 = _time.monotonic()
            handle.stop()
            assert _time.monotonic() - t0 < 10
        finally:
            s.close()


# ----------------------------------------------------------------------
# streaming similarity search over the wire (/topk, /update)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_indexed(tmp_path_factory):
    """A fitted model *and* a feature index behind a running server.

    The fixture exposes the very index object the server mutates, so
    tests can always compare wire answers against ``index.query`` no
    matter how earlier tests in the module changed the corpus.
    """
    from repro.search import index_from_graphs

    graphs = make_graphs(12, seed0=1300)
    train, test = graphs[:10], graphs[10:]
    y = np.array([float(g.degrees.mean()) for g in train])
    engine = GramEngine(make_kernel())
    gpr = GaussianProcessRegressor(alpha=1e-6, engine=engine)
    gpr.fit_graphs(train, y, normalize=True)
    index = index_from_graphs(train, engine, n_landmarks=6)
    server = KernelServer(
        gpr,
        index=index,
        window_s=0.15,
        max_request_graphs=8,
        max_body_bytes=1 << 16,
    )
    with ServerThread(server) as handle:
        client = ServeClient(port=handle.port)
        client.wait_ready()
        yield {
            "client": client,
            "server": server,
            "port": handle.port,
            "index": index,
            "gpr": gpr,
            "train": train,
            "test": test,
        }


class TestSearchServer:
    def _raw(self, ctx, method, path, body=b"", headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", ctx["port"], timeout=30)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            conn.close()

    def test_topk_matches_offline_index(self, live_indexed):
        queries = live_indexed["test"]
        got = live_indexed["client"].topk(queries, k=3)
        want = live_indexed["index"].query(queries, k=3)
        assert got == want  # wire round-trip preserves floats exactly

    def test_update_indexes_and_absorbs(self, live_indexed):
        client = live_indexed["client"]
        index = live_indexed["index"]
        n_before = len(index)
        fresh = make_graphs(3, seed0=8800)
        resp = client.update(
            [(fresh[0], float(fresh[0].degrees.mean())),
             (fresh[1], float(fresh[1].degrees.mean())),
             fresh[2]]  # index-only entry, no target
        )
        assert resp["indexed"] == 3
        assert resp["absorbed"] == 2
        assert len(index) == n_before + 3
        # the new graph is now findable — and is its own best match
        hits = client.topk([fresh[0]], k=1)
        assert hits[0][0]["id"] == n_before
        assert abs(hits[0][0]["score"] - 1.0) < 1e-6
        # the model absorbed the labelled pair online
        mu = client.predict([fresh[0]])
        offline = live_indexed["gpr"].predict_graphs([fresh[0]])
        assert abs(mu[0] - offline[0]) < 1e-10

    def test_update_duplicate_is_a_noop(self, live_indexed):
        client = live_indexed["client"]
        n_before = len(live_indexed["index"])
        resp = client.update([live_indexed["train"][0]])
        assert resp["indexed"] == 0
        assert resp["absorbed"] == 0
        assert len(live_indexed["index"]) == n_before

    def test_metrics_report_index_stats(self, live_indexed):
        snap = live_indexed["client"].metrics()
        assert snap["index"]["n_items"] == len(live_indexed["index"])

    def test_topk_nonpositive_k_is_400(self, live_indexed):
        from repro.serve.protocol import graph_to_wire

        for bad_k in (0, -3, 1.5, True, "many"):
            body = json.dumps({
                "graphs": [graph_to_wire(live_indexed["test"][0])],
                "k": bad_k,
            }).encode()
            status, obj = self._raw(live_indexed, "POST", "/topk", body)
            assert status == 400, bad_k
            assert obj["error"]["code"] == "bad_request"

    def test_topk_empty_graph_list_is_400(self, live_indexed):
        status, obj = self._raw(
            live_indexed, "POST", "/topk",
            json.dumps({"graphs": [], "k": 3}).encode(),
        )
        assert status == 400
        assert obj["error"]["code"] == "bad_request"

    def test_topk_bad_smiles_is_400(self, live_indexed):
        status, obj = self._raw(
            live_indexed, "POST", "/topk",
            json.dumps({"graphs": ["not_a_smiles(("], "k": 3}).encode(),
        )
        assert status == 400
        assert obj["error"]["code"] == "bad_smiles"

    def test_update_malformed_entries_are_400(self, live_indexed):
        for payload in (
            {"entries": "nope"},
            {"entries": []},
            {"entries": [{"y": 1.0}]},          # no graph
            {"entries": [{"graph": 7}]},        # not graph/SMILES
        ):
            status, obj = self._raw(
                live_indexed, "POST", "/update",
                json.dumps(payload).encode(),
            )
            assert status == 400, payload
            assert obj["error"]["code"] in ("bad_request", "bad_graph")

    def test_update_nonnumeric_target_is_400(self, live_indexed):
        from repro.serve.protocol import graph_to_wire

        wire = graph_to_wire(live_indexed["train"][0])
        for bad_y in ("high", True):
            status, obj = self._raw(
                live_indexed, "POST", "/update",
                json.dumps({"entries": [{"graph": wire, "y": bad_y}]}).encode(),
            )
            assert status == 400, bad_y
            assert obj["error"]["code"] == "bad_request"

    def test_search_routes_405_on_get(self, live_indexed):
        for path in ("/topk", "/update"):
            status, obj = self._raw(live_indexed, "GET", path)
            assert status == 405
            assert obj["error"]["code"] == "bad_method"

    def test_search_routes_404_without_index(self, live):
        """A model-only server refuses search routes with a clear code."""
        from repro.serve.protocol import graph_to_wire

        g = graph_to_wire(make_graphs(1, seed0=9000)[0])
        for path, payload in (
            ("/topk", {"graphs": [g], "k": 1}),
            ("/update", {"entries": [{"graph": g}]}),
        ):
            conn = http.client.HTTPConnection(
                "127.0.0.1", live["port"], timeout=30
            )
            try:
                conn.request("POST", path, body=json.dumps(payload).encode())
                resp = conn.getresponse()
                status, obj = resp.status, json.loads(resp.read())
            finally:
                conn.close()
            assert status == 404
            assert obj["error"]["code"] == "no_index"

    def test_update_without_appendable_model_leaves_no_partial_state(self):
        """Labelled updates against a model that cannot absorb them must
        fail atomically: 400 and nothing inserted into the index."""
        from repro.search import index_from_graphs

        graphs = make_graphs(8, seed0=9100)
        y = np.array([float(g.degrees.mean()) for g in graphs])
        engine = GramEngine(make_kernel())
        gpr = GaussianProcessRegressor(alpha=1e-6, engine=engine)
        gpr.fit_graphs(graphs, y, normalize=True)
        art = gpr.export_artifact()
        art.pop("y_raw")  # model from before online updates existed
        old = GaussianProcessRegressor.from_artifact(
            art, train_graphs=graphs, engine=engine
        )
        index = index_from_graphs(graphs, engine, n_landmarks=4)
        server = KernelServer(old, index=index, window_s=0.01)
        with ServerThread(server) as handle:
            client = ServeClient(port=handle.port)
            client.wait_ready()
            fresh = make_graphs(2, seed0=9200)
            with pytest.raises(ServeClientError) as err:
                client.update([(fresh[0], 1.0), fresh[1]])
            assert err.value.status == 400
            assert err.value.code == "not_appendable"
            assert len(index) == len(graphs)  # nothing slipped in
            # unlabelled-only updates still work fine
            resp = client.update([fresh[1]])
            assert resp["indexed"] == 1

    def test_concurrent_topk_requests_coalesce(self, live_indexed):
        client = live_indexed["client"]
        queries = live_indexed["test"]
        barrier = threading.Barrier(4)

        def fire(i):
            barrier.wait(timeout=10)
            return client.topk_info([queries[i % len(queries)]], k=2)

        with cf.ThreadPoolExecutor(max_workers=4) as pool:
            responses = list(pool.map(fire, range(4)))
        assert max(r["batched_with"] for r in responses) > 1
        want = live_indexed["index"].query(queries, k=2)
        for i, resp in enumerate(responses):
            got, ref = resp["results"][0], want[i % len(queries)]
            # coalesced featurization (one GEMM per batch) may differ
            # from the offline per-query path in the last ulp
            assert [h["id"] for h in got] == [h["id"] for h in ref]
            np.testing.assert_allclose(
                [h["score"] for h in got],
                [h["score"] for h in ref],
                rtol=1e-12,
            )


# ----------------------------------------------------------------------
# observability: inflight gauge, Prometheus exposition, trace linkage
# ----------------------------------------------------------------------


class TestObservability:
    def test_metrics_report_inflight(self, live):
        snap = live["client"].metrics()
        # the scrape itself is in flight while the snapshot is taken
        assert snap["inflight"] >= 1

    def test_metrics_prometheus_content_negotiation(self, live):
        conn = http.client.HTTPConnection(
            "127.0.0.1", live["port"], timeout=30
        )
        try:
            conn.request("GET", "/metrics",
                         headers={"Accept": "text/plain"})
            resp = conn.getresponse()
            text = resp.read().decode()
        finally:
            conn.close()
        assert resp.status == 200
        assert resp.getheader("Content-Type").startswith("text/plain")
        assert "# TYPE server_requests_total counter" in text
        assert "# TYPE server_inflight_requests gauge" in text
        assert ('server_request_latency_seconds_bucket{le="+Inf"}'
                in text)
        assert "server_request_latency_seconds_count" in text
        # engine cache economics ride along as per-tier gauges
        assert 'engine_cache_hits{tier="value"}' in text
        # the default (no Accept preference) stays JSON
        snap = live["client"].metrics()
        assert "requests_total" in snap and "latency_ms" in snap

    def test_request_id_propagates_through_batcher(self, fitted, live):
        from repro.obs import disable_tracing, enable_tracing
        from repro.serve.protocol import graph_to_wire

        tracer = enable_tracing()
        try:
            body = json.dumps(
                {"graphs": [graph_to_wire(fitted["test"][0])]}
            )
            conn = http.client.HTTPConnection(
                "127.0.0.1", live["port"], timeout=60
            )
            try:
                conn.request(
                    "POST", "/predict", body=body,
                    headers={"Content-Type": "application/json",
                             "X-Request-Id": "req-obs-1"},
                )
                resp = conn.getresponse()
                resp.read()
            finally:
                conn.close()
            assert resp.status == 200
            # the id is echoed back to the client...
            assert resp.getheader("X-Request-Id") == "req-obs-1"
            # ...and is the trace id of the whole span tree
            spans = [s for s in tracer.finished()
                     if s.trace_id == "req-obs-1"]
            names = {s.name for s in spans}
            assert {"http.request", "batch.predict",
                    "engine.compute_pairs"} <= names
            req = next(s for s in spans if s.name == "http.request")
            batch = next(s for s in spans if s.name == "batch.predict")
            assert batch.parent_id == req.span_id
            assert "req-obs-1" in batch.attrs["request_ids"]
            assert req.attrs["status"] == 200
            assert req.attrs["path"] == "/predict"
        finally:
            disable_tracing()

    def test_request_id_minted_when_absent(self, live):
        conn = http.client.HTTPConnection(
            "127.0.0.1", live["port"], timeout=30
        )
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            resp.read()
        finally:
            conn.close()
        rid = resp.getheader("X-Request-Id")
        assert rid and rid.startswith("req-")


# ----------------------------------------------------------------------
# failure containment, adaptive batching, admission control (ISSUE 8)
# ----------------------------------------------------------------------


def poison_wire_graph(seed=4242):
    """Parses on the wire, fails inside the engine: the node-label
    vocabulary doesn't match the model's kernel."""
    d = graph_to_dict(make_graphs(1, seed0=seed)[0])
    d["node_labels"] = {"mislabeled": d["node_labels"]["label"]}
    return graph_from_dict(d)


class TestBatcherIsolation:
    def test_joint_failure_isolates_poison_from_siblings(self):
        """A run_batch that dies on the coalesced call must be re-run
        per item: siblings resolve, only the poison request fails."""
        async def scenario():
            calls = []

            def run_batch(items):
                calls.append(len(items))
                if any(i.meta.get("poison") for i in items):
                    if len(items) > 1:
                        raise RuntimeError("joint batch exploded")
                    raise ValueError("poison request")
                return [len(i.graphs) for i in items]

            b = MicroBatcher(run_batch, window_s=0.2, max_batch_graphs=100)
            b.start()
            results = await asyncio.gather(
                b.submit(["g"], False),
                b.submit(["g"], False, poison=True),
                b.submit(["g"], False),
                return_exceptions=True,
            )
            await b.stop()
            return calls, results

        calls, results = asyncio.run(scenario())
        assert results[0] == 1 and results[2] == 1  # siblings served
        assert isinstance(results[1], ValueError)  # blame on the poison
        # one joint attempt, then one singleton re-run per member
        assert calls[0] == 3 and calls[1:] == [1, 1, 1]

    def test_run_batch_may_return_exceptions_per_slot(self):
        """results-or-errors contract: an Exception instance in a slot
        fails only that item's future."""
        async def scenario():
            def run_batch(items):
                return [
                    ValueError("bad slot") if i.meta.get("bad") else "ok"
                    for i in items
                ]

            b = MicroBatcher(run_batch, window_s=0.2, max_batch_graphs=100)
            b.start()
            results = await asyncio.gather(
                b.submit(["g"], False),
                b.submit(["g"], False, bad=True),
                return_exceptions=True,
            )
            await b.stop()
            return results

        good, bad = asyncio.run(scenario())
        assert good == "ok"
        assert isinstance(bad, ValueError)

    def test_isolation_metrics_counted(self):
        async def scenario():
            metrics = ServerMetrics()

            def run_batch(items):
                if len(items) > 1:
                    raise RuntimeError("joint failure")
                if items[0].meta.get("poison"):
                    raise ValueError("poison")
                return ["ok"]

            b = MicroBatcher(run_batch, window_s=0.2,
                             max_batch_graphs=100, metrics=metrics)
            b.start()
            await asyncio.gather(
                b.submit(["g"], False),
                b.submit(["g"], False, poison=True),
                return_exceptions=True,
            )
            await b.stop()
            return metrics.snapshot()

        snap = asyncio.run(scenario())
        assert snap["poison_batches"] == 1
        assert snap["isolated_items"] == {"ok": 1, "error": 1}


class TestBatcherBackpressure:
    def test_carry_slot_counts_toward_backpressure(self):
        """The carry slot holds one admitted request; with it occupied
        a full queue must shed, not over-admit (the old bug admitted
        max_queue + 1)."""
        async def scenario():
            loop = asyncio.get_running_loop()
            b = MicroBatcher(lambda items: [None] * len(items), max_queue=2)
            # not started: nothing drains.  Occupy the carry slot the
            # way _drain does (an oversized arrival that didn't fit).
            b._carry = PredictItem(
                graphs=["g"], return_std=False,
                future=loop.create_future(), meta={},
            )
            task = loop.create_task(b.submit(["g"], False))
            await asyncio.sleep(0)
            assert b.depth == 2  # carry + 1 queued == max_queue
            with pytest.raises(QueueFullError):
                await b.submit(["g"], False)
            task.cancel()
            b._carry.future.cancel()

        asyncio.run(scenario())

    def test_queue_depth_gauge_tracks_submissions(self):
        async def scenario():
            metrics = ServerMetrics()
            b = MicroBatcher(lambda items: [None] * len(items),
                             metrics=metrics, name="predict")
            task = asyncio.get_running_loop().create_task(
                b.submit(["g"], False)
            )
            await asyncio.sleep(0)
            depth = metrics.snapshot()["queue_depth"]["predict"]
            task.cancel()
            return depth

        assert asyncio.run(scenario()) == 1


class TestBatcherClose:
    def test_submit_after_stop_is_rejected_not_hung(self):
        async def scenario():
            b = MicroBatcher(lambda items: ["ok"] * len(items),
                             window_s=0.01)
            b.start()
            assert await b.submit(["g"], False) == "ok"
            await b.stop()
            with pytest.raises(BatcherClosedError):
                await b.submit(["g"], False)

        asyncio.run(scenario())

    def test_closed_error_is_queue_full_subclass(self):
        # the server's existing 503 path catches QueueFullError; the
        # shutdown race must ride it
        assert issubclass(BatcherClosedError, QueueFullError)

    def test_submits_racing_stop_all_resolve(self):
        """No submitter may hang across shutdown: each gets a result,
        a cancellation, or BatcherClosedError — within a deadline."""
        async def scenario():
            started = threading.Event()
            release = threading.Event()

            def slow_batch(items):
                started.set()
                release.wait(timeout=10)
                return ["ok"] * len(items)

            b = MicroBatcher(slow_batch, window_s=0.001, max_batch_graphs=1)
            b.start()
            tasks = [
                asyncio.get_running_loop().create_task(
                    b.submit(["g"], False)
                )
                for _ in range(5)
            ]
            await asyncio.sleep(0)
            await asyncio.get_running_loop().run_in_executor(
                None, started.wait, 10
            )
            stopper = asyncio.get_running_loop().create_task(b.stop())
            await asyncio.sleep(0)
            # a straggler arriving mid-shutdown is refused outright
            with pytest.raises(BatcherClosedError):
                await b.submit(["g"], False)
            release.set()
            await stopper
            done, pending = await asyncio.wait(tasks, timeout=10)
            assert not pending
            outcomes = []
            for t in done:
                try:
                    outcomes.append(t.result())
                except (asyncio.CancelledError, BatcherClosedError):
                    outcomes.append("cancelled")
            return outcomes

        outcomes = asyncio.run(scenario())
        assert len(outcomes) == 5  # nobody hung


class TestAdaptiveWindow:
    def test_grows_only_after_sustained_depth(self):
        w = AdaptiveWindow(min_s=0.01, max_s=0.08, initial_s=0.02,
                           high_depth=4, sustain=2, grow=2.0, shrink=0.5)
        assert w.after_batch(5) == 0.02  # one deep observation: hold
        assert w.after_batch(6) == 0.04  # sustained: grow
        assert w.after_batch(2) == 0.04  # middling depth: hold
        assert w.after_batch(0) == 0.02  # idle: shrink immediately

    def test_clamped_to_bounds(self):
        w = AdaptiveWindow(min_s=0.01, max_s=0.03, initial_s=0.02,
                           sustain=1, grow=10.0, shrink=0.01)
        assert w.after_batch(10) == 0.03  # ceiling
        assert w.after_batch(0) == 0.01  # floor

    def test_middling_depth_resets_streak(self):
        w = AdaptiveWindow(min_s=0.01, max_s=0.08, initial_s=0.02,
                           high_depth=4, sustain=2, grow=2.0)
        w.after_batch(5)
        w.after_batch(2)  # streak broken
        assert w.after_batch(5) == 0.02  # needs sustain again

    def test_clone_is_independent(self):
        w = AdaptiveWindow(min_s=0.01, max_s=0.08, initial_s=0.02,
                           sustain=1, grow=2.0)
        c = w.clone()
        assert c.current == w.current
        w.after_batch(10)
        assert w.current == 0.04 and c.current == 0.02

    def test_batcher_window_follows_policy(self):
        b = MicroBatcher(
            lambda items: [None] * len(items),
            window_s=0.02,
            adaptive=AdaptiveWindow(min_s=0.01, max_s=0.08, sustain=1,
                                    grow=2.0),
        )
        assert b.window_s == 0.02  # seeded from window_s
        b.adaptive.after_batch(10)
        assert b.window_s == 0.04  # live view of the policy

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveWindow(min_s=0.1, max_s=0.01)
        with pytest.raises(ValueError):
            AdaptiveWindow(grow=0.5)
        with pytest.raises(ValueError):
            AdaptiveWindow(sustain=0)


class TestTokenBucket:
    def test_burst_then_empty(self):
        b = TokenBucket(rate_rps=1.0, burst=2)
        assert b.allow() and b.allow()
        assert not b.allow()  # bucket drained

    def test_refills_over_time(self):
        b = TokenBucket(rate_rps=200.0, burst=1)
        assert b.allow()
        assert not b.allow()
        deadline = __import__("time").monotonic() + 2.0
        while not b.allow():
            assert __import__("time").monotonic() < deadline
            __import__("time").sleep(0.005)

    def test_zero_rate_disables(self):
        b = TokenBucket(rate_rps=0.0)
        assert all(b.allow() for _ in range(1000))


# ----------------------------------------------------------------------
# router: replica selection, failover, admission control
# ----------------------------------------------------------------------


def _make_server(fitted, window_s=0.05):
    gpr = fitted["gpr"]
    return KernelServer(gpr, model_info={"name": "routed", "version": 1},
                        window_s=window_s)


@pytest.fixture()
def routed(fitted):
    """Two live replicas behind a Router, all in-process."""
    s1, s2 = _make_server(fitted), _make_server(fitted)
    with ServerThread(s1) as h1, ServerThread(s2) as h2:
        router = Router(
            [("127.0.0.1", h1.port), ("127.0.0.1", h2.port)],
            probe_interval_s=0.2,
            max_retries=2,
        )
        with ServerThread(router) as hr:
            client = ServeClient(port=hr.port)
            client.wait_ready()
            yield {
                "client": client, "router": router,
                "servers": [s1, s2], "handles": [h1, h2],
                "port": hr.port,
            }


class TestReplicaHysteresis:
    """Health transitions need K consecutive failures out and M
    consecutive successes back in (ISSUE 10 satellite)."""

    def _replica(self, **kw):
        from repro.serve.router import ReplicaState
        return ReplicaState("127.0.0.1", 9999, **kw)

    def test_single_failure_does_not_eject(self):
        r = self._replica()  # defaults: 3 out, 2 in
        assert not r.mark_failed(OSError("blip"))
        assert r.healthy and (r.failures, r.successes) == (1, 0)

    def test_k_consecutive_failures_eject(self):
        r = self._replica(unhealthy_after=3)
        boom = OSError("down")
        assert not r.mark_failed(boom)
        assert not r.mark_failed(boom)
        assert r.mark_failed(boom)  # third strike ejects
        assert not r.healthy and r.marked_unhealthy == 1
        assert not r.mark_failed(boom)  # already out: no new transition

    def test_success_resets_the_failure_streak(self):
        r = self._replica(unhealthy_after=2)
        r.mark_failed(OSError("x"))
        r.mark_ok()  # streak broken
        assert not r.mark_failed(OSError("y"))
        assert r.healthy

    def test_m_consecutive_successes_readmit(self):
        r = self._replica(unhealthy_after=1, healthy_after=2)
        r.mark_failed(OSError("down"))
        assert not r.healthy
        assert not r.mark_ok()  # one good probe is not enough
        assert not r.healthy
        assert r.mark_ok()  # second consecutive success re-admits
        assert r.healthy and r.readmitted == 1

    def test_failure_resets_the_success_streak(self):
        r = self._replica(unhealthy_after=1, healthy_after=2)
        r.mark_failed(OSError("down"))
        r.mark_ok()
        r.mark_failed(OSError("still down"))  # resets successes
        assert not r.mark_ok()
        assert not r.healthy  # needs the full streak again

    def test_transition_counters_in_describe(self):
        r = self._replica(unhealthy_after=1, healthy_after=1)
        r.mark_failed(OSError("a")); r.mark_ok()
        r.mark_failed(OSError("b")); r.mark_ok()
        d = r.describe()
        assert d["marked_unhealthy"] == 2
        assert d["readmitted"] == 2

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            self._replica(unhealthy_after=0)
        with pytest.raises(ValueError):
            self._replica(healthy_after=0)


class TestRouter:
    def test_routed_predict_matches_offline(self, fitted, routed):
        mu = routed["client"].predict(fitted["test"])
        offline = fitted["gpr"].predict_graphs(fitted["test"])
        np.testing.assert_allclose(mu, offline, atol=1e-10)

    def test_healthz_reports_replicas(self, routed):
        h = routed["client"].healthz()
        assert h["replicas_healthy"] == 2
        assert h["status"] == "ok"

    def test_failover_on_dead_replica(self, fitted, routed):
        """Kill one replica; requests keep succeeding via the other."""
        routed["handles"][0].stop()  # replica 1 is now a dead port
        client = routed["client"]
        for i in range(6):
            mu = client.predict([fitted["test"][i % 2]])
            assert np.isfinite(mu).all()
        snap = client.metrics()
        healthy = [r["state"]["healthy"]
                   for r in snap["replicas"].values()
                   if "state" in r]
        # the prober (0.2s cadence) or the failed forward has marked it
        assert sum(bool(h) for h in healthy) <= 2

    def test_all_replicas_dead_is_503(self, fitted):
        # ports from closed listeners: nothing is behind them
        import socket as _socket
        dead = []
        for _ in range(2):
            s = _socket.socket()
            s.bind(("127.0.0.1", 0))
            dead.append(s.getsockname()[1])
            s.close()
        # unhealthy_after=1: the initial probe ejects both dead ports
        # immediately (the hysteresis default of 3 would keep them in
        # the rotation until the prober accumulates the failures).
        router = Router([("127.0.0.1", p) for p in dead],
                        probe_interval_s=0.2, request_timeout_s=2.0,
                        unhealthy_after=1)
        with ServerThread(router) as hr:
            conn = http.client.HTTPConnection("127.0.0.1", hr.port,
                                              timeout=10)
            body = json.dumps(
                {"graphs": [graph_to_dict(fitted["test"][0])]}
            )
            conn.request("POST", "/predict", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            conn.close()
        assert resp.status == 503
        assert payload["error"]["code"] == "no_replicas"

    def test_rate_limit_sheds_429_but_healthz_exempt(self, fitted):
        server = _make_server(fitted)
        with ServerThread(server) as h:
            router = Router([("127.0.0.1", h.port)],
                            rate_rps=0.001, burst=1)
            with ServerThread(router) as hr:
                client = ServeClient(port=hr.port)
                client.wait_ready()
                g = [fitted["test"][0]]
                client.predict(g)  # consumes the single burst token
                with pytest.raises(ServeClientError) as ei:
                    client.predict(g)
                assert ei.value.status == 429
                assert ei.value.code == "rate_limited"
                # load-shed never starves the health/metrics plane
                assert client.healthz()["status"] == "ok"
                snap = client.metrics()
                assert snap["router"]["router_rate_limited_total"] >= 1

    def test_metrics_json_aggregates_replicas(self, routed):
        snap = routed["client"].metrics()
        assert {"router", "replicas"} <= set(snap)
        assert len(snap["replicas"]) == 2
        for rep in snap["replicas"].values():
            assert rep["state"]["healthy"]
            assert "requests_total" in rep["metrics"]

    def test_metrics_prometheus_format(self, routed):
        conn = http.client.HTTPConnection("127.0.0.1", routed["port"],
                                          timeout=10)
        conn.request("GET", "/metrics",
                     headers={"Accept": "text/plain"})
        resp = conn.getresponse()
        text = resp.read().decode()
        conn.close()
        assert resp.status == 200
        assert "router_requests_total" in text
        assert "router_replica_healthy" in text

    @staticmethod
    def _post_with_length(port, length: bytes):
        """Raw POST whose Content-Length header reads ``length``; the
        status line and the error code of the router's reply."""
        import socket as _socket

        with _socket.create_connection(("127.0.0.1", port),
                                       timeout=30) as s:
            s.sendall(b"POST /predict HTTP/1.1\r\nContent-Length: "
                      + length + b"\r\n\r\n")
            data = b""
            while chunk := s.recv(65536):  # the router closes after it
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        return head.split(b"\r\n")[0], json.loads(body)["error"]["code"]

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_is_400(self, routed, length):
        status, code = self._post_with_length(routed["port"], length)
        assert status == b"HTTP/1.1 400 Bad Request"
        assert code == "bad_request"

    def test_body_over_the_limit_is_413(self, routed):
        limit = routed["router"].max_body_bytes
        status, code = self._post_with_length(
            routed["port"], str(limit + 1).encode())
        assert status == b"HTTP/1.1 413 Payload Too Large"
        assert code == "body_too_large"

    def test_client_retries_through_transient_429(self, fitted):
        server = _make_server(fitted)
        with ServerThread(server) as h:
            router = Router([("127.0.0.1", h.port)],
                            rate_rps=50.0, burst=1)
            with ServerThread(router) as hr:
                client = ServeClient(port=hr.port, retries=3,
                                     retry_backoff_s=0.05)
                client.wait_ready()
                g = [fitted["test"][0]]
                client.predict(g)
                # bucket is empty; the retrying client rides refill
                assert np.isfinite(client.predict(g)).all()


class TestServerPoisonContainment:
    def test_poisoned_batch_answers_400_siblings_200(self, fitted, live):
        """End to end: a wrong-vocabulary graph coalesced with clean
        requests must 400 alone while every sibling gets its answer."""
        client = live["client"]
        poison = poison_wire_graph()
        barrier = threading.Barrier(4)

        def fire(i):
            barrier.wait(timeout=10)
            if i == 0:
                try:
                    client.predict([poison])
                    return ("poison", None)
                except ServeClientError as exc:
                    return ("poison", exc)
            return ("clean", client.predict([fitted["test"][i % 2]]))

        with cf.ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result() for f in
                       [pool.submit(fire, i) for i in range(4)]]
        offline = fitted["gpr"].predict_graphs(fitted["test"])
        for kind, value in results:
            if kind == "poison":
                assert isinstance(value, ServeClientError)
                assert value.status == 400
                assert value.code == "unsupported_graph"
            else:
                assert abs(value[0] - offline[int(np.argmin(
                    [abs(value[0] - o) for o in offline]))]) < 1e-10
        snap = client.metrics()
        assert snap["poison_batches"] >= 1
        assert snap["isolated_items"].get("ok", 0) >= 1


class TestRegistryMmap:
    def test_mmap_load_matches_and_materializes_arrays(
            self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.save("mm", fitted["gpr"], fitted["kernel"], fitted["train"],
                 scheme="synthetic")
        plain = reg.load("mm")
        plain.gpr.engine = GramEngine(plain.kernel)
        mapped = reg.load("mm", mmap=True)
        mapped.gpr.engine = GramEngine(mapped.kernel)
        np.testing.assert_allclose(
            mapped.gpr.predict_graphs(fitted["test"]),
            plain.gpr.predict_graphs(fitted["test"]),
            atol=0,
        )
        vdir = tmp_path / "mm" / "v0001"
        assert (vdir / "arrays.mmap").is_dir()
        assert any((vdir / "arrays.mmap").glob("*.npy"))

    def test_mmap_arrays_are_read_only_views(self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.save("mm2", fitted["gpr"], fitted["kernel"], fitted["train"],
                 scheme="synthetic")
        mapped = reg.load("mm2", mmap=True)
        arr = mapped.gpr._dual  # any model array will do
        if isinstance(arr, np.memmap):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_second_mmap_load_reuses_materialized_arrays(
            self, fitted, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.save("mm3", fitted["gpr"], fitted["kernel"], fitted["train"],
                 scheme="synthetic")
        reg.load("mm3", mmap=True)
        vdir = tmp_path / "mm3" / "v0001" / "arrays.mmap"
        stamps = {p.name: p.stat().st_mtime_ns for p in vdir.glob("*.npy")}
        reg.load("mm3", mmap=True)
        assert stamps == {
            p.name: p.stat().st_mtime_ns for p in vdir.glob("*.npy")
        }
