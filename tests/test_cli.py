"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "ds.jsonl"
    assert main(["generate", "small-world", str(path), "--count", "4"]) == 0
    return path


class TestGenerate:
    def test_generates_all_kinds(self, tmp_path, capsys):
        for kind in ("small-world", "scale-free", "protein", "drugbank"):
            path = tmp_path / f"{kind}.jsonl"
            rc = main(["generate", kind, str(path), "--count", "3"])
            assert rc == 0
            assert path.exists()
            out = capsys.readouterr().out
            assert "wrote 3 graphs" in out or "wrote" in out

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "citations", str(tmp_path / "x.jsonl")])


class TestGram:
    def test_gram_roundtrip(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "K.npy"
        rc = main(["gram", str(dataset_path), str(out), "--normalize",
                   "--q", "0.1"])
        assert rc == 0
        K = np.load(out)
        assert K.shape == (4, 4)
        assert np.allclose(np.diagonal(K), 1.0)
        assert "converged" in capsys.readouterr().out

    def test_vgpu_engine(self, dataset_path, tmp_path):
        out = tmp_path / "Kv.npy"
        rc = main(["gram", str(dataset_path), str(out), "--engine", "vgpu"])
        assert rc == 0
        assert np.load(out).shape == (4, 4)

    def test_unknown_kernels(self, dataset_path, tmp_path):
        with pytest.raises(SystemExit):
            main(["gram", str(dataset_path), str(tmp_path / "K.npy"),
                  "--kernels", "quantum"])

    def test_removed_executor_is_an_invalid_choice(self, dataset_path,
                                                   tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gram", str(dataset_path), str(tmp_path / "K.npy"),
                  "--executor", "threads"])
        assert exc.value.code == 2  # argparse's usage error
        assert "invalid choice: 'threads'" in capsys.readouterr().err
        assert not (tmp_path / "K.npy").exists()

    @pytest.mark.parametrize("flag", ["--no-structure-cache",
                                      "--warm-start"])
    def test_removed_plan_reuse_flags_are_rejected(self, dataset_path,
                                                   tmp_path, capsys, flag):
        # A one-process Gram never reads a plan cache or warm store.
        with pytest.raises(SystemExit) as exc:
            main(["gram", str(dataset_path), str(tmp_path / "K.npy"), flag])
        assert exc.value.code == 2  # argparse's usage error
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "K.npy").exists()

    def test_cache_dir_rerun_is_served_from_blocks(self, dataset_path,
                                                   tmp_path):
        import json

        cache = tmp_path / "C"
        diags = []
        for name in ("K1", "K2"):
            diag = tmp_path / f"{name}.diag.json"
            rc = main(["gram", str(dataset_path), str(tmp_path / f"{name}.npy"),
                       "--cache-dir", str(cache), "--diag-json", str(diag)])
            assert rc == 0
            diags.append(json.loads(diag.read_text()))
        # --cache-dir is the spill dir: the rerun is served from blocks.
        assert diags[1]["solves"] == 0 and diags[1]["blocks_served"] > 0
        assert np.array_equal(np.load(tmp_path / "K1.npy"),
                              np.load(tmp_path / "K2.npy"))
        assert (cache / "blocks").is_dir()
        assert not list(cache.rglob("*.json"))


class TestReorder:
    def test_report(self, dataset_path, capsys):
        rc = main(["reorder", str(dataset_path), "--orderings", "natural,pbr"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "natural" in out and "pbr" in out

    def test_unknown_ordering(self, dataset_path):
        with pytest.raises(SystemExit):
            main(["reorder", str(dataset_path), "--orderings", "alphabetical"])


class TestProfile:
    def test_counter_report(self, dataset_path, capsys):
        rc = main(["profile", str(dataset_path), "--pair", "0", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PCG iterations" in out
        assert "mode census" in out

    def test_pair_out_of_range(self, dataset_path):
        with pytest.raises(SystemExit):
            main(["profile", str(dataset_path), "--pair", "0", "99"])


class TestServing:
    """fit / serve / predict — the kernel-as-a-service entry points."""

    @pytest.fixture
    def small_dataset(self, tmp_path):
        from repro.graphs.generators import random_labeled_graph
        from repro.graphs.io import save_dataset

        graphs = [
            random_labeled_graph(5, density=0.6, weighted=True, seed=40 + k)
            for k in range(6)
        ]
        path = tmp_path / "small.jsonl"
        save_dataset(graphs, path)
        return path

    def test_fit_saves_versioned_model(self, small_dataset, tmp_path, capsys):
        reg = tmp_path / "registry"
        argv = ["fit", str(small_dataset), "--registry", str(reg),
                "--name", "m", "--q", "0.2"]
        assert main(argv) == 0
        assert main(argv) == 0  # refit -> next version
        out = capsys.readouterr().out
        assert "saved m v1" in out and "saved m v2" in out
        assert "LOOCV RMSE" in out
        assert (reg / "m" / "v0002" / "manifest.json").exists()

    def test_fit_with_explicit_targets(self, small_dataset, tmp_path):
        y = np.linspace(0.0, 1.0, 6)
        tpath = tmp_path / "y.npy"
        np.save(tpath, y)
        rc = main(["fit", str(small_dataset), "--registry",
                   str(tmp_path / "reg"), "--name", "m", "--q", "0.2",
                   "--targets", str(tpath)])
        assert rc == 0

    def test_fit_target_length_mismatch(self, small_dataset, tmp_path):
        tpath = tmp_path / "y.npy"
        np.save(tpath, np.zeros(3))
        with pytest.raises(SystemExit, match="shape"):
            main(["fit", str(small_dataset), "--registry",
                  str(tmp_path / "reg"), "--name", "m",
                  "--targets", str(tpath)])

    def test_offline_predict_roundtrip(self, small_dataset, tmp_path, capsys):
        reg = tmp_path / "registry"
        assert main(["fit", str(small_dataset), "--registry", str(reg),
                     "--name", "m", "--q", "0.2"]) == 0
        out_json = tmp_path / "pred.json"
        rc = main(["predict", str(small_dataset), "--registry", str(reg),
                   "--name", "m", "--std", "--output", str(out_json)])
        assert rc == 0
        import json

        payload = json.loads(out_json.read_text())
        assert len(payload["mean"]) == 6
        assert len(payload["std"]) == 6
        # scoring the training set: the GP must interpolate closely
        graphs_y = [float(g) for g in payload["mean"]]
        assert all(np.isfinite(graphs_y))

    def test_predict_needs_a_source(self, small_dataset):
        with pytest.raises(SystemExit, match="--server"):
            main(["predict", str(small_dataset)])

    def test_predict_bad_server_spec(self, small_dataset):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["predict", str(small_dataset), "--server", "nonsense"])

    def test_predict_against_live_server(self, small_dataset, tmp_path,
                                         capsys):
        from repro.engine import GramEngine
        from repro.serve import KernelServer, ModelRegistry, ServerThread

        reg = tmp_path / "registry"
        assert main(["fit", str(small_dataset), "--registry", str(reg),
                     "--name", "m", "--q", "0.2"]) == 0
        model = ModelRegistry(reg).load("m")
        model.gpr.engine = GramEngine(model.kernel)
        server = KernelServer(model.gpr, model_info={"name": "m"})
        with ServerThread(server) as handle:
            # --batch 2 chunks the 6 graphs into 3 requests
            rc = main(["predict", str(small_dataset), "--server",
                       f"127.0.0.1:{handle.port}", "--batch", "2"])
        assert rc == 0
        import json

        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert len(payload["mean"]) == 6

    def test_predict_server_unreachable(self, small_dataset):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["predict", str(small_dataset),
                  "--server", "127.0.0.1:1"])


class TestIndex:
    """index build / query / update through the registry."""

    def test_build_query_update_round_trip(self, tmp_path, capsys):
        import json

        from repro.engine import GramEngine
        from repro.graphs.generators import random_labeled_graph
        from repro.graphs.io import save_dataset
        from repro.search import FeatureIndex
        from repro.serve import ModelRegistry

        graphs = [
            random_labeled_graph(5, density=0.6, weighted=True, seed=60 + k)
            for k in range(10)
        ]
        first, extra = tmp_path / "first.jsonl", tmp_path / "extra.jsonl"
        save_dataset(graphs[:6], first)
        save_dataset(graphs[3:], extra)  # graphs 3-5 are already indexed
        reg = tmp_path / "registry"
        where = ["--registry", str(reg), "--name", "lib"]
        assert main(["index", "build", str(first), *where, "--q", "0.2",
                     "--landmarks", "4"]) == 0
        assert "indexed 6 graphs" in capsys.readouterr().out

        hits = tmp_path / "hits.json"
        assert main(["index", "query", str(extra), *where, "-k", "3",
                     "--output", str(hits)]) == 0
        payload = json.loads(hits.read_text())
        v1 = ModelRegistry(reg).load_index("lib", version=1)
        v1.index.feature_map.engine = GramEngine(v1.kernel)
        assert payload["index"] == {"name": "lib", "version": 1,
                                    "n_items": 6}
        assert [r["topk"] for r in payload["results"]] == \
            v1.index.query(graphs[3:], k=3)

        capsys.readouterr()
        assert main(["index", "update", str(extra), *where]) == 0
        out = capsys.readouterr().out
        assert "inserted 4 new graphs (3 already indexed)" in out
        assert "index now holds 10 items" in out
        v2 = ModelRegistry(reg).load_index("lib").index
        v2.feature_map.engine = GramEngine(v1.kernel)
        fresh = FeatureIndex(v1.index.feature_map)
        fresh.insert(graphs)
        assert v2.query(graphs, k=10) == fresh.query(graphs, k=10)

    def test_removed_backend_flag_is_rejected(self, dataset_path, tmp_path,
                                              capsys):
        # One exact scan serves every index; there is no backend to pick.
        with pytest.raises(SystemExit) as exc:
            main(["index", "build", str(dataset_path), "--registry",
                  str(tmp_path / "reg"), "--name", "lib",
                  "--backend", "lsh"])
        assert exc.value.code == 2  # argparse's usage error
        assert "unrecognized arguments: --backend lsh" in \
            capsys.readouterr().err
        assert not (tmp_path / "reg").exists()
