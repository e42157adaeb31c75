"""End-to-end CLI tests (the Figure-2 workflow from the command line)."""

import numpy as np
import pytest

from repro.cli import main
from repro.data.dataset import TimeSeriesDataset


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


class TestSimulate:
    def test_simulate_writes_dataset(self, workdir, capsys):
        out = workdir / "data.npz"
        assert main(["simulate", "--dataset", "gcut", "--n", "30",
                     "--length", "8", "--out", str(out)]) == 0
        data = TimeSeriesDataset.load(out)
        assert len(data) == 30
        assert "30 objects" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["wwt", "mba"])
    def test_other_datasets(self, workdir, name):
        out = workdir / "data.npz"
        assert main(["simulate", "--dataset", name, "--n", "10",
                     "--out", str(out)]) == 0
        assert len(TimeSeriesDataset.load(out)) == 10


class TestFullWorkflow:
    def test_simulate_train_generate_inspect(self, workdir, capsys):
        data_path = workdir / "data.npz"
        model_path = workdir / "model.npz"
        synth_path = workdir / "synth.npz"
        main(["simulate", "--dataset", "gcut", "--n", "40", "--length", "8",
              "--out", str(data_path)])
        assert main(["train", "--data", str(data_path), "--out",
                     str(model_path), "--iterations", "4", "--hidden", "16",
                     "--batch-size", "8"]) == 0
        assert main(["generate", "--model", str(model_path), "--n", "12",
                     "--out", str(synth_path)]) == 0
        synthetic = TimeSeriesDataset.load(synth_path)
        assert len(synthetic) == 12
        assert main(["inspect", "--data", str(synth_path)]) == 0
        out = capsys.readouterr().out
        assert "end_event_type" in out
        assert "objects: 12" in out

    def test_train_flags(self, workdir):
        data_path = workdir / "data.npz"
        model_path = workdir / "model.npz"
        main(["simulate", "--dataset", "gcut", "--n", "30", "--length", "8",
              "--out", str(data_path)])
        assert main(["train", "--data", str(data_path), "--out",
                     str(model_path), "--iterations", "3", "--hidden", "12",
                     "--batch-size", "8", "--no-minmax", "--no-aux"]) == 0
        from repro.core import DoppelGANger
        model = DoppelGANger.load(model_path)
        assert model.aux_discriminator is None
        assert model.encoder.minmax_dim == 0


def test_dataset_save_load_roundtrip(tiny_gcut, tmp_path):
    path = tmp_path / "ds.npz"
    tiny_gcut.save(path)
    loaded = TimeSeriesDataset.load(path)
    assert loaded.schema == tiny_gcut.schema
    assert np.array_equal(loaded.features, tiny_gcut.features)
    assert np.array_equal(loaded.lengths, tiny_gcut.lengths)


class TestSuffixlessPaths:
    @pytest.mark.parametrize("backend", ["doppelganger", "hmm"])
    def test_simulate_train_generate_write_exactly_the_given_paths(
            self, workdir, backend):
        data, model, synth = (workdir / "data", workdir / "m",
                              workdir / "synth")
        assert main(["simulate", "--dataset", "gcut", "--n", "20",
                     "--length", "8", "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--backend", backend, "--iterations", "2",
                     "--hidden", "12", "--batch-size", "8"]) == 0
        assert main(["generate", "--model", str(model), "--n", "3",
                     "--out", str(synth)]) == 0
        assert sorted(p.name for p in workdir.iterdir()) == \
            ["data", "m", "synth"]
        assert len(TimeSeriesDataset.load(synth)) == 3


class TestErrorHandling:
    """Missing/corrupt inputs: exit 2 with a one-line actionable error."""

    def test_missing_data_file(self, workdir, capsys):
        rc = main(["train", "--data", str(workdir / "nope.npz"),
                   "--out", str(workdir / "m.npz")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "does not exist" in err

    def test_missing_model_file(self, workdir, capsys):
        rc = main(["generate", "--model", str(workdir / "nope.npz"),
                   "--n", "3", "--out", str(workdir / "s.npz")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_corrupt_data_file(self, workdir, capsys):
        garbage = workdir / "garbage.npz"
        garbage.write_bytes(b"this is not an npz archive")
        rc = main(["inspect", "--data", str(garbage)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot read dataset" in err

    def test_model_file_passed_as_data(self, workdir, capsys):
        data = workdir / "data.npz"
        model = workdir / "model.npz"
        main(["simulate", "--dataset", "gcut", "--n", "20", "--length",
              "8", "--out", str(data)])
        main(["train", "--data", str(data), "--out", str(model),
              "--iterations", "2", "--hidden", "12", "--batch-size", "8"])
        assert main(["inspect", "--data", str(model)]) == 2
        assert "cannot read dataset" in capsys.readouterr().err

    def test_out_creates_parent_directories(self, workdir):
        out = workdir / "a" / "b" / "c" / "data.npz"
        assert main(["simulate", "--dataset", "gcut", "--n", "10",
                     "--length", "8", "--out", str(out)]) == 0
        assert out.exists()


class TestServingWorkflow:
    """publish -> serve -> client, all through the CLI surface."""

    def test_publish_then_serve_roundtrip(self, workdir, trained_dg_gcut,
                                          capsys):
        import threading
        import time

        import numpy as np

        model_path = workdir / "model.npz"
        trained_dg_gcut.save(model_path)
        registry = workdir / "registry"
        assert main(["publish", "--model", str(model_path),
                     "--registry", str(registry), "--name", "gcut"]) == 0
        assert "published gcut@1" in capsys.readouterr().out
        # idempotent republish stays at version 1
        assert main(["publish", "--model", str(model_path),
                     "--registry", str(registry), "--name", "gcut"]) == 0
        assert "gcut@1" in capsys.readouterr().out

        port_file = workdir / "port.txt"
        stop_file = workdir / "stop.txt"
        server = threading.Thread(
            target=main,
            args=(["serve", "--registry", str(registry),
                   "--port-file", str(port_file),
                   "--stop-file", str(stop_file)],),
            daemon=True)
        server.start()
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists():
                assert time.monotonic() < deadline, "server never bound"
                time.sleep(0.05)
            port = int(port_file.read_text())

            from repro.serve import ServeClient
            with ServeClient("127.0.0.1", port) as client:
                served = client.generate("gcut", 7, seed=13)
            direct = trained_dg_gcut.generate(
                7, rng=np.random.default_rng(13))
            assert np.array_equal(served.attributes, direct.attributes)
            assert np.array_equal(served.features, direct.features)
            assert np.array_equal(served.lengths, direct.lengths)
        finally:
            stop_file.write_text("")
            server.join(timeout=30)
        assert not server.is_alive()

    def test_publish_missing_model(self, workdir, capsys):
        rc = main(["publish", "--model", str(workdir / "nope.npz"),
                   "--registry", str(workdir / "reg"),
                   "--name", "x"])
        assert rc == 2
        assert "cannot load model" in capsys.readouterr().err

    def test_publish_bad_meta(self, workdir, trained_dg_gcut, capsys):
        model_path = workdir / "model.npz"
        trained_dg_gcut.save(model_path)
        rc = main(["publish", "--model", str(model_path),
                   "--registry", str(workdir / "reg"), "--name", "x",
                   "--meta", "not json"])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_serve_empty_registry(self, workdir, capsys):
        rc = main(["serve", "--registry", str(workdir / "empty-reg")])
        assert rc == 2
        assert "no published models" in capsys.readouterr().err


class TestQualityReport:
    """The report subcommand and publish --evaluate."""

    @pytest.fixture
    def saved(self, workdir, trained_dg_gcut, tiny_gcut):
        model_path = workdir / "model.npz"
        data_path = workdir / "data.npz"
        trained_dg_gcut.save(model_path)
        tiny_gcut.save(data_path)
        return model_path, data_path

    def test_report_from_model_file(self, saved, workdir, capsys):
        model_path, data_path = saved
        json_path = workdir / "quality.json"
        md_path = workdir / "quality.md"
        assert main(["report", "--model", str(model_path),
                     "--data", str(data_path), "--n", "16",
                     "--no-downstream", "--json", str(json_path),
                     "--md", str(md_path)]) == 0
        assert "overall quality score:" in capsys.readouterr().out
        import json as json_mod
        document = json_mod.loads(json_path.read_text())
        assert 0.0 <= document["quality"]["overall"] <= 1.0
        assert md_path.read_text().startswith("# Quality report:")

    def test_report_is_byte_deterministic(self, saved, workdir):
        model_path, data_path = saved
        for tag in ("a", "b"):
            assert main(["report", "--model", str(model_path),
                         "--data", str(data_path), "--n", "16",
                         "--no-downstream",
                         "--json", str(workdir / f"{tag}.json"),
                         "--md", str(workdir / f"{tag}.md")]) == 0
        for suffix in (".json", ".md"):
            assert (workdir / f"a{suffix}").read_bytes() == \
                (workdir / f"b{suffix}").read_bytes()

    def test_report_with_privacy_battery(self, saved, workdir, capsys):
        model_path, data_path = saved
        assert main(["report", "--model", str(model_path),
                     "--data", str(data_path), "--n", "16",
                     "--no-downstream", "--privacy"]) == 0
        out = capsys.readouterr().out
        assert "privacy grade:" in out

    def test_report_spec_with_attach(self, saved, workdir, capsys):
        model_path, data_path = saved
        registry = workdir / "reg"
        main(["publish", "--model", str(model_path),
              "--registry", str(registry), "--name", "gcut"])
        capsys.readouterr()
        assert main(["report", "--spec", "gcut@latest",
                     "--registry", str(registry),
                     "--data", str(data_path), "--n", "16",
                     "--no-downstream", "--attach"]) == 0
        assert "scores attached to gcut@1" in capsys.readouterr().out
        from repro.serve import ModelRegistry
        scores = ModelRegistry(str(registry)).resolve("gcut").scores
        assert scores is not None and "overall" in scores

    def test_report_needs_exactly_one_source(self, saved, capsys):
        model_path, data_path = saved
        rc = main(["report", "--data", str(data_path)])
        assert rc == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_publish_evaluate_attaches_scores(self, saved, workdir,
                                              capsys):
        model_path, data_path = saved
        registry = workdir / "reg"
        assert main(["publish", "--model", str(model_path),
                     "--registry", str(registry), "--name", "gcut",
                     "--evaluate", "--data", str(data_path),
                     "--eval-n", "16"]) == 0
        assert "scores attached: overall" in capsys.readouterr().out
        from repro.serve import ModelRegistry
        record = ModelRegistry(str(registry)).resolve("gcut")
        assert record.scores is not None
        assert record.scores["properties"]

    def test_publish_evaluate_requires_data(self, saved, workdir,
                                            capsys):
        model_path, _ = saved
        rc = main(["publish", "--model", str(model_path),
                   "--registry", str(workdir / "reg"), "--name", "gcut",
                   "--evaluate"])
        assert rc == 2
        assert "needs --data" in capsys.readouterr().err
