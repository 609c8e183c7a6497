import csv
import json

import numpy as np
import pytest

from coalign import cli
from coalign import data as D
from coalign.errors import ConsistencyError, TableError, UsageError


def run_cli(*argv):
    return cli.main(list(argv))


def tiny_config_doc(tmp_path, method="coal", **overrides):
    doc = {
        "method": method,
        "seed": 1,
        "epochs": 2,
        "pretrain_epochs": 1,
        "batch_size": 16,
        "temperature": 0.3,
        "data": {
            "twin_gaussians": {"num_classes": 2, "per_class": 100, "noise": 0.4,
                               "rotation_deg": 10.0, "translation": [0.0, 0.0],
                               "means": [[-2.0, 0.0], [2.0, 0.0]], "seed": 3},
            "shift": {"pareto_alpha": 1.0, "degree": 40.0, "budget": 120,
                      "min_per_class": 2, "seed": 5},
        },
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestGenShift:
    def test_synthetic_two_class_counts(self, tmp_path, capsys):
        out = tmp_path / "split"
        code = run_cli(
            "gen-shift", "--input", "synthetic:classes=2,per_class=200,noise=0.4,seed=3",
            "--alpha", "1.0", "--degree", "100", "--budget", "100",
            "--direction", "ut", "--seed", "5", "--out", str(out))
        assert code == 0
        assert "per-class counts: [80, 20]" in capsys.readouterr().out
        dataset = D.load_csv(out / "data.csv")
        assert dataset.class_counts().tolist() == [80, 20]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["per_class_counts"] == [80, 20]
        # the recipe in the manifest regenerates the exact same split
        rebuilt = D.materialize_dataset(manifest["recipe"])
        assert np.allclose(rebuilt.features, dataset.features)

    def test_rs_direction_reverses(self, tmp_path):
        out = tmp_path / "split"
        run_cli("gen-shift", "--input", "synthetic:classes=2,per_class=200,seed=3",
                "--degree", "100", "--budget", "100", "--direction", "rs",
                "--seed", "5", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["per_class_counts"] == [20, 80]

    def test_unknown_synthetic_key(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("gen-shift", "--input", "synthetic:rotund=3", "--budget", "10",
                    "--direction", "ut", "--out", str(tmp_path / "x"))

    @pytest.mark.parametrize("item", ["classes=abc", "classes=2.5", "per_class=1e2", "seed=x",
                                      "noise=loud"])
    def test_bad_synthetic_value_names_the_key(self, tmp_path, item):
        key = item.partition("=")[0]
        with pytest.raises(SystemExit, match=f"'{key}'"):
            run_cli("gen-shift", "--input", f"synthetic:{item}", "--budget", "10",
                    "--direction", "ut", "--out", str(tmp_path / "x"))
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_writes_outputs_and_is_reproducible(self, tmp_path, capsys):
        config = tiny_config_doc(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("train", "--config", str(config), "--out-dir", str(out1)) == 0
        assert "final per-class mean accuracy" in capsys.readouterr().out
        assert run_cli("train", "--config", str(config), "--out-dir", str(out2)) == 0
        a = json.loads((out1 / "report.json").read_text())
        b = json.loads((out2 / "report.json").read_text())
        assert json.dumps(a["metrics"], sort_keys=True) == json.dumps(b["metrics"], sort_keys=True)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_bad_config_file_names_the_path(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(UsageError, match="broken.json"):
            run_cli("train", "--config", str(path))

    def test_dump_pseudo_flag(self, tmp_path):
        config = tiny_config_doc(tmp_path)
        out = tmp_path / "run"
        run_cli("train", "--config", str(config), "--out-dir", str(out), "--dump-pseudo")
        assert (out / "pseudo_epoch_000.csv").exists()
        assert (out / "pseudo_epoch_001.csv").exists()


class TestEval:
    def test_checkpoint_against_manifest(self, tmp_path, capsys):
        config = tiny_config_doc(tmp_path)
        run_dir = tmp_path / "run"
        run_cli("train", "--config", str(config), "--out-dir", str(run_dir))
        out = tmp_path / "eval"
        code = run_cli("eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                       "--data", str(run_dir / "target_holdout_manifest.json"),
                       "--out-dir", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "per-class mean accuracy" in printed
        assert (out / "confusion.csv").exists()
        rows = list(csv.reader((out / "features_2d.csv").read_text().splitlines()))
        assert rows[0] == ["component1", "component2", "label"]
        assert len(rows) > 3
        # eval scores exactly the holdout rows the manifest lists
        manifest = json.loads((run_dir / "target_holdout_manifest.json").read_text())
        confusion = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=np.int64)
        assert confusion.sum() == manifest["total"]
        assert len(rows) - 1 == manifest["total"]
        assert confusion.sum(axis=1).tolist() == manifest["per_class_counts"]

    @pytest.mark.parametrize("part", ["train", "holdout"])
    def test_split_manifests_regenerate_their_rows(self, tmp_path, part):
        run_dir = tmp_path / "run"
        run_cli("train", "--config", str(tiny_config_doc(tmp_path)), "--out-dir", str(run_dir))
        manifest = json.loads((run_dir / f"target_{part}_manifest.json").read_text())
        assert manifest["recipe"]["split"]["part"] == part
        rebuilt = D.materialize_dataset(manifest["recipe"])
        assert D.dataset_fingerprint(rebuilt) == manifest["sha256"]
        assert len(rebuilt) == manifest["total"]

    @pytest.mark.parametrize("tamper", ["split part", "no sha256"])
    def test_tampered_manifest_raises(self, tmp_path, tamper):
        run_dir = tmp_path / "run"
        run_cli("train", "--config", str(tiny_config_doc(tmp_path)), "--out-dir", str(run_dir))
        path = run_dir / "target_holdout_manifest.json"
        manifest = json.loads(path.read_text())
        if tamper == "split part":
            manifest["recipe"]["split"]["part"] = "train"
        else:
            del manifest["sha256"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConsistencyError, match="target_holdout_manifest.json"):
            run_cli("eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(path), "--out-dir", str(tmp_path / "eval"))
        assert not (tmp_path / "eval" / "confusion.csv").exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_unreadable_manifest_names_the_path(self, tmp_path, text):
        run_dir = tmp_path / "run"
        run_cli("train", "--config", str(tiny_config_doc(tmp_path)), "--out-dir", str(run_dir))
        path = tmp_path / "broken_manifest.json"
        path.write_text(text)
        with pytest.raises(ConsistencyError, match="broken_manifest.json"):
            run_cli("eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(path), "--out-dir", str(tmp_path / "eval"))


class TestReport:
    def test_markdown_table_from_glob(self, tmp_path, capsys):
        config = tiny_config_doc(tmp_path)
        for name, method in (("a", "coal"), ("b", "source-only")):
            cfg = tiny_config_doc(tmp_path, method=method)
            run_cli("train", "--config", str(cfg), "--out-dir", str(tmp_path / "runs" / name))
        code = run_cli("report", "--glob", str(tmp_path / "runs" / "*" / "report.json"),
                       "--format", "markdown")
        assert code == 0
        table = capsys.readouterr().out
        assert "coal" in table and "source-only" in table

    def test_csv_format_parses(self, tmp_path, capsys):
        cfg = tiny_config_doc(tmp_path)
        run_cli("train", "--config", str(cfg), "--out-dir", str(tmp_path / "runs" / "x"))
        capsys.readouterr()
        run_cli("report", "--glob", str(tmp_path / "runs" / "*" / "report.json"),
                "--format", "csv")
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0][0] == "method"
        assert len(rows) == 2

    def test_no_matches(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("report", "--glob", str(tmp_path / "nothing*"))

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_bad_report_names_the_path(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        with pytest.raises(TableError, match="report.json"):
            run_cli("report", "--glob", str(path))


class TestSweepAndAblate:
    def test_sweep_writes_table(self, tmp_path, capsys):
        config = tiny_config_doc(tmp_path)
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--config", str(config), "--degrees", "0,50,100",
                       "--out-dir", str(out))
        assert code == 0
        assert (out / "sweep_table.md").exists()
        assert "d=0%" in capsys.readouterr().out

    def test_bad_degrees_name_the_flag(self, tmp_path, capsys):
        config = tiny_config_doc(tmp_path)
        with pytest.raises(SystemExit):
            run_cli("sweep", "--config", str(config), "--degrees", "a,b")
        assert "--degrees" in capsys.readouterr().err

    def test_ablate_writes_table(self, tmp_path, capsys):
        config = tiny_config_doc(tmp_path)
        out = tmp_path / "ablate"
        code = run_cli("ablate", "--config", str(config), "--out-dir", str(out))
        assert code == 0
        table = capsys.readouterr().out
        assert "disable-pseudo-term" in table
        assert (out / "ablation_table.md").exists()
