import contextlib
import csv
import importlib.util
import inspect
import io
import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalign import cli, errors, trainer
from coalign import data as D
from conftest import WRONG_VALUES, leaf_paths, with_leaf


def run_cli(*argv):
    return cli.main(list(argv))


def assert_fails_with(code, capsys, pattern):
    """The command exited 2 with one stderr line, a ``coalign: error:``
    message that ``pattern`` matches; returns what it printed on stdout."""
    out, err = capsys.readouterr()
    assert code == 2, err
    assert err.startswith("coalign: error: ") and err.count("\n") == 1, err
    assert re.search(pattern, err), err
    return out


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


def twin_recipe(direction=D.DIRECTION_TARGET, **generator):
    """The two-class twin-Gaussian source at shift degree 100."""
    return {"kind": "twin-gaussians", "domain": "source",
            "generator": {"num_classes": 2, "per_class": 200, "noise": 0.4,
                          "rotation_deg": 0.0, "translation": [0.0, 0.0], "radius": 2.0,
                          "seed": 3, **generator},
            "shift": {"pareto_alpha": 1.0, "direction": direction, "degree": 100.0,
                      "budget": 100, "min_per_class": 2, "seed": 5}}


def gen_shift(tmp_path, recipe, out="split"):
    """Run gen-shift on ``recipe`` written to a file; the exit code."""
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    return run_cli("gen-shift", "--recipe", str(path), "--out", str(tmp_path / out))


def check_file_recipe(tmp_path, recipe):
    """gen-shift on a file recipe at degree 100 writes the rows and the
    manifest that its recipe regenerates."""
    recipe = dict(recipe, shift={"pareto_alpha": 1.0, "direction": D.DIRECTION_TARGET,
                                 "degree": 100.0, "budget": 60, "min_per_class": 2, "seed": 5})
    assert gen_shift(tmp_path, recipe) == 0
    out = tmp_path / "split"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["recipe"] == recipe
    rebuilt = D.materialize_dataset(manifest["recipe"])
    assert D.dataset_fingerprint(rebuilt) == manifest["sha256"]
    written = D.load_csv(out / "data.csv")
    assert np.array_equal(written.features, rebuilt.features)
    assert written.class_counts().tolist() == manifest["per_class_counts"]
    assert manifest["total"] == 60


class TestGenShift:
    def test_synthetic_two_class_counts(self, tmp_path, capsys):
        assert gen_shift(tmp_path, twin_recipe()) == 0
        assert "per-class counts: [80, 20]" in capsys.readouterr().out
        out = tmp_path / "split"
        dataset = D.load_csv(out / "data.csv")
        assert dataset.class_counts().tolist() == [80, 20]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["per_class_counts"] == [80, 20]
        assert "seed" not in manifest and manifest["recipe"]["shift"]["seed"] == 5
        # the recipe in the manifest regenerates the exact same split
        rebuilt = D.materialize_dataset(manifest["recipe"])
        assert np.allclose(rebuilt.features, dataset.features)

    def test_prints_the_split_it_wrote(self, tmp_path, capsys):
        assert gen_shift(tmp_path, twin_recipe()) == 0
        assert capsys.readouterr().out == (f"wrote 100 samples to {tmp_path / 'split'}/data.csv\n"
                                           "per-class counts: [80, 20]\n")

    def test_source_reversed_direction_reverses(self, tmp_path):
        assert gen_shift(tmp_path, twin_recipe(D.DIRECTION_SOURCE)) == 0
        manifest = json.loads((tmp_path / "split" / "manifest.json").read_text())
        assert manifest["per_class_counts"] == [20, 80]

    def test_csv_input(self, tmp_path, file_recipes):
        check_file_recipe(tmp_path, file_recipes["csv"])

    def test_idx_input(self, tmp_path, file_recipes):
        check_file_recipe(tmp_path, file_recipes["idx"])

    def test_manifest_recipe_is_a_gen_shift_input(self, tmp_path):
        assert gen_shift(tmp_path, twin_recipe(), out="a") == 0
        first = tmp_path / "a"
        manifest = json.loads((first / "manifest.json").read_text())
        assert gen_shift(tmp_path, manifest["recipe"], out="b") == 0
        for name in ("data.csv", "manifest.json"):
            assert (tmp_path / "b" / name).read_bytes() == (first / name).read_bytes()

    def test_null_shift_writes_the_unshifted_set(self, tmp_path):
        recipe = dict(twin_recipe(per_class=30), shift=None)
        assert gen_shift(tmp_path, recipe) == 0
        manifest = json.loads((tmp_path / "split" / "manifest.json").read_text())
        assert manifest["per_class_counts"] == [30, 30]
        assert "seed" not in manifest
        assert manifest["recipe"]["shift"] is None

    def test_bad_generator_field_names_it(self, tmp_path, capsys):
        code = gen_shift(tmp_path, twin_recipe(num_classes=2.5))
        assert_fails_with(code, capsys, "generator num_classes must be a positive integer")
        assert not (tmp_path / "split").exists()

    @pytest.mark.parametrize("recipe, named", [
        ({"kind": "csv", "path": 5}, "^coalign: error: csv recipe path must be a string, got 5$"),
        ({"kind": "idx", "images": None, "labels": "labels.idx"},
         "^coalign: error: idx recipe images must be a string, got None$"),
    ])
    def test_wrongly_typed_recipe_field_names_it(self, tmp_path, capsys, recipe, named):
        assert_fails_with(gen_shift(tmp_path, recipe), capsys, named)
        assert not (tmp_path / "split").exists()

    def test_missing_idx_file_names_the_path(self, tmp_path, capsys, file_recipes):
        missing = tmp_path / "missing.idx"
        code = gen_shift(tmp_path, dict(file_recipes["idx"], images=str(missing)))
        assert_fails_with(code, capsys, f"^coalign: error: cannot read {re.escape(str(missing))}: ")
        assert not (tmp_path / "split").exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_recipe_file_that_is_not_an_object_names_the_path(self, tmp_path, capsys, text):
        path = tmp_path / "broken_recipe.json"
        path.write_text(text)
        code = run_cli("gen-shift", "--recipe", str(path), "--out", str(tmp_path / "split"))
        assert_fails_with(code, capsys, "broken_recipe.json")
        assert not (tmp_path / "split").exists()


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

    def test_prints_the_run_and_its_final_scores(self, tmp_path, capsys):
        """The outputs line appears only when the run has an out_dir."""
        config, out = tiny_config_doc(tmp_path), tmp_path / "run"
        assert run_cli("train", "--config", str(config), "--out-dir", str(out)) == 0
        final = json.loads((out / "report.json").read_text())["metrics"]["final"]
        scores = (f"method=coal seed=1\n"
                  f"final per-class mean accuracy: {final['per_class_mean_accuracy']:.4f}\n"
                  f"final overall accuracy:        {final['overall_accuracy']:.4f}\n")
        assert capsys.readouterr().out == scores + f"outputs in {out}\n"
        assert run_cli("train", "--config", str(config)) == 0
        assert capsys.readouterr().out == scores

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]",
                                      pytest.param("[" * 100_000, id="deep nesting")])
    def test_bad_config_file_names_the_path(self, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        assert_fails_with(run_cli("train", "--config", str(path)), capsys, "broken.json")

    def test_dump_pseudo_without_an_out_dir_is_rejected(self, tmp_path, capsys):
        config = tiny_config_doc(tmp_path, out_dir=None)
        code = run_cli("train", "--config", str(config), "--dump-pseudo")
        assert_fails_with(code, capsys, "dump_pseudo needs an out_dir")

    def test_out_dir_flag_completes_a_dump_pseudo_config(self, tmp_path):
        config = tiny_config_doc(tmp_path, out_dir=None, dump_pseudo=True)
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(config), "--out-dir", str(out)) == 0
        assert (out / "pseudo_epoch_001.csv").exists()

    def test_dump_pseudo_flag(self, tmp_path):
        config = tiny_config_doc(tmp_path)
        out = tmp_path / "run"
        run_cli("train", "--config", str(config), "--out-dir", str(out), "--dump-pseudo")
        assert (out / "pseudo_epoch_000.csv").exists()
        assert (out / "pseudo_epoch_001.csv").exists()


# each tamper of a run's holdout manifest and the error it gives after the
# manifest's path
TAMPERS = {
    "split part": (lambda m: m["recipe"]["split"].update(part="train"),
                   "the dataset its recipe regenerates does not match its "
                   "per_class_counts, sha256, total"),
    "no sha256": (lambda m: m.pop("sha256"), "manifest is missing sha256"),
    "total": (lambda m: m.update(total=999),
              "the dataset its recipe regenerates does not match its total"),
    "num_classes": (lambda m: m.update(num_classes=7),
                    "the dataset its recipe regenerates does not match its num_classes"),
    "per_class_counts": (lambda m: m.update(per_class_counts=[1, 2, 3, 4]),
                         "the dataset its recipe regenerates does not match its per_class_counts"),
    "unknown key": (lambda m: m.update(note="x"),
                    "the dataset its recipe regenerates does not match its note"),
    "sha256 5": (lambda m: m.update(sha256=5), "manifest sha256 must be a string, got 5"),
    "recipe 5": (lambda m: m.update(recipe=5), "manifest recipe must be a mapping, got 5"),
}


@pytest.fixture(scope="module")
def holdout_run(tmp_path_factory):
    """The directory of one tiny trained run: its checkpoint and manifests."""
    root = tmp_path_factory.mktemp("holdout")
    assert run_cli("train", "--config", str(tiny_config_doc(root)), "--out-dir",
                   str(root / "run")) == 0
    return root / "run"


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

    def test_reproduces_the_runs_final_score(self, tmp_path, capsys):
        """eval of a run's checkpoint on its holdout manifest gives the
        report's final confusion and accuracies."""
        config = tiny_config_doc(tmp_path)
        run_dir = tmp_path / "run"
        run_cli("train", "--config", str(config), "--out-dir", str(run_dir))
        capsys.readouterr()
        out = tmp_path / "eval"
        assert run_cli("eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                       "--data", str(run_dir / "target_holdout_manifest.json"),
                       "--out-dir", str(out)) == 0
        final = json.loads((run_dir / "report.json").read_text())["metrics"]["final"]
        confusion = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=np.int64, ndmin=2)
        assert confusion.tolist() == final["confusion"]
        printed = capsys.readouterr().out
        assert f"per-class mean accuracy: {final['per_class_mean_accuracy']:.4f}\n" in printed
        assert f"overall accuracy:        {final['overall_accuracy']:.4f}\n" in printed

    @pytest.mark.parametrize("part", ["train", "holdout"])
    def test_split_manifests_regenerate_their_rows(self, tmp_path, part):
        run_dir = tmp_path / "run"
        run_cli("train", "--config", str(tiny_config_doc(tmp_path)), "--out-dir", str(run_dir))
        manifest = json.loads((run_dir / f"target_{part}_manifest.json").read_text())
        assert manifest["recipe"]["split"]["part"] == part
        rebuilt = D.materialize_dataset(manifest["recipe"])
        assert D.dataset_fingerprint(rebuilt) == manifest["sha256"]
        assert len(rebuilt) == manifest["total"]

    @pytest.mark.parametrize("tamper", list(TAMPERS))
    def test_tampered_manifest_raises(self, tmp_path, capsys, tamper):
        run_dir = tmp_path / "run"
        run_cli("train", "--config", str(tiny_config_doc(tmp_path)), "--out-dir", str(run_dir))
        path = run_dir / "target_holdout_manifest.json"
        manifest = json.loads(path.read_text())
        edit, message = TAMPERS[tamper]
        edit(manifest)
        path.write_text(json.dumps(manifest))
        code = run_cli("eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                       "--data", str(path), "--out-dir", str(tmp_path / "eval"))
        assert_fails_with(code, capsys, f"^coalign: error: {re.escape(f'{path}: {message}')}$")
        assert not (tmp_path / "eval" / "confusion.csv").exists()

    @settings(max_examples=200)
    @given(data=st.data())
    def test_a_wrong_leaf_scores_or_fails_with_one_error_line(self, holdout_run, data):
        """One leaf of a run's holdout manifest set to a wrong value either
        scores the checkpoint or exits 2 with one error line, never with a
        traceback."""
        manifest = json.loads((holdout_run / "target_holdout_manifest.json").read_text())
        path = data.draw(st.sampled_from(leaf_paths(manifest)))
        value = data.draw(st.sampled_from(WRONG_VALUES))
        tampered = holdout_run.parent / "tampered_manifest.json"
        tampered.write_text(json.dumps(with_leaf(manifest, path, value)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli("eval", "--checkpoint", str(holdout_run / "checkpoint.json"),
                           "--data", str(tampered), "--out-dir", str(holdout_run.parent / "eval"))
        err = err.getvalue()
        assert (code, err) == (0, "") or (
            code == 2 and err.startswith("coalign: error: ") and err.count("\n") == 1), (
            f"{'/'.join(map(str, path))} = {value!r}: exit {code}: {err}")

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_unreadable_manifest_names_the_path(self, tmp_path, capsys, text):
        run_dir = tmp_path / "run"
        run_cli("train", "--config", str(tiny_config_doc(tmp_path)), "--out-dir", str(run_dir))
        path = tmp_path / "broken_manifest.json"
        path.write_text(text)
        code = run_cli("eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                       "--data", str(path), "--out-dir", str(tmp_path / "eval"))
        assert_fails_with(code, capsys, "broken_manifest.json")


    @pytest.mark.parametrize("model_classes, data_classes, data_width",
                             [(3, 2, 2), (2, 3, 2), (2, 2, 3)], ids=["3-2", "2-3", "width"])
    def test_class_count_mismatch_raises(self, tmp_path, capsys, model_classes, data_classes,
                                         data_width):
        config = tiny_config_doc(tmp_path, data={"twin_gaussians": {
            "num_classes": model_classes, "per_class": 60, "noise": 0.4, "seed": 3}})
        run_dir = tmp_path / "run"
        run_cli("train", "--config", str(config), "--out-dir", str(run_dir))
        split = tmp_path / "split"
        if data_width == 2:
            gen_shift(tmp_path, {"kind": "twin-gaussians", "domain": "source", "generator": {
                "num_classes": data_classes, "per_class": 50, "noise": 0.6, "seed": 3}})
            message = f"predicts {model_classes} classes but .* holds {data_classes}"
        else:
            rows = tmp_path / "rows.csv"
            rows.write_text("a,b,c,label\n" + "".join(
                f"{i / 40},{i % 3},0.5,{i % data_classes}\n" for i in range(40)))
            gen_shift(tmp_path, {"kind": "csv", "path": str(rows)})
            message = (f"^coalign: error: {re.escape(str(run_dir / 'checkpoint.json'))} takes 2 "
                       f"features but {re.escape(str(split / 'manifest.json'))} holds 3$")
        code = run_cli("eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                       "--data", str(split / "manifest.json"), "--out-dir", str(tmp_path / "eval"))
        assert_fails_with(code, capsys, message)
        assert not (tmp_path / "eval").exists()


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

    def test_no_matches(self, tmp_path, capsys):
        pattern = str(tmp_path / "nothing*")
        assert_fails_with(run_cli("report", "--glob", pattern), capsys,
                          re.escape(f"no reports match {pattern!r}"))

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_bad_report_names_the_path(self, tmp_path, capsys, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert_fails_with(run_cli("report", "--glob", str(path)), capsys, "report.json")


def assert_one_table(capsys, table_path, run_dirs):
    """The table a command printed, the one it wrote to ``table_path`` and the
    one ``coalign report`` prints for the ``run_dirs`` glob hold the same
    bytes; returns that table."""
    printed = capsys.readouterr().out
    assert run_cli("report", "--glob", str(run_dirs / "report.json")) == 0
    reported = capsys.readouterr().out
    assert printed.encode() == table_path.read_bytes() == reported.encode()
    return printed


class TestSweepAndAblate:
    def test_sweep_writes_table(self, tmp_path, capsys):
        config = tiny_config_doc(tmp_path)
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--config", str(config), "--degrees", "0,50,100",
                       "--out-dir", str(out))
        assert code == 0
        assert "d=0%" in assert_one_table(capsys, out / "sweep_table.md", out / "degree_*")

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
        assert "disable-pseudo-term" in assert_one_table(capsys, out / "ablation_table.md", out / "*")
        config = tiny_config_doc(tmp_path, method="marginal-align")
        code = run_cli("ablate", "--config", str(config), "--out-dir", str(tmp_path / "other"))
        assert_fails_with(code, capsys, "ablation study requires method=coal$")
        assert not (tmp_path / "other").exists()

    @pytest.mark.parametrize("degrees, shown", [("0,150", "150.0"), ("0,nan", "nan"),
                                                ("100,-5", "-5.0")])
    def test_bad_degree_fails_before_the_first_run(self, tmp_path, capsys, degrees, shown):
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--config", str(tiny_config_doc(tmp_path)), "--degrees", degrees,
                       "--out-dir", str(out))
        assert_fails_with(code, capsys, rf"sweep degree must lie in \[0, 100\], got {shown}$")
        assert not out.exists()

    @pytest.mark.parametrize("degrees, shared", [("0,0", "degree_0"),
                                                 ("1e-7,1.0000001e-7,100", "degree_1e-07"),
                                                 ("0,-0", "degree_0")])
    def test_runs_sharing_a_directory_fail_before_the_first_run(self, tmp_path, capsys, degrees,
                                                                 shared):
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--config", str(tiny_config_doc(tmp_path)), "--degrees", degrees,
                       "--out-dir", str(out))
        assert_fails_with(code, capsys, re.escape(str(out / shared)))
        assert not out.exists()

    @pytest.mark.parametrize("degrees, shown", [("0,0", "0"), ("1e-7,1.0000001e-7", "1e-07"),
                                                ("0,-0", "0")])
    def test_repeated_degree_without_an_out_dir_fails_before_the_first_run(
            self, tmp_path, capsys, monkeypatch, degrees, shown):
        # two runs of one name would be averaged into one table cell
        calls = []
        monkeypatch.setattr(trainer, "run_experiment", calls.append)
        code = run_cli("sweep", "--config", str(tiny_config_doc(tmp_path)), "--degrees", degrees)
        assert_fails_with(code, capsys, rf"sweep repeats degree {shown} \(run degree_{shown}\)$")
        assert calls == []

    def test_every_run_goes_through_run_experiment(self, tmp_path, monkeypatch):
        # a wrapper bound to the module attribute sees each run of a sweep
        # and of an ablation study, as the benchmark's per-run probe does
        calls = []
        run = trainer.run_experiment

        def counting(config):
            calls.append(config.out_dir)
            return run(config)

        monkeypatch.setattr(trainer, "run_experiment", counting)
        config = str(tiny_config_doc(tmp_path))
        sweep, ablate = tmp_path / "sweep", tmp_path / "ablate"
        assert run_cli("sweep", "--config", config, "--degrees", "0,100",
                       "--out-dir", str(sweep)) == 0
        assert len(calls) == 2
        assert run_cli("ablate", "--config", config, "--out-dir", str(ablate)) == 0
        assert len(calls) == 2 + 3
        assert (sweep / "sweep_table.md").exists() and (ablate / "ablation_table.md").exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", ["train", "sweep", "ablate", "config out_dir", "gen-shift",
                                     "eval", "run_experiment"])
def test_an_output_directory_that_is_a_file_fails_naming_it(tmp_path, capsys, command, below):
    """Every way to name an output directory fails with a one-line usage
    error naming the path, and prints no result first, when the path is a
    file or lies below one."""
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = str(taken / "run" if below else taken)
    config = str(tiny_config_doc(tmp_path))
    message = f"cannot make output directory {re.escape(out)}"
    if command == "run_experiment":
        doc = json.loads(Path(config).read_text())
        with pytest.raises(errors.UsageError, match=f"^{message}"):
            trainer.run_experiment(trainer.TrainConfig.from_dict({**doc, "out_dir": out}))
    else:
        if command == "config out_dir":
            argv = ["train", "--config", str(tiny_config_doc(tmp_path, out_dir=out))]
        elif command == "gen-shift":
            recipe = tmp_path / "recipe.json"
            recipe.write_text(json.dumps(twin_recipe()))
            argv = ["gen-shift", "--recipe", str(recipe), "--out", out]
        elif command == "eval":
            run_dir = tmp_path / "run"
            assert run_cli("train", "--config", config, "--out-dir", str(run_dir)) == 0
            capsys.readouterr()
            argv = ["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(run_dir / "target_holdout_manifest.json"), "--out-dir", out]
        else:
            argv = [command, "--config", config, "--out-dir", out]
        assert assert_fails_with(run_cli(*argv), capsys, f"^coalign: error: {message}") == ""
    assert taken.read_text() == "kept"


def test_every_package_error_keeps_its_builtin_base():
    types = {name: t for name, t in vars(errors).items()
             if isinstance(t, type) and issubclass(t, Exception) and t is not errors.CoalignError}
    bases = {"UsageError": ValueError, "FormatError": ValueError,
             "ConsistencyError": ValueError, "DivergenceError": FloatingPointError}
    assert types.keys() == bases.keys()
    for name, base in bases.items():
        assert issubclass(types[name], errors.CoalignError), name
        assert issubclass(types[name], base), name


def test_benchmark_workloads_set_up(tmp_path, monkeypatch):
    """The benchmark's gated workloads, ``wide`` and ``cli-sweep``, build
    their ops from this tree, and ``cli-sweep``'s warm-up op passes its own
    check; the ledger's ``wide`` runs already cover ``wide``'s warm-up."""
    path = Path(__file__).resolve().parent.parent / "coalbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("coalbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it loads
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    built = {}
    for name in ("wide", "cli-sweep"):
        (tmp_path / name).mkdir()
        built[name] = workloads.WORKLOADS[name](0, tmp_path / name)
        assert built[name][0], name
    _, warmup = built["cli-sweep"]
    assert warmup.check(warmup.run()) == []


def test_benchmark_hooks_find_their_functions(monkeypatch):
    """The benchmark finds what it measures by name: every span name that
    ``coalbench/layers.py::layer_metrics`` reads and every ``HOOKS`` key is
    a public function its ``coalign`` module defines, which is what the
    tracer wraps. A renamed or deleted one would read 0 without an error."""
    path = Path(__file__).resolve().parent.parent / "coalbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("coalbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    # layers.py imports its summary type from the harness's tracing module
    monkeypatch.setitem(sys.modules, "tracing", types.SimpleNamespace(SpanSummary=None))
    spec.loader.exec_module(layers)
    asked, prefixes = set(layers.HOOKS), set()

    class Summary:
        counters = {}

        def calls(self, *names):
            asked.update(names)
            return 0

        self_s = busy_s = calls

        def prefixed(self, prefix):
            prefixes.add(prefix)
            return []

    layers.layer_metrics(Summary(), bytes_written=0, hash_mismatch=0, overhead_frac=0.0)
    # the kernels.* rows have named no module since the kernels were folded into numerics
    names = sorted(name for name in asked if not name.startswith("kernels."))
    assert prefixes == {"kernels.", "objectives.", "evaluation."}
    for prefix in prefixes - {"kernels."}:
        importlib.import_module(f"coalign.{prefix[:-1]}")

    def defined(module, func):
        found = getattr(importlib.import_module(f"coalign.{module}"), func, None)
        return inspect.isfunction(found) and found.__module__ == f"coalign.{module}"

    missing = [name for name in names if not defined(*name.split("."))]
    assert names and missing == []
