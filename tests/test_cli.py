import contextlib
import csv
import importlib
import inspect
import io
import json
import re
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalign import cli, errors, trainer
from coalign import data as D
from coalign import model as M
from conftest import load_coalbench, tiny_twin_doc, with_leaf
from pinned_hashes import GEN_SHIFT_RECIPE, ledger_configs, workload_configs
from test_data import one_change


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
    """``tiny_twin_doc`` at seed 1 with classes of 100 samples, which a
    degree-100 sweep needs (class 0 takes 96 of the 120-sample budget),
    written to ``tmp_path``; the file's path."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_twin_doc(method, seed=1, per_class=100, **overrides)))
    return path


def twin_recipe(direction=D.DIRECTION_TARGET, **generator):
    """The ledger's gen-shift recipe, a two-class twin-Gaussian source at
    shift degree 100, with ``direction`` and ``generator`` fields set."""
    return {**GEN_SHIFT_RECIPE, "generator": {**GEN_SHIFT_RECIPE["generator"], **generator},
            "shift": {**GEN_SHIFT_RECIPE["shift"], "direction": direction}}


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

    def test_a_label_at_or_above_the_row_count_fails_with_one_error_line(self, tmp_path, capsys):
        """Label 1e15 in a two-row file fails at load, before any per-class
        array of 10**15 + 1 counts is asked for."""
        rows = tmp_path / "sparse.csv"
        rows.write_text("x0,label\n0.5,0\n0.5,1e15\n")
        code = gen_shift(tmp_path, {"kind": "csv", "path": str(rows)})
        assert_fails_with(code, capsys, f"^coalign: error: {re.escape(str(rows))}: label "
                                        r"1000000000000000\.0 is not below the row count, 2$")
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


def eval_run(run_dir, out, data=None):
    """``coalign eval`` of the run's checkpoint on ``data``, by default the
    run's holdout manifest, into ``out``; the exit code."""
    return run_cli("eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                   "--data", str(data or run_dir / "target_holdout_manifest.json"),
                   "--out-dir", str(out))


@pytest.fixture(scope="module")
def long_eval(holdout_run, tmp_path_factory):
    """``coalign eval`` of the holdout run's checkpoint on a manifest of
    2 * PREDICT_BLOCK_ROWS + 100 rows: the row count, the eval's output
    directory and the row count of each forward_full call it made."""
    root, rows = tmp_path_factory.mktemp("long_eval"), 2 * M.PREDICT_BLOCK_ROWS + 100
    assert gen_shift(root, dict(twin_recipe(per_class=rows // 2), shift=None)) == 0
    seen, forward_full = [], M.forward_full

    def counting(params, inputs):
        seen.append(len(inputs))
        return forward_full(params, inputs)

    with mock.patch.object(M, "forward_full", counting):
        assert eval_run(holdout_run, root / "eval", root / "split" / "manifest.json") == 0
    return rows, root / "eval", seen


class TestEval:
    def test_checkpoint_against_manifest(self, holdout_run, tmp_path, capsys):
        out = tmp_path / "eval"
        assert eval_run(holdout_run, out) == 0
        printed = capsys.readouterr().out
        assert "per-class mean accuracy" in printed
        assert (out / "confusion.csv").exists()
        rows = list(csv.reader((out / "features_2d.csv").read_text().splitlines()))
        assert rows[0] == ["component1", "component2", "label"]
        assert len(rows) > 3
        # eval scores exactly the holdout rows the manifest lists
        manifest = json.loads((holdout_run / "target_holdout_manifest.json").read_text())
        confusion = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=np.int64)
        assert confusion.sum() == manifest["total"]
        assert len(rows) - 1 == manifest["total"]
        assert confusion.sum(axis=1).tolist() == manifest["per_class_counts"]

    def test_reproduces_the_runs_final_score(self, holdout_run, tmp_path, capsys):
        """eval of a run's checkpoint on its holdout manifest gives the
        report's final confusion and accuracies."""
        out = tmp_path / "eval"
        assert eval_run(holdout_run, out) == 0
        final = json.loads((holdout_run / "report.json").read_text())["metrics"]["final"]
        confusion = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=np.int64, ndmin=2)
        assert confusion.tolist() == final["confusion"]
        printed = capsys.readouterr().out
        assert f"per-class mean accuracy: {final['per_class_mean_accuracy']:.4f}\n" in printed
        assert f"overall accuracy:        {final['overall_accuracy']:.4f}\n" in printed

    @pytest.mark.parametrize("part", ["train", "holdout"])
    def test_split_manifests_regenerate_their_rows(self, holdout_run, part):
        manifest = json.loads((holdout_run / f"target_{part}_manifest.json").read_text())
        assert manifest["recipe"]["split"]["part"] == part
        rebuilt = D.materialize_dataset(manifest["recipe"])
        assert D.dataset_fingerprint(rebuilt) == manifest["sha256"]
        assert len(rebuilt) == manifest["total"]

    @pytest.mark.parametrize("tamper", list(TAMPERS))
    def test_tampered_manifest_raises(self, holdout_run, tmp_path, capsys, tamper):
        manifest = json.loads((holdout_run / "target_holdout_manifest.json").read_text())
        edit, message = TAMPERS[tamper]
        edit(manifest)
        path = tmp_path / "target_holdout_manifest.json"
        path.write_text(json.dumps(manifest))
        code = eval_run(holdout_run, tmp_path / "eval", path)
        assert_fails_with(code, capsys, f"^coalign: error: {re.escape(f'{path}: {message}')}$")
        assert not (tmp_path / "eval" / "confusion.csv").exists()

    # about 65 of each kind of change; 0.9 s on a 2-vCPU host
    @settings(max_examples=200)
    @given(data=st.data())
    def test_a_one_change_manifest_scores_or_fails_with_one_error_line(self, holdout_run, data):
        """One change to a run's holdout manifest, a wrong leaf, a dropped
        key or an unknown key, either scores the checkpoint or exits 2 with
        one error line, never with a traceback, and an unknown key always
        fails."""
        manifest = json.loads((holdout_run / "target_holdout_manifest.json").read_text())
        path, value = data.draw(one_change(manifest))
        tampered = holdout_run.parent / "tampered_manifest.json"
        tampered.write_text(json.dumps(with_leaf(manifest, path, value)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = eval_run(holdout_run, holdout_run.parent / "eval", tampered)
        err = err.getvalue()
        assert (code, err) == (0, "") and path[-1] != "unknown" or (
            code == 2 and err.startswith("coalign: error: ") and err.count("\n") == 1), (
            f"{'/'.join(map(str, path))} = {value!r}: exit {code}: {err}")

    def test_the_forward_runs_in_predicts_row_blocks(self, long_eval):
        """Scores and embeddings of a manifest longer than two blocks never
        pass forward_full a block of 2 * PREDICT_BLOCK_ROWS rows or more."""
        rows, out, seen = long_eval
        assert len((out / "features_2d.csv").read_text().splitlines()) == rows + 1
        assert seen and max(seen) <= 2 * M.PREDICT_BLOCK_ROWS - 1, seen

    def test_one_forward_pass_scores_and_projects(self, long_eval):
        """eval passes forward_full each manifest row once: the scores and
        the projection come from the same blocks."""
        rows, out, seen = long_eval
        assert sum(seen) == rows, seen
        assert np.loadtxt(out / "confusion.csv", delimiter=",", dtype=np.int64).sum() == rows

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_unreadable_manifest_names_the_path(self, holdout_run, tmp_path, capsys, text):
        path = tmp_path / "broken_manifest.json"
        path.write_text(text)
        assert_fails_with(eval_run(holdout_run, tmp_path / "eval", path), capsys,
                          "broken_manifest.json")

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
def test_an_output_directory_that_is_a_file_fails_naming_it(holdout_run, tmp_path, capsys, command,
                                                            below):
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
            argv = ["eval", "--checkpoint", str(holdout_run / "checkpoint.json"),
                    "--data", str(holdout_run / "target_holdout_manifest.json"), "--out-dir", out]
        else:
            argv = [command, "--config", config, "--out-dir", out]
        assert assert_fails_with(run_cli(*argv), capsys, f"^coalign: error: {message}") == ""
    assert taken.read_text() == "kept"


@pytest.fixture(scope="module")
def argv_flags(holdout_run, tmp_path_factory):
    """Each command's flags with a valid value, and each flag's wrong values."""
    root = tmp_path_factory.mktemp("argv")
    config, recipe = tiny_config_doc(root), root / "recipe.json"
    recipe.write_text(json.dumps(twin_recipe()))
    (root / "list.json").write_text("[1, 2]")
    (root / "taken").write_text("kept")
    (root / "directory").mkdir()
    checkpoint, out = holdout_run / "checkpoint.json", root / "out"
    valid = {"gen-shift": {"--recipe": recipe, "--out": out},
             "train": {"--config": config, "--out-dir": out},
             "sweep": {"--config": config, "--degrees": "0,100", "--out-dir": out},
             "ablate": {"--config": config, "--out-dir": out},
             "eval": {"--checkpoint": checkpoint, "--data": holdout_run / "target_holdout_manifest.json",
                      "--out-dir": out},
             "report": {"--glob": holdout_run / "report.json", "--format": "csv"}}
    # a file another flag reads stands in for each read flag's own
    read = ["", root / "missing.json", root / "directory", root / "list.json"]
    others = [config, recipe, checkpoint]
    wrong = {flag: read + [path for path in others if path != value]
             for flags in valid.values() for flag, value in flags.items()
             if flag in ("--recipe", "--config", "--checkpoint", "--data")}
    wrong.update({flag: [root / "taken", root / "taken" / "run"] for flag in ("--out", "--out-dir")})
    wrong["--degrees"] = ["", "x", "a,b", "1,,2", "1e400", "nan", "-5", "150", "0,0"]
    wrong["--glob"] = [root / "nothing*", config, root / "list.json"]
    wrong["--format"] = ["xml", "", "CSV"]
    return valid, wrong


# hypothesis stops once it has drawn each of the 62 (command, flag, value) triples
@settings(max_examples=100)
@given(data=st.data())
def test_one_wrong_flag_exits_2_with_an_error_line(argv_flags, data):
    """A known command whose flags are all valid but one ends with exit code 2,
    from argparse or from main, an ``error:`` last stderr line and no
    traceback, and trains no step on the way."""
    valid, wrong = argv_flags
    command, flag = data.draw(st.sampled_from([(command, flag) for command, flags in valid.items()
                                               for flag in flags]))
    value = data.draw(st.sampled_from(wrong[flag]))
    argv = [command] + [str(item) for pair in {**valid[command], flag: value}.items()
                        for item in pair]
    err = io.StringIO()
    with mock.patch.object(trainer, "sgd_momentum_step", side_effect=AssertionError("a step")), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code == 2 and "error:" in err.splitlines()[-1] and "Traceback" not in err, (
        f"{argv}: exit {code}: {err}")


def test_every_package_error_keeps_its_builtin_base():
    types = {name: t for name, t in vars(errors).items()
             if isinstance(t, type) and issubclass(t, Exception) and t is not errors.CoalignError}
    bases = {"UsageError": ValueError, "FormatError": ValueError,
             "ConsistencyError": ValueError, "DivergenceError": FloatingPointError}
    assert types.keys() == bases.keys()
    for name, base in bases.items():
        assert issubclass(types[name], errors.CoalignError), name
        assert issubclass(types[name], base), name


def test_benchmark_workloads_set_up(tmp_path):
    """The benchmark's gated workloads, ``wide`` and ``cli-sweep``, build
    their ops from this tree, and ``cli-sweep``'s warm-up op passes its own
    check; the ledger's ``wide`` runs already cover ``wide``'s warm-up."""
    workloads = load_coalbench("workloads")
    built = {}
    for name in ("wide", "cli-sweep"):
        (tmp_path / name).mkdir()
        built[name] = workloads.WORKLOADS[name](0, tmp_path / name)
        assert built[name][0], name
    _, warmup = built["cli-sweep"]
    assert warmup.check(warmup.run()) == []


def test_the_ledger_pins_each_gated_workloads_seed_0_coal_run(tmp_path):
    """The ledger trains the coal run of each gated benchmark workload at
    bench seed 0: the ``coal.json`` that ``cli-sweep`` writes reads back as
    the ledger's ``coal/d100`` config, and ``wide``'s ``coal/s1`` op runs the
    ledger's ``wide/coal`` config on pools that hold the same rows. Nothing
    trains: ``workload_configs`` collects the configs."""
    (tmp_path / "ledger").mkdir()
    ledger = ledger_configs(tmp_path / "ledger")
    load_coalbench("workloads").cli_sweep(0, tmp_path)
    assert trainer.TrainConfig.from_dict(json.loads((tmp_path / "coal.json").read_text())) == \
        ledger["coal/d100"]
    wide = workload_configs("wide", tmp_path)

    def rows(config):
        """The config's fields, each data recipe replaced by the hash of the rows it builds."""
        doc = config.to_dict()
        doc["data"] = {name: D.dataset_fingerprint(D.materialize_dataset(recipe))
                       for name, recipe in doc["data"].items()}
        return doc

    assert rows(wide["coal/s1"]) == rows(ledger["wide/coal"])


def test_benchmark_hooks_find_their_functions(monkeypatch):
    """The benchmark finds what it measures by name: every span name that
    ``coalbench/layers.py::layer_metrics`` reads and every ``HOOKS`` key is
    a public function its ``coalign`` module defines, which is what the
    tracer wraps. A renamed or deleted one would read 0 without an error."""
    # layers.py imports its summary type from the harness's tracing module
    monkeypatch.setitem(sys.modules, "tracing", types.SimpleNamespace(SpanSummary=None))
    layers = load_coalbench("layers")
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
