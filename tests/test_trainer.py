import json
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coalign import data as D
from coalign import model as M
from coalign import cli, evaluation, objectives, selftrain, trainer
from coalign.errors import DivergenceError, UsageError
from coalign.trainer import TrainConfig, run_experiment
from conftest import fixture_config, runs_or_fails_with_a_package_error, tiny_twin_doc, with_leaf
from test_data import one_change


def tiny_twin_config(method="source-only", seed=0, **overrides):
    return TrainConfig(**tiny_twin_doc(method, seed, **overrides))


def pretrained(cfg, data=None):
    """A seed-0 model after ``cfg.pretrain_epochs`` source epochs on ``data``
    (the config's datasets by default), together with that data."""
    data = data or trainer.resolve_datasets(cfg)[0]
    params = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature, seed=0)
    for epoch in range(cfg.pretrain_epochs):
        trainer.pretrain(params, data, cfg, epoch, [])
    return params, data


# a small coal config that the boundary property test changes in one place
SMALL_CONFIG = tiny_twin_config(
    "coal", ablations=("disable-entropy-term",), hidden_dims=(8, 4),
    k_schedule={"k0": 20.0, "k_step": 5.0, "k_max": 50.0}, task="t").to_dict()


class TestTrainConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(UsageError):
            TrainConfig(method="bbse")

    def test_rejects_ablations_outside_coal(self):
        with pytest.raises(UsageError):
            TrainConfig(method="source-only", ablations=("disable-entropy-term",))

    @pytest.mark.parametrize("out_dir", [None, ""])
    def test_dump_pseudo_needs_an_out_dir(self, out_dir):
        with pytest.raises(UsageError, match="^dump_pseudo needs an out_dir"):
            TrainConfig(dump_pseudo=True, out_dir=out_dir)

    @pytest.mark.parametrize("doc, names", [
        ({"learning_rate": 0.1}, "learning_rate"),
        ({"k_schedule": "warp"}, "^k_schedule"),
        ({"k_schedule": {"k0": 5, "k_stride": 5}}, "k_stride"),
        ({"batch_size": 0}, "^batch_size"),
        ({"epochs": -1}, "^epochs"),
        ({"pretrain_epochs": -1}, "^pretrain_epochs"),
        ({"lr_head": -1.0}, "^lr_head"),
        ({"lr_backbone": -0.001}, "^lr_backbone"),
        ({"momentum": 1.5}, "^momentum"),
        ({"momentum": 1.0}, "^momentum"),
        ({"momentum": -0.1}, "^momentum"),
        ({"alpha": -0.1}, "^alpha"),
        ({"temperature": 0.0}, "^temperature"),
        ({"holdout_fraction": 0.0}, "^holdout_fraction"),
        ({"holdout_fraction": 1.0}, "^holdout_fraction"),
        ({"hidden_dims": []}, "^hidden_dims"),
        ({"hidden_dims": [8, 0]}, "^hidden_dims"),
        ({"alpha": float("inf")}, "^alpha"),
        ({"lr_backbone": float("inf")}, "^lr_backbone"),
        ({"grl_lambda": -5.0}, "^grl_lambda"),
        ({"epochs": 2.0}, "^epochs"),
        ({"epochs": True}, "^epochs"),
        ({"batch_size": 16.5}, "^batch_size"),
        ({"hidden_dims": [8.5, 4]}, "^hidden_dims"),
        ({"seed": -1}, "^seed"),
        ({"seed": 1.5}, "^seed"),
        ({"hidden_dims": 16}, "^hidden_dims"),
        ({"ablations": "disable-pseudo-term"}, "^ablations"),
        ({"ablations": None}, "^ablations"),
        ({"lr_head": "0.1"}, "^lr_head"),
        ({"alpha": None}, "^alpha"),
        ({"grl_lambda": True}, "^grl_lambda"),
        ({"dump_pseudo": "no"}, "^dump_pseudo"),
        ({"k_schedule": 5}, "^k_schedule"),
        ({"k_schedule": {"k0": -5}}, "^k_schedule"),
        ({"k_schedule": {"k_max": 500}}, "^k_schedule"),
        ({"k_schedule": {"k_step": -1}}, "^k_schedule"),
        ({"k_schedule": {"k0": "5"}}, "^k_schedule"),
        ({"data": "twin_gaussians"}, "^data"),
        ({"out_dir": 5}, "^out_dir"),
        ({"task": 5}, "^task"),
        ({"data": {"twin_gaussians": 5}},
         "^config data section twin_gaussians must be a mapping, got 5$"),
        ({"data": {"twin_gaussians": {"num_classes": 2}, "shift": 5}},
         "^config data section shift must be a mapping, got 5$"),
        ({"data": {"source": [], "target": {"kind": "csv"}}},
         r"^config data section source must be a mapping, got \[\]$"),
        ({"data": {"twin_gaussians": {"num_classes": 2, "per_class": 300, "noise": 0.5},
                   "shfit": {"pareto_alpha": 1.0, "degree": 100.0, "budget": 200}}}, "shfit"),
        *[({"data": {"twin_gaussians": {"num_classes": 2, "per_class": 300, "noise": 0.5},
                     "shift": {"pareto_alpha": 1.0, "degree": 100.0, "budget": 200, "seed": seed}}},
           f"^config data shift seed must be a nonnegative integer, got {re.escape(repr(seed))}$")
          for seed in ([1, 2], "x", None)],
        ({"data": {"source": {"kind": "csv", "path": "s.csv"},
                   "target": {"kind": "csv", "path": "t.csv",
                              "split": {"holdout_fraction": 0.5, "seed": 1, "part": "train"}}}},
         "^config data target recipe must not hold a split block"),
        ({"ablations": ["disable-pseudo-term", "disable-pseudo-term"]},
         r"^ablations must be a list of distinct flags from .+, "
         r"got \['disable-pseudo-term', 'disable-pseudo-term'\]$"),
        # the section holds one form, and a config's empty shift is applied like a recipe's
        ({"data": {"twin_gaussians": {"num_classes": 2, "per_class": 300, "noise": 0.5},
                   "source": {"kind": "csv", "path": "s.csv"}, "target": {"kind": "csv", "path": "t.csv"}}},
         r"^config data section needs either twin_gaussians with an optional shift or "
         r"source/target recipes, got \['source', 'target', 'twin_gaussians'\]$"),
        ({"data": {"twin_gaussians": {"num_classes": 2, "per_class": 300, "noise": 0.5},
                   "target": {"kind": "csv", "path": "t.csv"}}},
         r"^config data section needs either .+, got \['target', 'twin_gaussians'\]$"),
        ({"data": {"source": {"kind": "csv", "path": "s.csv"}, "target": {"kind": "csv", "path": "t.csv"},
                   "shift": {"pareto_alpha": 1.0, "degree": 100.0, "budget": 200}}},
         r"^config data section needs either .+, got \['shift', 'source', 'target'\]$"),
        ({"data": {"twin_gaussians": {"num_classes": 2, "per_class": 300, "noise": 0.5},
                   "shift": {}}}, "^shift block is missing pareto_alpha, degree, budget$"),
        # a k0 above k_max never applies, also when k_max comes from the default preset
        ({"k_schedule": {"k0": 50, "k_step": 5, "k_max": 30}},
         r"^k_schedule k0 50 must be at most k_max 30$"),
        ({"k_schedule": {"k0": 40}}, r"^k_schedule k0 40 must be at most k_max 30\.0$"),
        # an int beyond float range is not a finite number
        ({"lr_head": 10**400}, "^lr_head must be a finite nonnegative number, got 10{400}$"),
    ])
    def test_rejects_bad_field_naming_it(self, doc, names):
        # a data section of the wrong type is caught where the datasets are
        # resolved, before anything is built from it
        with pytest.raises(UsageError, match=names):
            trainer.resolve_datasets(TrainConfig.from_dict(doc))

    @given(method=st.sampled_from(trainer.METHODS), seed=st.integers(0, 2**31),
           epochs=st.integers(0, 50), batch_size=st.integers(1, 512),
           rates=st.tuples(*[st.floats(0.0, 10.0)] * 4), momentum=st.floats(0.0, 0.99),
           temperature=st.floats(0.01, 5.0), holdout=st.floats(0.01, 0.99),
           # a valid schedule: k0 at most k_max
           k=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 50.0), st.floats(0.0, 100.0)).map(
               lambda k: (min(k[0], k[2]), k[1], max(k[0], k[2]))),
           hidden=st.lists(st.integers(1, 256), min_size=1, max_size=3),
           ablations=st.lists(st.sampled_from(trainer.ABLATION_FLAGS), unique=True),
           sampler=st.sampled_from(["balanced", "natural"]), dump_pseudo=st.booleans())
    def test_dict_roundtrip_returns_the_same_config(
            self, method, seed, epochs, batch_size, rates, momentum, temperature, holdout, k,
            hidden, ablations, sampler, dump_pseudo):
        lr_head, lr_backbone, alpha, grl_lambda = rates
        cfg = TrainConfig(
            method=method, seed=seed, epochs=epochs, batch_size=batch_size, lr_head=lr_head,
            lr_backbone=lr_backbone, momentum=momentum, alpha=alpha, grl_lambda=grl_lambda,
            k_schedule={"k0": k[0], "k_step": k[1], "k_max": k[2]}, sampler=sampler,
            ablations=ablations if method == "coal" else (), hidden_dims=hidden,
            temperature=temperature, holdout_fraction=holdout, dump_pseudo=dump_pseudo,
            data={"twin_gaussians": {"num_classes": 2}}, out_dir="out", task="t")
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_ablation_flags_are_kept_in_canonical_order(self):
        configs = [TrainConfig(ablations=flags)
                   for flags in (trainer.ABLATION_FLAGS, trainer.ABLATION_FLAGS[::-1])]
        assert configs[1].ablations == trainer.ABLATION_FLAGS
        assert configs[0].to_dict() == configs[1].to_dict()
        reports = [{"config": cfg.to_dict(), "metrics": {"final": {"per_class_mean_accuracy": 0.5}}}
                   for cfg in configs]
        rows = evaluation.render_table(reports, "csv").splitlines()[1:]
        assert rows == ["coal [disable-pseudo-term] [disable-entropy-term],50.00"]

    # about 150 of each kind of change, so each dropped key and added unknown
    # key several times; 0.6 s on a 2-vCPU host
    @settings(max_examples=450)
    @given(edit=one_change(SMALL_CONFIG))
    # ints that no array can hold: a shape, a width and a shift budget
    @example(edit=(("data", "twin_gaussians", "per_class"), 10**400))
    @example(edit=(("hidden_dims", 0), 10**400))
    @example(edit=(("data", "shift", "budget"), 10**400))
    def test_a_one_change_config_builds_or_fails_with_a_package_error(self, edit):
        """One change to a small config, a wrong leaf, a dropped key or an
        unknown key, either builds the run's datasets and model or raises an
        error type of the package, and an unknown key always fails."""
        path, value = edit

        def build():
            cfg = TrainConfig.from_dict(with_leaf(SMALL_CONFIG, path, value))
            (source, *_), _ = trainer.resolve_datasets(cfg)
            M.init_model(source.features.shape[1], cfg.hidden_dims, source.num_classes,
                         temperature=cfg.temperature, seed=cfg.seed)

        exc = runs_or_fails_with_a_package_error(build)
        assert exc is not None or path[-1] != "unknown", path

    def test_schedule_preset_resolution(self):
        cfg = TrainConfig(k_schedule="fast-start")
        assert cfg.k_schedule == {"k0": 20.0, "k_step": 5.0, "k_max": 50.0}
        # a partial dict keeps the default preset's other keys
        assert TrainConfig(k_schedule={"k0": 20.0}).k_schedule == {"k0": 20.0, "k_step": 5.0,
                                                                   "k_max": 30.0}

    def test_file_roundtrip(self, tmp_path):
        cfg = tiny_twin_config("coal", seed=4, alpha=0.25)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = cli._load_config(SimpleNamespace(config=path, out_dir=None))
        assert loaded.to_dict() == cfg.to_dict()


class TestPretrain:
    def test_zero_epochs_leaves_model_unchanged(self):
        cfg = tiny_twin_config(pretrain_epochs=0)
        params, _ = pretrained(cfg)
        fresh = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature, seed=0)
        for b, f in zip(params.all_blocks(), fresh.all_blocks()):
            assert np.array_equal(b.value, f.value)

    def test_same_seed_identical_checkpoints(self, tmp_path):
        for name in ("a", "b"):
            cfg = tiny_twin_config(out_dir=str(tmp_path / name))
            run_experiment(cfg)
        assert (tmp_path / "a" / "checkpoint.json").read_text() == (
            tmp_path / "b" / "checkpoint.json").read_text()

    def test_separable_toy_reaches_high_source_accuracy(self):
        # 10 batches per epoch x 20 epochs = 200 supervised steps
        cfg = tiny_twin_config(
            pretrain_epochs=20, epochs=0, batch_size=16,
            data={"twin_gaussians": {"num_classes": 2, "per_class": 100, "noise": 0.4,
                                     "rotation_deg": 0.0, "translation": [0.0, 0.0],
                                     "means": [[-2.0, 0.0], [2.0, 0.0]], "seed": 3},
                  "shift": {"pareto_alpha": 1.0, "degree": 0.0, "budget": 160,
                            "min_per_class": 2, "seed": 5}},
        )
        params, (source, *_) = pretrained(cfg)
        assert trainer.evaluate_model(params, source)["per_class_mean_accuracy"] > 0.95

    def test_run_experiment_pretraining_matches_epoch_calls(self, tmp_path):
        cfg = tiny_twin_config(pretrain_epochs=3, epochs=0, out_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        data, _ = trainer.resolve_datasets(cfg)
        params = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature, seed=cfg.seed)
        records = [trainer.pretrain(params, data, cfg, epoch, []) for epoch in range(3)]
        assert report.metrics["epochs"] == records
        M.save_checkpoint(params, tmp_path / "calls.json")
        assert (tmp_path / "calls.json").read_text() == (tmp_path / "run" / "checkpoint.json").read_text()

    def test_non_finite_loss_aborts(self):
        cfg = tiny_twin_config()
        (source, *targets), _ = trainer.resolve_datasets(cfg)
        poisoned = D.LabeledDataset(source.features.copy(), source.labels, source.num_classes)
        poisoned.features[0, 0] = np.nan
        with pytest.raises(DivergenceError):
            pretrained(cfg, (poisoned, *targets))


class TestAdaptEpochDivergence:
    @pytest.mark.parametrize("method, run_epoch", [
        ("coal", trainer.run_coal_epoch),
        ("marginal-align", trainer.run_marginal_align_epoch),
    ])
    def test_nan_target_row_names_epoch_and_step(self, method, run_epoch):
        cfg = tiny_twin_config(method)
        params, (source, tgt_train, tgt_hold) = pretrained(cfg)
        poisoned = D.LabeledDataset(tgt_train.features.copy(), tgt_train.labels, tgt_train.num_classes)
        poisoned.features[0, 0] = np.nan
        epoch = cfg.pretrain_epochs
        plan = trainer._batch_plan(poisoned, cfg, trainer._STREAM_TARGET, epoch, "natural")
        step = next(i for i, batch in enumerate(plan) if 0 in batch)
        with pytest.raises(DivergenceError, match=f"at epoch {epoch}, step {step}$"):
            run_epoch(params, (source, poisoned, tgt_hold), cfg, epoch, [])


    @pytest.mark.parametrize("name", ["layer0.weight", "layer1.bias", "prototypes", "domain.bias"])
    def test_nan_gradient_names_its_block(self, name):
        # the step updates the whole arena, but the error names the part
        cfg = tiny_twin_config()
        data = trainer.resolve_datasets(cfg)[0]
        params = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature)
        poisoned = {block.name: block for block in params.all_blocks()}[name]

        def poisoning_objective(params, inputs, labels):
            values = objectives.source_classification_loss(params, inputs, labels)
            poisoned.grad.flat[-1] = np.nan
            return values

        with pytest.raises(DivergenceError, match=f"^non-finite gradient in block '{name}'$"):
            trainer._run_epoch(params, data, cfg, 0, [], poisoning_objective)


class TestEpochLoop:
    def test_only_target_rows_plan_a_target_batch(self, monkeypatch):
        # the balanced source sampler never calls natural_batches, so each
        # call is a target_train plan
        cfg = tiny_twin_config("marginal-align")
        assert cfg.sampler == "balanced"
        params, data = pretrained(cfg)
        calls = []
        natural = D.natural_batches
        monkeypatch.setattr(D, "natural_batches", lambda *args: calls.append(args) or natural(*args))
        trainer.pretrain(params, data, cfg, 0, [])
        assert len(calls) == 0
        trainer.run_marginal_align_epoch(params, data, cfg, cfg.pretrain_epochs, [])
        assert len(calls) == 1


class TestCoalEpoch:
    def test_entropy_ablation_records_l_h_but_trains_as_alpha_zero(self):
        """Pretraining plus one adaptation epoch under disable-entropy-term
        leaves the arena byte-identical to an alpha 0 run and unlike the
        alpha 0.1 run, while the epoch still records the entropy."""
        arenas, records = {}, {}
        for name, overrides in (("ablated", {"ablations": ("disable-entropy-term",)}),
                                ("alpha 0", {"alpha": 0.0}), ("alpha 0.1", {"alpha": 0.1})):
            cfg = fixture_config("coal", 1, 100.0, pretrain_epochs=2, epochs=1, **overrides)
            data, _ = trainer.resolve_datasets(cfg)
            params = M.init_model(2, cfg.hidden_dims, 4, temperature=cfg.temperature, seed=1)
            for epoch in range(cfg.pretrain_epochs):
                trainer.pretrain(params, data, cfg, epoch, [])
            records[name] = trainer.run_coal_epoch(params, data, cfg, cfg.pretrain_epochs, [])
            arenas[name] = params.arena.value.tobytes()
        assert arenas["ablated"] == arenas["alpha 0"]
        assert arenas["ablated"] != arenas["alpha 0.1"]
        assert records["ablated"]["l_h"] > 0.0
        # each record holds the alpha its objective ran with
        assert [records[name]["alpha"] for name in records] == [0.0, 0.0, 0.1]

    def test_pseudo_ablation_keeps_l_st_equal_l_sc(self):
        cfg = tiny_twin_config("coal", ablations=("disable-pseudo-term",))
        params, data = pretrained(cfg)
        log = []
        trainer.run_coal_epoch(params, data, cfg, cfg.pretrain_epochs, log)
        assert log
        for entry in log:
            assert entry["l_st"] == entry["l_sc"]
            assert entry["l_target_pseudo"] == 0.0

    def test_loss_breakdown_identity_every_step(self):
        cfg = tiny_twin_config("coal")
        params, data = pretrained(cfg)
        log = []
        trainer.run_coal_epoch(params, data, cfg, cfg.pretrain_epochs, log)
        for entry in log:
            assert abs(entry["l_st"] - (entry["l_sc"] + entry["l_target_pseudo"])) < 1e-9

    def test_estimate_is_the_hand_counted_shares_of_the_selection(self):
        """The epoch's estimate is the class shares among the pseudo-labels
        selected from the pretrained model, exactly."""
        cfg = tiny_twin_config("coal")
        params, data = pretrained(cfg)
        labels, confidence = selftrain.assign_pseudo_labels(params, data[1].features)
        k = selftrain.advance_k(cfg.k_schedule, 0)
        chosen = labels[selftrain.select_top_k_per_class(labels, confidence, k, 2).mask == 1]
        record = trainer.run_coal_epoch(params, data, cfg, cfg.pretrain_epochs, [])
        shares = [sum(1 for label in chosen.tolist() if label == c) / len(chosen) for c in (0, 1)]
        assert record["estimated_target_distribution"] == shares

    def test_zero_k_schedule_warns_and_proceeds(self):
        cfg = tiny_twin_config("coal", k_schedule={"k0": 0, "k_step": 0, "k_max": 0})
        params, data = pretrained(cfg)
        record = trainer.run_coal_epoch(params, data, cfg, cfg.pretrain_epochs, [])
        assert record["warnings"]
        # nothing was selected, so nothing about the selection is measured
        assert not {"estimated_target_distribution", "masked_pseudo_accuracy"} & record.keys()
        final = run_experiment(cfg).metrics["final"]
        assert not {"estimated_vs_true_js_distance", "estimated_vs_true_l1"} & final.keys()


class TestRunExperiment:
    def test_identical_configs_identical_metrics(self):
        a = run_experiment(tiny_twin_config("coal", seed=2))
        b = run_experiment(tiny_twin_config("coal", seed=2))
        assert a.metrics_payload() == b.metrics_payload()
        assert a.timing != b.timing or a.timing == b.timing  # timing may differ

    def test_per_epoch_times_are_measured(self, monkeypatch):
        # a fake clock that each pretrain call advances by its epoch + 1
        clock = [0.0]
        monkeypatch.setattr(trainer, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        real_pretrain = trainer.pretrain

        def pretrain(params, data, config, epoch, step_log):
            clock[0] += epoch + 1.0
            return real_pretrain(params, data, config, epoch, step_log)

        monkeypatch.setattr(trainer, "pretrain", pretrain)
        report = run_experiment(tiny_twin_config(pretrain_epochs=3, epochs=2))
        assert report.timing["per_epoch_s"] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_source_only_has_no_entropy_terms(self, tmp_path):
        report = run_experiment(tiny_twin_config("source-only", out_dir=str(tmp_path)))
        lines = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        adapt = [r for r in report.metrics["epochs"] if r["phase"] == "adapt"]
        assert adapt and lines
        assert not any({"l_h", "l_target_pseudo"} & entry.keys() for entry in adapt + lines)

    def test_outputs_written(self, tmp_path):
        cfg = tiny_twin_config("coal", out_dir=str(tmp_path / "run"), dump_pseudo=True)
        run_experiment(cfg)
        out = tmp_path / "run"
        for name in ("report.json", "metrics.jsonl", "checkpoint.json",
                     "source_manifest.json", "target_train_manifest.json",
                     "target_holdout_manifest.json", "pseudo_epoch_000.csv"):
            assert (out / name).exists(), name
        lines = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert all("l_sc" in entry for entry in lines)
        # only coal's adaptation steps minimize the self-training loss
        assert [entry["phase"] == "adapt" for entry in lines] == ["l_st" in entry for entry in lines]

    def test_a_batch_above_the_source_rows_fails_before_anything_is_written(self, tmp_path):
        """A batch as large as the source's 120 rows runs; one row larger
        fails before the run makes its out dir. A batch of 5,000 would draw
        each source row about 42 times in one step."""
        run_experiment(tiny_twin_config(batch_size=120))
        with pytest.raises(UsageError,
                           match=r"^batch_size must be at most the source's 120 rows, got 5000$"):
            run_experiment(tiny_twin_config(batch_size=5000, out_dir=str(tmp_path / "run")))
        assert not (tmp_path / "run").exists()

    def test_every_step_goes_through_sgd_momentum_step(self, tmp_path, monkeypatch):
        # a wrapper bound to the module attribute sees each optimizer step,
        # as the benchmark's step probe does; its traced hook reads len(args[0])
        blocks_per_call = []
        step = trainer.sgd_momentum_step

        def counting(*args, **kwargs):
            blocks_per_call.append(len(args[0]))
            return step(*args, **kwargs)

        monkeypatch.setattr(trainer, "sgd_momentum_step", counting)
        run_experiment(tiny_twin_config("coal", out_dir=str(tmp_path)))
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert 0 < len(blocks_per_call) == len(lines)

    def test_marginal_align_records_discriminator_accuracy(self):
        report = run_experiment(tiny_twin_config("marginal-align"))
        adapt = [r for r in report.metrics["epochs"] if r["phase"] == "adapt"]
        assert all(0.0 <= r["domain_discriminator_accuracy"] <= 1.0 for r in adapt)

    def test_sweep_emits_report_per_degree(self, tmp_path):
        cfg = tiny_twin_config("coal", out_dir=str(tmp_path / "sweep"))
        cfg.data["twin_gaussians"]["per_class"] = 100
        reports = trainer.run_experiments(
            trainer.degree_configs(cfg, [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]))
        assert len(reports) == 6
        degrees = [r.config["data"]["shift"]["degree"] for r in reports]
        assert degrees == [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]

    def test_builders_name_each_run_dir(self, tmp_path):
        cfg = tiny_twin_config("coal", out_dir=str(tmp_path))
        configs = trainer.degree_configs(cfg, [0.0, 12.5, 100]) + trainer.ablation_configs(cfg)
        names = ("degree_0", "degree_12.5", "degree_100", "full", *trainer.ABLATION_FLAGS)
        assert [c.out_dir for c in configs] == [str(tmp_path / name) for name in names]
        with pytest.raises(UsageError, match="^two runs would write to out_dir .*degree_0'$"):
            trainer.run_experiments([configs[0], configs[0]])
        assert not (tmp_path / "degree_0").exists()
        # two spellings of one directory are one out_dir; the error shows the config's spelling
        first = replace(cfg, seed=1, out_dir=str(tmp_path / "runs" / "a"))
        alias = replace(cfg, seed=2, out_dir=str(tmp_path / "runs" / "b" / ".." / "a"))
        with pytest.raises(UsageError, match=f"^two runs would write to out_dir "
                                             f"{re.escape(repr(first.out_dir))}$"):
            trainer.run_experiments([first, alias])
        assert not (tmp_path / "runs" / "a").exists()

    @pytest.mark.parametrize("shift", [None, 5])
    def test_sweep_needs_a_shift_block(self, shift):
        cfg = tiny_twin_config("coal")
        cfg.data = {"twin_gaussians": cfg.data["twin_gaussians"]}
        if shift is not None:
            cfg.data["shift"] = shift
        with pytest.raises(UsageError, match="^sweep requires a data section with a shift block"):
            trainer.degree_configs(cfg, [0.0])

    def test_ablation_study_variants(self):
        reports = trainer.run_experiments(trainer.ablation_configs(tiny_twin_config("coal")))
        flags = [tuple(r.config["ablations"]) for r in reports]
        assert flags == [(), ("disable-pseudo-term",), ("disable-entropy-term",)]


class TestAblationExactness:
    def test_double_ablation_is_bitwise_source_only(self, tmp_path):
        coal = tiny_twin_config(
            "coal", seed=6, epochs=3,
            ablations=("disable-pseudo-term", "disable-entropy-term"),
            out_dir=str(tmp_path / "coal"))
        src = tiny_twin_config("source-only", seed=6, epochs=3, out_dir=str(tmp_path / "src"))
        run_experiment(coal)
        run_experiment(src)
        a = json.loads((tmp_path / "coal" / "checkpoint.json").read_text())
        b = json.loads((tmp_path / "src" / "checkpoint.json").read_text())
        assert a["arena"] == b["arena"]

    def test_double_ablation_is_bitwise_source_only_at_wide_widths(self, tmp_path):
        """The same contract at the benchmark's widths: 64-D inputs, hidden
        (256, 128), batch 256. 1,600 source and 1,600 target_train rows give
        both plans 7 steps, so the plans fit, and each paired step stacks 256
        or 64 target rows, counts at which the stacked weight-gradient GEMMs
        keep the source rows' bits."""
        rng = np.random.default_rng(0)
        templates = rng.random((10, 64))
        recipes = {}
        for name, per_class in (("source", 160), ("target", 200)):
            labels = rng.permutation(np.repeat(np.arange(10), per_class))
            x = np.clip(templates[labels] + 0.25 * rng.standard_normal((len(labels), 64)), 0.0, 1.0)
            images, label_file = tmp_path / f"{name}-images.idx", tmp_path / f"{name}-labels.idx"
            D.write_idx(D.LabeledDataset(x, labels, 10), images, label_file, 8, 8)
            recipes[name] = {"kind": "idx", "images": str(images), "labels": str(label_file)}
        wide = dict(seed=1, epochs=2, pretrain_epochs=1, batch_size=256, hidden_dims=(256, 128),
                    temperature=0.3, k_schedule="fast-start", data=recipes)
        coal = TrainConfig(method="coal", ablations=trainer.ABLATION_FLAGS,
                           out_dir=str(tmp_path / "coal"), **wide)
        src = TrainConfig(method="source-only", out_dir=str(tmp_path / "src"), **wide)
        source, target_train, _ = trainer.resolve_datasets(coal)[0]
        assert (len(source), len(target_train)) == (1600, 1600)
        run_experiment(coal)
        run_experiment(src)
        a = json.loads((tmp_path / "coal" / "checkpoint.json").read_text())
        b = json.loads((tmp_path / "src" / "checkpoint.json").read_text())
        assert a["arena"] == b["arena"]


class TestResolveDatasets:
    def test_manifest_recipes_rebuild_identically(self):
        cfg = tiny_twin_config()
        data, recipes = trainer.resolve_datasets(cfg)
        assert list(recipes) == ["source", "target_train", "target_holdout"]
        for recipe, dataset in zip(recipes.values(), data, strict=True):
            assert D.dataset_fingerprint(D.materialize_dataset(recipe)) == D.dataset_fingerprint(dataset)

    def test_csv_source_and_idx_target_write_manifests_that_rebuild(self, tmp_path, file_recipes):
        shift = {"pareto_alpha": 1.0, "direction": D.DIRECTION_TARGET, "degree": 50.0,
                 "budget": 60, "seed": 2}
        cfg = TrainConfig(method="coal", seed=1, epochs=1, pretrain_epochs=1, batch_size=16,
                          temperature=0.3, out_dir=str(tmp_path / "run"),
                          data={"source": file_recipes["csv"],
                                "target": {**file_recipes["idx"], "shift": shift}})
        run_experiment(cfg)
        for name in ("source", "target_train", "target_holdout"):
            doc = json.loads((tmp_path / "run" / f"{name}_manifest.json").read_text())
            rebuilt = D.materialize_dataset(doc["recipe"])
            assert D.dataset_fingerprint(rebuilt) == doc["sha256"]
            assert rebuilt.class_counts().tolist() == doc["per_class_counts"]
        assert doc["recipe"]["kind"] == "idx" and doc["recipe"]["split"]["part"] == "holdout"

    @settings(max_examples=200)
    @given(data=st.data())
    def test_a_one_change_source_and_target_resolve_or_fail_with_a_package_error(
            self, file_recipes, data):
        """One change to a source/target data section, a csv source with a
        shift and a split block and an idx target with a shift block, either
        resolves or raises an error type of the package, and an unknown key
        always fails."""
        shift = {"pareto_alpha": 1.0, "degree": 50.0, "budget": 30, "min_per_class": 2, "seed": 2}
        section = {"source": {**file_recipes["csv"], "shift": {**shift, "direction": "source"},
                              "split": {"holdout_fraction": 0.25, "seed": 3, "part": "train"}},
                   "target": {**file_recipes["idx"], "shift": {**shift, "direction": "target"}}}
        path, value = data.draw(one_change(section))
        exc = runs_or_fails_with_a_package_error(
            lambda: trainer.resolve_datasets(TrainConfig(data=with_leaf(section, path, value))))
        assert exc is not None or path[-1] != "unknown", path

    def test_means_beyond_int64_give_float_features_and_a_run(self):
        """A recipe's means may hold any integer a float holds, also one that
        no int64 holds; numpy would keep such an integer as an object."""
        cfg = tiny_twin_config("coal")
        cfg.data["twin_gaussians"]["means"] = [[10**20, 0], [0, 1]]
        data, _ = trainer.resolve_datasets(cfg)
        assert [part.features.dtype for part in data] == [np.float64] * 3
        final = run_experiment(cfg).metrics["final"]
        assert 0.0 <= final["per_class_mean_accuracy"] <= 1.0

    def test_directions_assigned_per_domain(self):
        cfg = tiny_twin_config()
        (source, tgt_train, tgt_hold), _ = trainer.resolve_datasets(cfg)
        # source-reversed puts the small class first; target-ranked the opposite
        assert source.class_counts()[0] < source.class_counts()[1]
        total_target = tgt_train.class_counts() + tgt_hold.class_counts()
        assert total_target[0] > total_target[1]
        # so a config's shift block may not set one
        cfg.data["shift"]["direction"] = "bogus"
        with pytest.raises(UsageError, match=r"^config data shift has unknown keys \['direction'\]$"):
            trainer.resolve_datasets(cfg)

    def test_class_mismatch_names_both_sides(self, tmp_path, file_recipes):
        """A CSV target without the source's top class fails naming each side's shape."""
        rows = Path(file_recipes["csv"]["path"]).read_text().splitlines(keepends=True)
        target = tmp_path / "two-classes.csv"
        target.write_text("".join(row for row in rows if not row.endswith(",2\n")))
        cfg = TrainConfig(data={"source": file_recipes["csv"],
                                "target": {"kind": "csv", "path": str(target)}})
        with pytest.raises(UsageError, match="source has 3 classes and 4 features, "
                                             "target has 2 classes and 4 features$"):
            trainer.resolve_datasets(cfg)

    def test_requires_data_section(self):
        with pytest.raises(UsageError):
            trainer.resolve_datasets(TrainConfig(data={}))
