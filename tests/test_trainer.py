import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coalign import data as D
from coalign import model as M
from coalign import objectives, trainer
from coalign.errors import DivergenceError, UsageError
from coalign.selftrain import KSchedule
from coalign.trainer import TrainConfig, run_experiment


def tiny_twin_config(method="source-only", seed=0, **overrides):
    base = dict(
        method=method,
        seed=seed,
        epochs=2,
        pretrain_epochs=1,
        batch_size=16,
        temperature=0.3,
        data={
            "twin_gaussians": {"num_classes": 2, "per_class": 80, "noise": 0.4,
                               "rotation_deg": 10.0, "translation": [0.0, 0.0],
                               "means": [[-2.0, 0.0], [2.0, 0.0]], "seed": 3},
            "shift": {"pareto_alpha": 1.0, "degree": 40.0, "budget": 120,
                      "min_per_class": 2, "seed": 5},
        },
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(UsageError):
            TrainConfig(method="bbse")

    def test_rejects_ablations_outside_coal(self):
        with pytest.raises(UsageError):
            TrainConfig(method="source-only", ablations=("disable-entropy-term",))

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
        ({"data": {"twin_gaussians": 5}}, "'twin_gaussians'"),
        ({"data": {"twin_gaussians": {"num_classes": 2}, "shift": 5}}, "'shift'"),
        ({"data": {"source": [], "target": {"kind": "csv"}}}, "'source'"),
        ({"data": {"twin_gaussians": {"num_classes": 2, "per_class": 300, "noise": 0.5},
                   "shfit": {"pareto_alpha": 1.0, "degree": 100.0, "budget": 200}}}, "shfit"),
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
           k=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 50.0), st.floats(0.0, 100.0)),
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

    def test_schedule_preset_resolution(self):
        cfg = TrainConfig(k_schedule="fast-start")
        assert cfg.k_schedule == KSchedule(20, 5, 50)

    def test_file_roundtrip(self, tmp_path):
        cfg = tiny_twin_config("coal", seed=4, alpha=0.25)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = TrainConfig.from_file(path)
        assert loaded.to_dict() == cfg.to_dict()


class TestPretrain:
    def test_zero_epochs_leaves_model_unchanged(self):
        cfg = tiny_twin_config()
        source, *_ = trainer.resolve_datasets(cfg)
        params = M.init_model(2, cfg.hidden_dims, 2, seed=0)
        before = [b.value.copy() for b in params.all_blocks()]
        trainer.pretrain(params, source, cfg, epochs=0)
        for b, v in zip(params.all_blocks(), before):
            assert np.array_equal(b.value, v)

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
        source, *_ = trainer.resolve_datasets(cfg)
        params = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature, seed=0)
        trainer.pretrain(params, source, cfg)
        assert trainer.evaluate_model(params, source)["per_class_mean_accuracy"] > 0.95

    def test_epoch_at_a_time_matches_one_call(self):
        cfg = tiny_twin_config(pretrain_epochs=3)
        source, *_ = trainer.resolve_datasets(cfg)
        whole = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature, seed=0)
        split = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature, seed=0)
        records = trainer.pretrain(whole, source, cfg)
        split_records = [r for e in range(3)
                         for r in trainer.pretrain(split, source, cfg, epochs=1, start_epoch=e)]
        assert records == split_records
        for a, b in zip(whole.all_blocks(), split.all_blocks()):
            assert np.array_equal(a.value, b.value)
            assert np.array_equal(a.momentum, b.momentum)

    def test_non_finite_loss_aborts(self):
        cfg = tiny_twin_config()
        source, *_ = trainer.resolve_datasets(cfg)
        poisoned = D.LabeledDataset(source.features.copy(), source.labels, source.num_classes)
        poisoned.features[0, 0] = np.nan
        params = M.init_model(2, cfg.hidden_dims, 2, seed=0)
        with pytest.raises(DivergenceError):
            trainer.pretrain(params, poisoned, cfg)


class TestAdaptEpochDivergence:
    @pytest.mark.parametrize("method, run_epoch", [
        ("coal", trainer.run_coal_epoch),
        ("marginal-align", trainer.run_marginal_align_epoch),
    ])
    def test_nan_target_row_names_epoch_and_step(self, method, run_epoch):
        cfg = tiny_twin_config(method)
        source, tgt_train, _, _, _ = trainer.resolve_datasets(cfg)
        poisoned = D.LabeledDataset(tgt_train.features.copy(), tgt_train.labels, tgt_train.num_classes)
        poisoned.features[0, 0] = np.nan
        params = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature, seed=0)
        trainer.pretrain(params, source, cfg)
        epoch = cfg.pretrain_epochs
        plan = trainer._batch_plan(poisoned, cfg, trainer._STREAM_TARGET, epoch, "natural")
        step = next(i for i, batch in enumerate(plan) if 0 in batch)
        with pytest.raises(DivergenceError, match=f"at epoch {epoch}, step {step}$"):
            run_epoch(params, source, poisoned, cfg, 0)


class TestCoalEpoch:
    def test_entropy_ablation_records_but_never_backprops(self, monkeypatch):
        cfg = tiny_twin_config("coal", ablations=("disable-entropy-term",))
        source, tgt_train, tgt_hold, _, _ = trainer.resolve_datasets(cfg)
        params = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature, seed=0)
        trainer.pretrain(params, source, cfg)
        called = []
        monkeypatch.setattr(
            objectives, "entropy_objective",
            lambda *a, **k: called.append(1))
        record = trainer.run_coal_epoch(params, source, tgt_train, cfg, 0, holdout=tgt_hold)
        assert called == []
        assert record["l_h"] > 0.0

    def test_pseudo_ablation_keeps_l_st_equal_l_sc(self):
        cfg = tiny_twin_config("coal", ablations=("disable-pseudo-term",))
        source, tgt_train, _, _, _ = trainer.resolve_datasets(cfg)
        params = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature, seed=0)
        trainer.pretrain(params, source, cfg)
        log = []
        trainer.run_coal_epoch(params, source, tgt_train, cfg, 0, step_log=log)
        assert log
        for entry in log:
            assert entry["l_st"] == entry["l_sc"]
            assert entry["l_target_pseudo"] == 0.0

    def test_loss_breakdown_identity_every_step(self):
        cfg = tiny_twin_config("coal")
        source, tgt_train, _, _, _ = trainer.resolve_datasets(cfg)
        params = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature, seed=0)
        trainer.pretrain(params, source, cfg)
        log = []
        trainer.run_coal_epoch(params, source, tgt_train, cfg, 0, step_log=log)
        for entry in log:
            assert abs(entry["l_st"] - (entry["l_sc"] + entry["l_target_pseudo"])) < 1e-9

    def test_zero_k_schedule_warns_and_proceeds(self):
        cfg = tiny_twin_config("coal", k_schedule={"k0": 0, "k_step": 0, "k_max": 0})
        source, tgt_train, _, _, _ = trainer.resolve_datasets(cfg)
        params = M.init_model(2, cfg.hidden_dims, 2, temperature=cfg.temperature, seed=0)
        trainer.pretrain(params, source, cfg)
        record = trainer.run_coal_epoch(params, source, tgt_train, cfg, 0)
        assert record["warnings"]
        assert record["estimated_target_distribution"] is None


class TestRunExperiment:
    def test_identical_configs_identical_metrics(self):
        a = run_experiment(tiny_twin_config("coal", seed=2))
        b = run_experiment(tiny_twin_config("coal", seed=2))
        assert a.metrics_payload() == b.metrics_payload()
        assert a.timing != b.timing or a.timing == b.timing  # timing may differ

    def test_per_epoch_times_are_measured(self, monkeypatch):
        # a fake clock that each pretrain call advances by its start epoch + 1
        clock = [0.0]
        monkeypatch.setattr(trainer, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        real_pretrain = trainer.pretrain

        def pretrain(*args, start_epoch=0, **kwargs):
            clock[0] += start_epoch + 1.0
            return real_pretrain(*args, start_epoch=start_epoch, **kwargs)

        monkeypatch.setattr(trainer, "pretrain", pretrain)
        report = run_experiment(tiny_twin_config(pretrain_epochs=3, epochs=2))
        assert report.timing["per_epoch_s"] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_source_only_has_no_entropy_terms(self):
        report = run_experiment(tiny_twin_config("source-only"))
        adapt = [r for r in report.metrics["epochs"] if r["phase"] == "adapt"]
        assert adapt
        assert all(r["l_h"] == 0.0 for r in adapt)

    def test_outputs_written(self, tmp_path):
        cfg = tiny_twin_config("coal", out_dir=str(tmp_path / "run"), dump_pseudo=True)
        run_experiment(cfg)
        out = tmp_path / "run"
        for name in ("report.json", "metrics.jsonl", "checkpoint.json",
                     "source_manifest.json", "target_train_manifest.json",
                     "target_holdout_manifest.json", "pseudo_epoch_000.csv"):
            assert (out / name).exists(), name
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert all("l_st" in json.loads(line) for line in lines)

    def test_marginal_align_records_discriminator_accuracy(self):
        report = run_experiment(tiny_twin_config("marginal-align"))
        adapt = [r for r in report.metrics["epochs"] if r["phase"] == "adapt"]
        assert all(0.0 <= r["domain_discriminator_accuracy"] <= 1.0 for r in adapt)

    def test_sweep_emits_report_per_degree(self, tmp_path):
        cfg = tiny_twin_config("coal", out_dir=str(tmp_path / "sweep"))
        cfg.data["twin_gaussians"]["per_class"] = 100
        reports = trainer.sweep_degrees(cfg, [0.0, 20.0, 40.0, 60.0, 80.0, 100.0])
        assert len(reports) == 6
        degrees = [r.config["data"]["shift"]["degree"] for r in reports]
        assert degrees == [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]

    def test_ablation_study_variants(self):
        reports = trainer.run_ablations(tiny_twin_config("coal"))
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
        assert a["blocks"] == b["blocks"]


class TestResolveDatasets:
    def test_manifest_recipes_rebuild_identically(self):
        cfg = tiny_twin_config()
        source, _, _, src_recipe, tgt_recipe = trainer.resolve_datasets(cfg)
        assert D.dataset_fingerprint(D.materialize_dataset(src_recipe)) == D.dataset_fingerprint(source)

    def test_directions_assigned_per_domain(self):
        cfg = tiny_twin_config()
        source, tgt_train, tgt_hold, _, _ = trainer.resolve_datasets(cfg)
        # source-reversed puts the small class first; target-ranked the opposite
        assert source.class_counts()[0] < source.class_counts()[1]
        total_target = tgt_train.class_counts() + tgt_hold.class_counts()
        assert total_target[0] > total_target[1]

    def test_requires_data_section(self):
        with pytest.raises(UsageError):
            trainer.resolve_datasets(TrainConfig(data={}))
