import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalign import data as D
from coalign import trainer
from coalign import evaluation as E
from coalign.errors import FormatError, UsageError
from conftest import WRONG_VALUES, leaf_paths, runs_or_fails_with_a_package_error, with_leaf


class TestConfusionMatrix:
    def test_row_sums_are_class_counts(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 4, 200)
        pred = rng.integers(0, 4, 200)
        cm = E.confusion_matrix(true, pred, 4)
        assert np.array_equal(cm.sum(axis=1), np.bincount(true, minlength=4))
        assert cm.sum() == 200

    @pytest.mark.parametrize("true, pred, message", [
        ([0, 1], [0, -1], "^predicted label -1 out of range for 2 classes$"),
        ([0, 2], [0, 1], "^true label 2 out of range for 2 classes$"),
        ([0, 1], [0, 1, 1], r"^\(2,\) true labels vs \(3,\) predictions$"),
    ])
    def test_out_of_range_label_names_its_side(self, true, pred, message):
        with pytest.raises(UsageError, match=message):
            E.confusion_matrix(true, pred, 2)


class TestPerClassMeanAccuracy:
    def test_perfect_diagonal(self):
        assert E.per_class_mean_accuracy(np.diag([5, 9, 2])) == 1.0

    def test_hand_computed_imbalanced_example(self):
        # class 0: 90/100 correct, class 1: 1/10 correct -> per-class mean
        # 0.5 while overall accuracy is (90+1)/110
        cm = np.array([[90, 10], [9, 1]])
        assert E.per_class_mean_accuracy(cm) == pytest.approx(0.5, abs=1e-12)
        assert E.overall_accuracy(cm) == pytest.approx(91 / 110, abs=1e-12)
        assert E.overall_accuracy(cm) == pytest.approx(0.827, abs=5e-4)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        cm = rng.integers(1, 30, (5, 5))
        perm = rng.permutation(5)
        assert E.per_class_mean_accuracy(cm[np.ix_(perm, perm)]) == pytest.approx(
            E.per_class_mean_accuracy(cm), abs=1e-12)

    def test_empty_class_names_class(self):
        cm = np.array([[3, 0], [0, 0]])
        with pytest.raises(UsageError, match="class 1"):
            E.per_class_mean_accuracy(cm)

    def test_equals_overall_when_balanced(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = int(rng.integers(2, 6))
            # balanced: every class has the same number of samples
            cm = np.zeros((c, c), dtype=int)
            n = int(rng.integers(20, 60))
            for i in range(c):
                split = rng.multinomial(n, np.ones(c) / c)
                cm[i] = split
            assert E.per_class_mean_accuracy(cm) == pytest.approx(E.overall_accuracy(cm), abs=1e-12)


def random_selection(seed):
    """80 pseudo-labels over 5 classes and a mask keeping about 70% of them."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 5, 80), (rng.random(80) > 0.3).astype(np.int64)


@pytest.mark.parametrize("labels, mask, num_classes, expected", [
    ([0, 0, 1, 1], [1, 1, 1, 1], 2, [0.5, 0.5]),
    ([2, 2, 2], [1, 1, 1], 4, [0.0, 0.0, 1.0, 0.0]),
    ([0, 1, 1, 2, 2, 2, 0], [1, 1, 0, 1, 1, 1, 0], 3, [1 / 5, 1 / 5, 3 / 5]),
    (*random_selection(6), 5, None),
], ids=["balanced", "one-hot", "seven-rows", "random"])
def test_label_distribution_of_selected_pseudo_labels(labels, mask, num_classes, expected):
    """The per-epoch estimate's form: the class shares of the selected
    pseudo-labels, a valid distribution that scales back to the counts."""
    selected = np.asarray(labels)[np.asarray(mask) == 1]
    counts = np.bincount(selected, minlength=num_classes)
    dist = E.label_distribution(counts)
    assert dist.shape == (num_classes,) and (dist >= 0).all()
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(dist * selected.size, counts)
    if expected is not None:
        assert np.array_equal(dist, expected)


@pytest.mark.parametrize("counts, message", [
    ([-1, 2], r"^counts must be finite and nonnegative, got \[-1.0, 2.0\]$"),
    ([np.nan, 2], r"^counts must be finite and nonnegative, got \[nan, 2.0\]$"),
    ([np.inf, 2], r"^counts must be finite and nonnegative, got \[inf, 2.0\]$"),
    ([0, 0], "^cannot normalize an all-zero count vector$"),
], ids=["negative", "nan", "inf", "all-zero"])
def test_label_distribution_rejects_bad_counts(counts, message):
    with pytest.raises(UsageError, match=message):
        E.label_distribution(counts)


class TestJsDiagnostics:
    def test_identical_distributions(self):
        p = np.array([0.3, 0.7])
        assert E.js_distance(p, p) == 0.0

    def test_disjoint_one_hots(self):
        distance = E.js_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert distance == pytest.approx(np.sqrt(np.log(2)), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        p = E.label_distribution(rng.random(5))
        q = E.label_distribution(rng.random(5))
        assert E.js_distance(p, q) == pytest.approx(E.js_distance(q, p), abs=1e-15)

    def test_monotone_along_shift_interpolation(self):
        c = 6
        uniform = np.full(c, 1.0 / c)
        previous = -1.0
        for degree in (0.0, 20.0, 40.0, 60.0, 80.0, 100.0):
            shift = {"pareto_alpha": 1.0, "direction": D.DIRECTION_TARGET, "degree": degree,
                     "budget": 600}
            distance = E.js_distance(uniform, D.shift_proportions(c, shift))
            assert distance >= previous
            previous = distance

    @pytest.mark.parametrize("p, q, named", [
        ([0.5, 0.6], [0.5, 0.5], "p"), ([0.5, 0.5], [1.5, -0.5], "q"), ([[1.0]], [1.0], "p")])
    def test_invalid_vector_is_named(self, p, q, named):
        with pytest.raises(UsageError, match=f"^{named} is not a valid probability vector: "):
            E.js_distance(p, q)

    @pytest.mark.parametrize("measure", [E.js_distance, E.compare_distributions])
    def test_length_mismatch_names_both_lengths(self, measure):
        with pytest.raises(UsageError, match="^p has 2 entries but q has 3$"):
            measure([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_js_distance_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = E.label_distribution(rng.random(5))
            q = E.label_distribution(rng.random(5))
            assert 0.0 <= E.js_distance(p, q) <= np.sqrt(np.log(2)) + 1e-12


class TestCompareDistributions:
    def test_identical(self):
        p = np.array([0.4, 0.6])
        out = E.compare_distributions(p, p)
        assert out["js_distance"] == 0.0
        assert out["l1"] == 0.0

    def test_disjoint_one_hots(self):
        out = E.compare_distributions(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert out["js_distance"] == pytest.approx(np.sqrt(np.log(2)), abs=1e-12)
        assert out["l1"] == pytest.approx(2.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        p = rng.random(4)
        p /= p.sum()
        q = rng.random(4)
        q /= q.sum()
        assert E.compare_distributions(p, q) == E.compare_distributions(q, p)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            p = rng.random(6)
            p /= p.sum()
            q = rng.random(6)
            q /= q.sum()
            out = E.compare_distributions(p, q)
            assert 0.0 <= out["js_distance"] <= np.sqrt(np.log(2)) + 1e-12
            assert 0.0 <= out["l1"] <= 2.0


class TestProjectFeatures2d:
    def test_axis_aligned_data_recovered(self):
        # balanced product design: sample covariance exactly diagonal
        x = np.array([[a, b] for a in (-3.0, -1.0, 1.0, 3.0) for b in (-0.5, 0.5)])
        projected = E.project_features_2d(x)
        centered = x - x.mean(axis=0)
        for col in range(2):
            match = min(
                np.abs(projected[:, col] - centered[:, col]).max(),
                np.abs(projected[:, col] + centered[:, col]).max(),
            )
            assert match < 1e-6

    def test_component_variance_ordering(self):
        rng = np.random.default_rng(6)
        projected = E.project_features_2d(rng.normal(size=(40, 8)))
        assert projected[:, 0].var() >= projected[:, 1].var()

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 5))
        projected = E.project_features_2d(x)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (len(x) - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        reference = centered @ eigvecs[:, ::-1][:, :2]
        for col in range(2):
            match = min(
                np.abs(projected[:, col] - reference[:, col]).max(),
                np.abs(projected[:, col] + reference[:, col]).max(),
            )
            assert match < 1e-10

    def test_components_signed_by_largest_entry(self):
        # a balanced grid along two orthogonal directions, so the sample
        # covariance is exactly diag(var a, var b) in the (u, w) basis
        u, w = np.array([0.6, -0.8, 0.0]), np.array([-0.8, -0.6, 0.0])
        x = np.array([a * u + b * w for a in (-3.0, -1.0, 1.0, 3.0) for b in (-0.5, 0.5)])
        projected = E.project_features_2d(x)
        centered = x - x.mean(axis=0)
        # each direction flipped so its largest-magnitude entry is positive
        assert np.allclose(projected[:, 0], centered @ -u, rtol=0, atol=1e-10)
        assert np.allclose(projected[:, 1], centered @ -w, rtol=0, atol=1e-10)

    def test_single_column_warns_and_zeroes(self):
        x = np.random.default_rng(9).normal(size=(12, 1))
        with pytest.warns(UserWarning, match="second component"):
            projected = E.project_features_2d(x)
        assert np.array_equal(projected[:, 0], (x - x.mean()).ravel())
        assert np.array_equal(projected[:, 1], np.zeros(12))

    def test_rank_deficient_warns_and_zeroes(self):
        rng = np.random.default_rng(8)
        direction = np.array([1.0, 2.0, -0.5])
        x = np.outer(rng.normal(size=30), direction)
        with pytest.warns(UserWarning, match="second component"):
            projected = E.project_features_2d(x)
        assert np.array_equal(projected[:, 1], np.zeros(30))

    def test_needs_three_samples(self):
        with pytest.raises(UsageError):
            E.project_features_2d(np.ones((2, 4)))


def fake_report(method, degree, seed, accuracy, ablations=(), sampler="balanced"):
    return {
        "config": {"method": method, "seed": seed, "ablations": list(ablations),
                   "sampler": sampler, "data": {"shift": {"degree": degree}}},
        "metrics": {"final": {"per_class_mean_accuracy": accuracy, "overall_accuracy": accuracy}},
    }


# a real coal run's report with an ablation and a task, so that every config
# field the table reads is one of its leaves
REPORT = trainer.run_experiment(trainer.TrainConfig.from_dict({
    "method": "coal", "seed": 1, "epochs": 2, "pretrain_epochs": 1, "batch_size": 16,
    "ablations": ["disable-entropy-term"], "task": "t",
    "data": {"twin_gaussians": {"num_classes": 2, "per_class": 80, "noise": 0.4, "seed": 3},
             "shift": {"pareto_alpha": 1.0, "degree": 40.0, "budget": 120, "seed": 5}},
})).to_dict()
REPORT_PATHS = leaf_paths(REPORT)


class TestRenderTable:
    def test_single_report_single_row(self):
        table = E.render_table([fake_report("coal", 100.0, 1, 0.9)], "markdown")
        lines = table.strip().splitlines()
        assert len(lines) == 3  # header, rule, one data row
        assert "coal" in lines[2]
        assert "90.00" in lines[2]

    def test_csv_roundtrips(self):
        reports = [fake_report("coal", 0.0, 1, 0.93), fake_report("source-only", 0.0, 1, 0.86)]
        text = E.render_table(reports, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["method", "d=0%"]
        assert rows[1] == ["coal", "93.00"]
        assert rows[2] == ["source-only", "86.00"]

    def test_degree_sweep_columns_in_order(self):
        reports = [fake_report("coal", d, 1, 0.5) for d in (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)]
        text = E.render_table(reports, "csv")
        header = next(csv.reader(io.StringIO(text)))
        assert header == ["method", "d=0%", "d=20%", "d=40%", "d=60%", "d=80%", "d=100%"]

    def test_seeds_averaged(self):
        reports = [fake_report("coal", 0.0, s, a) for s, a in [(1, 0.8), (2, 0.9)]]
        text = E.render_table(reports, "csv")
        assert "85.00" in text

    def test_negative_zero_degree_is_degree_zero(self):
        reports = [fake_report("coal", d, s, a) for d, s, a in [(0.0, 1, 0.8), (-0.0, 2, 0.9)]]
        assert E.render_table(reports, "csv") == "method,d=0%\r\ncoal,85.00\r\n"

    def test_schema_mismatch(self):
        good = fake_report("coal", 0.0, 1, 0.9)
        bad = {"config": {"method": "x"}, "metrics": {"final": {"something_else": 1.0}}}
        with pytest.raises(FormatError,
                           match="^report 1: metrics final is missing per_class_mean_accuracy$"):
            E.render_table([good, bad], "markdown")
        # a coal report holds the estimate's distances, a source-only report does
        # not; the table reads only the accuracy, so both share one table
        good["metrics"]["final"].update(estimated_vs_true_js_distance=0.1, estimated_vs_true_l1=0.2)
        rows = E.render_table([good, fake_report("source-only", 0.0, 1, 0.8)], "csv").splitlines()
        assert rows == ["method,d=0%", "coal,90.00", "source-only,80.00"]

    def test_empty_reports(self):
        with pytest.raises(UsageError, match="^no reports to render$"):
            E.render_table([], "csv")

    def test_unknown_format_is_named(self):
        with pytest.raises(UsageError, match="^format must be csv or markdown, got 'html'$"):
            E.render_table([fake_report("coal", 0.0, 1, 0.9)], "html")

    @pytest.mark.parametrize("bad", [[1, 2], {"config": [1]}, {"metrics": "final"}])
    def test_non_mapping_report_names_its_index(self, bad):
        with pytest.raises(FormatError, match="^report 1"):
            E.render_table([fake_report("coal", 0.0, 1, 0.9), bad], "csv")

    def test_non_numeric_degree_names_its_index(self):
        reports = [fake_report("coal", 0.0, 1, 0.9), fake_report("coal", "50", 1, 0.9)]
        with pytest.raises(FormatError, match="^report 1: shift degree must be a finite number, got '50'$"):
            E.render_table(reports, "csv")

    @pytest.mark.parametrize("edit, named", [
        (lambda r: r["config"].update(data=[1]), "config data must be a mapping"),
        (lambda r: r["config"]["data"].update(shift=5), "config data shift must be a mapping"),
        (lambda r: r["config"].update(ablations=5), "config ablations must be a list of strings"),
        (lambda r: r["config"].update(ablations="ab"), "config ablations must be a list of strings"),
        (lambda r: r["config"].update(method=5), "config method must be a string"),
        (lambda r: r["metrics"].update(final=5), "metrics final must be a mapping"),
        (lambda r: r["metrics"]["final"].update(per_class_mean_accuracy="x"),
         "metrics final per_class_mean_accuracy must be a finite number"),
        (lambda r: r["metrics"]["final"].update(per_class_mean_accuracy=None),
         "metrics final per_class_mean_accuracy must be a finite number"),
        (lambda r: r.pop("config"), "is missing config"),
        (lambda r: r["config"].pop("method"), "config is missing method"),
    ], ids=["data", "shift", "ablations int", "ablations str", "method", "final",
            "accuracy str", "accuracy null", "no config", "no method"])
    def test_bad_field_names_its_index_and_field(self, edit, named):
        bad = fake_report("coal", 0.0, 1, 0.9)
        edit(bad)
        # a wrong value is shown after the field; a missing field ends the message
        with pytest.raises(FormatError, match=f"^report 1: {named}(, got |$)"):
            E.render_table([fake_report("coal", 0.0, 1, 0.9), bad], "csv")

    def test_named_task_and_natural_sampler_labels(self):
        named = fake_report("source-only", 0.0, 1, 0.7, sampler="natural")
        named["config"]["task"] = "A->B"
        no_shift = {"config": {"method": "coal"},
                    "metrics": {"final": {"per_class_mean_accuracy": 0.8, "overall_accuracy": 0.8}}}
        rows = list(csv.reader(io.StringIO(
            E.render_table([named, fake_report("coal", 0.0, 1, 0.9), no_shift], "csv"))))
        assert rows == [["method", "d=0%", "A->B", "task"],
                        ["coal", "90.00", "", "80.00"],
                        ["source-only [natural sampler]", "", "70.00", ""]]

    @settings(max_examples=300)
    @given(path=st.sampled_from(REPORT_PATHS), value=st.sampled_from(WRONG_VALUES))
    def test_a_wrong_leaf_renders_or_fails_with_a_package_error(self, path, value):
        """One leaf of a real report set to a wrong value either renders
        beside the real report or raises an error type of the package that
        names the report's index."""
        exc = runs_or_fails_with_a_package_error(
            lambda: E.render_table([REPORT, with_leaf(REPORT, path, value)], "csv"))
        assert exc is None or str(exc).startswith("report 1: "), exc
