import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coalign import data as D
from coalign import errors, evaluation, numerics
from coalign import model as M
from coalign.errors import ConsistencyError, FormatError, UsageError
from coalign.numerics import (
    ParamBlock,
    cross_entropy,
    linear_backward,
    linear_forward,
    sgd_momentum_step,
)
from coalign.selftrain import K_SCHEDULE_PRESETS
from coalign.trainer import ABLATION_FLAGS, METHODS, TrainConfig


class TestParetoProportions:
    def test_two_class_alpha_one(self):
        assert np.allclose(D.pareto_proportions(2, 1.0), [0.8, 0.2])

    def test_alpha_to_zero_ratio_two(self):
        props = D.pareto_proportions(5, 1e-9)
        assert props[0] / props[-1] == pytest.approx(2.0, rel=1e-6)

    def test_decreasing_and_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = int(rng.integers(2, 30))
            alpha = float(rng.uniform(0.05, 8.0))
            props = D.pareto_proportions(c, alpha)
            assert props.sum() == pytest.approx(1.0, abs=1e-12)
            assert (np.diff(props) < 0).all()


# the full long-tailed profile of a 100-sample shift, direction still to set
FULL_SHIFT = {"pareto_alpha": 1.0, "degree": 100.0, "budget": 100}


def balanced_pool(c, per_class, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(c * per_class, dim))
    labels = np.repeat(np.arange(c), per_class)
    return D.LabeledDataset(features, labels, c)


class TestBuildShift:
    def test_degree_zero_is_balanced(self):
        pool = balanced_pool(4, 200)
        shift = {"pareto_alpha": 1.0, "direction": D.DIRECTION_TARGET, "degree": 0.0, "budget": 402}
        counts = D.build_shift(pool, shift).class_counts()
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 402

    def test_full_shift_two_class_exact_counts(self):
        pool = balanced_pool(2, 200)
        ut = D.build_shift(pool, {**FULL_SHIFT, "direction": D.DIRECTION_TARGET})
        rs = D.build_shift(pool, {**FULL_SHIFT, "direction": D.DIRECTION_SOURCE})
        assert ut.class_counts().tolist() == [80, 20]
        assert rs.class_counts().tolist() == [20, 80]

    def test_budget_preserved_across_degrees(self):
        pool = balanced_pool(5, 400)
        for degree in (0.0, 20.0, 40.0, 60.0, 80.0, 100.0):
            shift = {"pareto_alpha": 1.5, "direction": D.DIRECTION_SOURCE, "degree": degree,
                     "budget": 777, "seed": 1}
            assert len(D.build_shift(pool, shift)) == 777

    def test_realized_distribution_within_rounding_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            c = int(rng.integers(2, 8))
            alpha = float(rng.uniform(0.2, 4.0))
            budget = int(rng.integers(50, 400))
            degree = float(rng.choice([0, 20, 40, 60, 80, 100]))
            direction = str(rng.choice([D.DIRECTION_SOURCE, D.DIRECTION_TARGET]))
            shift = {"pareto_alpha": alpha, "direction": direction, "degree": degree,
                     "budget": budget, "min_per_class": 0, "seed": 2}
            requested = D.shift_proportions(c, shift)
            if (np.floor(requested * budget) < 1).any():
                continue  # infeasible tiny classes; rounding floor would hit 0
            pool = balanced_pool(c, budget, seed=int(rng.integers(1e6)))
            realized = D.build_shift(pool, shift).class_counts() / budget
            # largest-remainder error: total variation at most c / (2 * budget)
            bound = np.sqrt(np.log(2) * min(1.0, c / (2.0 * budget)))
            assert evaluation.js_distance(realized, requested) <= bound

    @given(weights=st.lists(st.floats(0.001, 1.0), min_size=1, max_size=12),
           budget=st.integers(0, 10_000))
    def test_largest_remainder_sums_to_budget_within_one(self, weights, budget):
        proportions = np.asarray(weights) / np.sum(weights)
        counts = D.largest_remainder_counts(proportions, budget)
        assert counts.sum() == budget
        assert np.abs(counts - proportions * budget).max() <= 1.0

    def test_reversal_duality(self):
        for c in (2, 5, 9):
            ut = D.shift_proportions(c, {**FULL_SHIFT, "direction": D.DIRECTION_TARGET})
            rs = D.shift_proportions(c, {**FULL_SHIFT, "direction": D.DIRECTION_SOURCE})
            assert np.allclose(ut, rs[::-1])

    def test_monotone_js_in_degree(self):
        previous = -1.0
        for degree in (0.0, 20.0, 40.0, 60.0, 80.0, 100.0):
            shift = {**FULL_SHIFT, "degree": degree}
            rs = D.shift_proportions(4, {**shift, "direction": D.DIRECTION_SOURCE})
            ut = D.shift_proportions(4, {**shift, "direction": D.DIRECTION_TARGET})
            distance = evaluation.js_distance(rs, ut)
            assert distance >= previous - 1e-12
            previous = distance

    def test_insufficient_samples_names_class_and_shortfall(self):
        pool = balanced_pool(2, 50)
        with pytest.raises(UsageError, match="class 0.*shortfall 30"):
            D.build_shift(pool, {**FULL_SHIFT, "direction": D.DIRECTION_TARGET})

    def test_minimum_per_class_enforced(self):
        pool = balanced_pool(4, 500)
        shift = {"pareto_alpha": 8.0, "direction": D.DIRECTION_TARGET, "degree": 100.0,
                 "budget": 40, "min_per_class": 2}
        with pytest.raises(UsageError, match="minimum"):
            D.build_shift(pool, shift)

    def test_seeded_and_without_replacement(self):
        pool = balanced_pool(3, 100)
        shift = {"pareto_alpha": 1.0, "direction": D.DIRECTION_TARGET, "degree": 50.0,
                 "budget": 120, "seed": 5}
        a = D.build_shift(pool, shift)
        b = D.build_shift(pool, shift)
        assert np.array_equal(a.features, b.features)


class TestTwinDomains:
    def test_no_shift_matches_distribution(self):
        src, tgt = (D.generate_twin_domain(domain, 3, 400, 0.5, rotation_deg=0.0, seed=2)
                    for domain in ("source", "target"))
        for cls in range(3):
            sm = src.features[src.labels == cls].mean(axis=0)
            tm = tgt.features[tgt.labels == cls].mean(axis=0)
            assert np.abs(sm - tm).max() < 0.1

    def test_rotation_hurts_linear_probe(self):
        src, tgt = (D.generate_twin_domain(domain, 4, 300, 0.5, rotation_deg=30.0, seed=5)
                    for domain in ("source", "target"))
        w = ParamBlock("w", np.zeros((2, 4)))
        b = ParamBlock("b", np.zeros((1, 4)))
        for _ in range(400):
            _, dl = cross_entropy(numerics.softmax(linear_forward(src.features, w, b)), src.labels)
            linear_backward(dl, src.features, w, b)
            sgd_momentum_step([w, b], 0.1, 0.9)

        def accuracy(ds):
            return (linear_forward(ds.features, w, b).argmax(axis=1) == ds.labels).mean()

        assert accuracy(src) - accuracy(tgt) >= 0.05

    def test_reproducible(self):
        for domain in ("source", "target"):
            da, db = (D.generate_twin_domain(domain, 4, 50, 0.3, rotation_deg=15.0,
                                             translation=(0.5, -0.5), seed=9) for _ in range(2))
            assert np.array_equal(da.features, db.features)
            assert np.array_equal(da.labels, db.labels)

    def test_balanced_before_shift(self):
        src, tgt = (D.generate_twin_domain(domain, 5, 40, 0.3, seed=0)
                    for domain in ("source", "target"))
        assert (src.class_counts() == 40).all()
        assert (tgt.class_counts() == 40).all()

    def test_means_count_error_names_the_block(self):
        means = [[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]]
        recipe = {"kind": "twin-gaussians", "domain": "source",
                  "generator": {"num_classes": 4, "per_class": 5, "noise": 0.1, "means": means}}
        with pytest.raises(UsageError, match=r"^twin-gaussians generator means must .+, got "
                                             + re.escape(repr(means)) + "$"):
            D.materialize_dataset(recipe)


# small valid files for the byte-level fuzzes: three 2x2 images and their
# labels, and three CSV rows of two features
IDX_IMAGES = struct.pack(">IIII", D.IDX_IMAGES_MAGIC, 3, 2, 2) + bytes(range(0, 240, 20))
IDX_LABELS = struct.pack(">II", D.IDX_LABELS_MAGIC, 3) + bytes([0, 2, 1])
CSV_ROWS = b"x0,x1,label\n0.5,-1.25,0\n1.5,2,2\n-3,0.25,1\n"


def damaged(whole: bytes, promising: bytes):
    """The byte-level damage both file readers' fuzzes draw: ``whole``, a
    small valid file, cut short or with one to three of its bits flipped, or
    ``promising``, that file with a header that promises more than its body
    holds."""
    return st.one_of(
        st.integers(0, len(whole) - 1).map(lambda cut: whole[:cut]),
        st.sets(st.integers(0, 8 * len(whole) - 1), min_size=1, max_size=3).map(
            lambda bits: bytes(byte ^ sum(1 << bit % 8 for bit in bits if bit // 8 == at)
                               for at, byte in enumerate(whole))),
        st.just(promising))


def one_more_row(idx: bytes) -> bytes:
    """An IDX file whose header count, after the magic, is one more than its body holds."""
    return idx[:4] + struct.pack(">I", struct.unpack(">I", idx[4:8])[0] + 1) + idx[8:]


def loads_or_fails_with_a_package_error(load) -> None:
    try:
        load()
    except Exception as exc:  # the assertion is on the type
        assert type(exc).__module__ == errors.__name__, f"{type(exc).__name__}: {exc}"


def write_idx_fixture(tmp_path):
    """Two 28x28 images made by hand, labels 3 and 7."""
    images = tmp_path / "images.idx"
    labels = tmp_path / "labels.idx"
    pix = np.zeros((2, 28 * 28), dtype=np.uint8)
    pix[0, :10] = np.arange(10) * 25
    pix[1, -10:] = 255
    with open(images, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, 2, 28, 28))
        fh.write(pix.tobytes())
    with open(labels, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, 2))
        fh.write(bytes([3, 7]))
    return images, labels, pix


class TestIdx:
    def test_missing_file_is_named(self, tmp_path):
        images, labels, _ = write_idx_fixture(tmp_path)
        missing = tmp_path / "missing.idx"
        for pair in ((missing, labels), (images, missing)):
            with pytest.raises(FormatError, match=f"^cannot read {re.escape(str(missing))}: "):
                D.load_idx(*pair)

    def test_hand_crafted_fixture(self, tmp_path):
        images, labels, pix = write_idx_fixture(tmp_path)
        ds = D.load_idx(images, labels)
        assert ds.features.shape == (2, 784)
        assert ds.labels.tolist() == [3, 7]
        assert np.allclose(ds.features, pix / 255.0)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_wrong_magic(self, tmp_path):
        for corrupt in ("images", "labels"):
            images, labels, _ = write_idx_fixture(tmp_path)
            path = images if corrupt == "images" else labels
            raw = bytearray(path.read_bytes())
            raw[3] = 0x99
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: bad magic"):
                D.load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        images, labels, _ = write_idx_fixture(tmp_path)
        with open(labels, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 3))
            fh.write(bytes([3, 7, 1]))
        with pytest.raises(ConsistencyError):
            D.load_idx(images, labels)

    def test_truncated_file(self, tmp_path):
        images, labels, _ = write_idx_fixture(tmp_path)
        raw = images.read_bytes()
        images.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match=f"^{re.escape(str(images))}: {len(raw) - 5} bytes, "
                                              f"header promises {len(raw)}$"):
            D.load_idx(images, labels)

    def test_roundtrip_byte_exact(self, tmp_path):
        images, labels, _ = write_idx_fixture(tmp_path)
        ds = D.load_idx(images, labels)
        out_images = tmp_path / "out_images.idx"
        out_labels = tmp_path / "out_labels.idx"
        D.write_idx(ds, out_images, out_labels, 28, 28)
        assert out_images.read_bytes() == images.read_bytes()
        assert out_labels.read_bytes() == labels.read_bytes()
        # a value no byte holds fails naming its row instead of wrapping
        for feature, label, message in ((1.2, 7, "row 1, column 5 holds feature 1.2;"),
                                        (-0.1, 7, "row 1, column 5 holds feature -0.1;"),
                                        (np.nan, 7, "row 1, column 5 holds feature nan;"),
                                        (0.5, 300, "row 1 holds label 300;")):
            features = ds.features.copy()
            features[1, 5] = feature
            bad = D.LabeledDataset(features, [3, label], label + 1)
            with pytest.raises(UsageError, match=f"^{re.escape(message)}"):
                D.write_idx(bad, out_images, out_labels, 28, 28)
        with pytest.raises(UsageError, match="^27x28 grid does not match 784 features$"):
            D.write_idx(ds, out_images, out_labels, 27, 28)

    @settings(max_examples=25)
    @given(count=st.integers(1, 5), rows=st.integers(1, 3), cols=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_every_truncation_raises_length_error(self, count, rows, cols, seed):
        rng = np.random.default_rng(seed)
        dataset = D.LabeledDataset(rng.random((count, rows * cols)), rng.integers(0, 3, count), 3)
        with tempfile.TemporaryDirectory() as tmp:
            images, labels = Path(tmp, "images.idx"), Path(tmp, "labels.idx")
            D.write_idx(dataset, images, labels, rows, cols)
            D.load_idx(images, labels)
            for path in (images, labels):
                whole = path.read_bytes()
                for cut in range(len(whole)):
                    path.write_bytes(whole[:cut])
                    with pytest.raises(FormatError, match="header truncated|header promises"):
                        D.load_idx(images, labels)
                path.write_bytes(whole)

    @settings(max_examples=200)
    @given(files=st.one_of(
        damaged(IDX_IMAGES, one_more_row(IDX_IMAGES)).map(lambda raw: (raw, IDX_LABELS)),
        damaged(IDX_LABELS, one_more_row(IDX_LABELS)).map(lambda raw: (IDX_IMAGES, raw))))
    def test_a_damaged_file_loads_or_fails_with_a_package_error(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            paths = Path(tmp, "images.idx"), Path(tmp, "labels.idx")
            for path, raw in zip(paths, files):
                path.write_bytes(raw)
            loads_or_fails_with_a_package_error(lambda: D.load_idx(*paths))


class TestCsv:
    def test_load(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,label\n0.5,-1.25,0\n1.5,2.0,2\n")
        ds = D.load_csv(path)
        assert ds.num_classes == 3
        assert np.array_equal(ds.features, [[0.5, -1.25], [1.5, 2.0]])
        assert ds.features.flags.c_contiguous  # not a view of the whole table
        assert ds.labels.tolist() == [0, 2]

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_file_is_named(self, tmp_path, kind):
        path = tmp_path / "data.csv"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"x0,label\n\xff\xfe,0\n")
        with pytest.raises(FormatError, match=f"^cannot read {re.escape(str(path))}: "):
            D.load_csv(path)

    def test_non_integer_labels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,label\n0.5,0.7\n")
        with pytest.raises(FormatError):
            D.load_csv(path)

    def test_single_column_is_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label\n0\n1\n")
        with pytest.raises(FormatError, match="labels.csv"):
            D.load_csv(path)

    def test_ragged_row_is_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x0,label\n1.0,0\n2.0,3.0,1\n")
        with pytest.raises(FormatError, match="ragged.csv"):
            D.load_csv(path)

    def test_non_numeric_cell_is_rejected(self, tmp_path):
        path = tmp_path / "words.csv"
        path.write_text("x0,label\n1.0,0\nabc,1\n")
        with pytest.raises(FormatError, match=r"words.csv: data row 2, column 1"):
            D.load_csv(path)

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x0,x1,label\n0.5,1.5,1\n")
        ds = D.load_csv(path)
        assert ds.features.tolist() == [[0.5, 1.5]] and ds.labels.tolist() == [1]

    def test_negative_label_is_rejected(self, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text("x0,label\n0.5,-1\n")
        with pytest.raises(FormatError, match="negative.csv: final column"):
            D.load_csv(path)

    # float64 holds no exact integer from 2**53 on: 1e17 would give 10**17 + 1
    # classes and 1e300 a 301-digit class count
    @pytest.mark.parametrize("label", ["1e17", "1e300"])
    def test_label_beyond_exact_float64_integers_names_the_file(self, tmp_path, label):
        path = tmp_path / "huge.csv"
        path.write_text(f"x0,label\n0.5,0\n0.5,{label}\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: label "
                                              rf"{re.escape(repr(float(label)))} is not below 2\*\*53$"):
            D.load_csv(path)

    def test_largest_exact_label_sets_the_class_count(self, tmp_path):
        path = tmp_path / "top.csv"
        path.write_text(f"x0,label\n0.5,{2**53 - 1}\n")
        assert D.load_csv(path).num_classes == 2**53

    def test_header_only_names_the_missing_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x0,label\n")
        with pytest.raises(FormatError, match="header.csv: has no data rows"):
            D.load_csv(path)

    @settings(max_examples=25)
    @given(count=st.integers(1, 4), features=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_every_prefix_loads_fewer_rows_or_raises_format_error(self, count, features, seed):
        rng = np.random.default_rng(seed)
        header = ",".join([f"x{i}" for i in range(features)] + ["label"])
        rows = [",".join([f"{v:.6g}" for v in rng.normal(scale=100, size=features)]
                         + [str(int(rng.integers(0, 12)))]) for _ in range(count)]
        whole = "\n".join([header] + rows) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "prefix.csv")
            for cut in range(len(whole) + 1):
                path.write_text(whole[:cut])
                try:
                    ds = D.load_csv(path)
                except FormatError as exc:
                    assert "prefix.csv" in str(exc)
                    continue
                assert ds.features.shape[1] == features
                assert len(ds) <= count

    @settings(max_examples=200)
    # its promising twin's header names one more column than the rows hold
    @given(raw=damaged(CSV_ROWS, b"x," + CSV_ROWS))
    def test_a_damaged_file_loads_or_fails_with_a_package_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "rows.csv")
            path.write_bytes(raw)
            loads_or_fails_with_a_package_error(lambda: D.load_csv(path))


@pytest.mark.parametrize("features, labels, message", [
    (np.zeros(4), [0, 1, 0, 1], r"^features must be 2-D, got shape \(4,\)$"),
    (np.zeros((4, 2)), [0, 1, 0], "^3 labels for 4 feature rows$"),
    (np.zeros((4, 2)), [0, 1, 2, 1], r"^labels outside \[0, 2\)$"),
], ids=["features-1d", "label-count", "label-range"])
def test_bad_dataset_names_the_field(features, labels, message):
    with pytest.raises(UsageError, match=message):
        D.LabeledDataset(features, labels, 2)


@pytest.mark.parametrize("num_classes, rows", [("2", 2), (2.5, 2), (0, 0)],
                         ids=["text", "fraction", "zero"])
def test_bad_num_classes_is_named(num_classes, rows):
    with pytest.raises(UsageError,
                       match=f"^num_classes must be a positive integer, got {num_classes!r}$"):
        D.LabeledDataset(np.zeros((rows, 2)), [0, 1][:rows], num_classes)


@pytest.mark.parametrize("sampler", [D.balanced_batches, D.natural_batches])
@pytest.mark.parametrize("batch_size", [0, -4])
def test_bad_batch_size_is_named(sampler, batch_size):
    with pytest.raises(UsageError, match=f"^batch_size must be a positive integer, got {batch_size}$"):
        sampler(balanced_pool(2, 10), batch_size, seed=0)


class TestBalancedBatches:
    def test_divisible_batch(self):
        pool = balanced_pool(4, 40)
        for batch in D.balanced_batches(pool, 16, seed=0):
            counts = np.bincount(pool.labels[batch], minlength=4)
            assert (counts == 4).all()

    def test_remainder_rotates(self):
        pool = balanced_pool(4, 40)
        for batch in D.balanced_batches(pool, 10, seed=0):
            counts = np.bincount(pool.labels[batch], minlength=4)
            assert sorted(counts.tolist()) == [2, 2, 3, 3]

    def test_fairness_under_imbalance(self):
        rng = np.random.default_rng(3)
        labels = np.concatenate([np.zeros(320, dtype=int), np.ones(80, dtype=int)])
        pool = D.LabeledDataset(rng.normal(size=(400, 2)), labels, 2)
        drawn = np.zeros(2)
        for batch in D.balanced_batches(pool, 16, seed=1):
            drawn += np.bincount(pool.labels[batch], minlength=2)
        assert drawn.max() / drawn.min() <= 1.1

    def test_empty_class_raises(self):
        pool = D.LabeledDataset(np.zeros((4, 2)), np.zeros(4, dtype=int), num_classes=2)
        with pytest.raises(UsageError, match="class 1"):
            D.balanced_batches(pool, 4, seed=0)

    @given(sizes=st.lists(st.integers(1, 30), min_size=1, max_size=6),
           batch_size=st.integers(1, 40), seed=st.integers(0, 2**16))
    def test_members_of_a_class_are_drawn_evenly(self, sizes, batch_size, seed):
        # a class reshuffles only once all its members were drawn, so in one
        # epoch each member is drawn floor(t/n) or ceil(t/n) times, where t
        # counts the draws from the class and n its size
        labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(sizes)), sizes))
        pool = D.LabeledDataset(np.zeros((len(labels), 1)), labels, len(sizes))
        drawn = np.bincount(np.concatenate(D.balanced_batches(pool, batch_size, seed)),
                            minlength=len(labels))
        for cls, n in enumerate(sizes):
            counts = drawn[labels == cls]
            t = int(counts.sum())
            assert set(counts.tolist()) <= {t // n, -(-t // n)}


class TestNaturalBatches:
    def test_partition(self):
        pool = balanced_pool(3, 25)
        batches = D.natural_batches(pool, 8, seed=0)
        joined = np.concatenate(batches)
        assert len(joined) == len(pool)
        assert len(set(joined.tolist())) == len(pool)

    def test_class_frequencies_match_dataset(self):
        pool = balanced_pool(3, 20)
        batches = D.natural_batches(pool, 7, seed=0)
        counts = np.bincount(pool.labels[np.concatenate(batches)], minlength=3)
        assert np.array_equal(counts, pool.class_counts())

    def test_two_seeds_same_multiset(self):
        pool = balanced_pool(2, 30)
        a = np.concatenate(D.natural_batches(pool, 9, seed=0))
        b = np.concatenate(D.natural_batches(pool, 9, seed=1))
        assert not np.array_equal(a, b)
        assert np.array_equal(np.sort(a), np.sort(b))


TWIN_GENERATOR = {"num_classes": 3, "per_class": 60, "noise": 0.4, "seed": 4}
TWIN_SHIFT = {"pareto_alpha": 1.0, "direction": D.DIRECTION_TARGET, "degree": 60.0, "budget": 120}


class TestSplitAndManifest:
    def test_stratified_split(self):
        pool = balanced_pool(4, 50)
        split = {"holdout_fraction": 0.2, "seed": 0}
        train = D.take_split(pool, {**split, "part": "train"})
        hold = D.take_split(pool, {**split, "part": "holdout"})
        assert len(train) + len(hold) == len(pool)
        assert (hold.class_counts() == 10).all()
        again_train = D.take_split(pool, {**split, "part": "train"})
        assert np.array_equal(train.features, again_train.features)
        # both parts keep every class, so a class of one sample cannot be split
        lone = pool.subset(np.r_[0:51, 100:200])
        with pytest.raises(UsageError, match="^class 1 has 1 samples; cannot split$"):
            D.take_split(lone, {**split, "part": "train"})

    def test_manifest_recipe_roundtrip(self, tmp_path):
        import json

        recipe = {
            "kind": "twin-gaussians",
            "domain": "target",
            "generator": {"num_classes": 3, "per_class": 60, "noise": 0.4,
                          "rotation_deg": 20.0, "translation": [0.1, 0.2],
                          "radius": 2.0, "seed": 4},
            "shift": {"pareto_alpha": 1.0, "direction": D.DIRECTION_TARGET,
                      "degree": 60.0, "budget": 120, "min_per_class": 2, "seed": 8},
        }
        ds = D.materialize_dataset(recipe)
        path = tmp_path / "manifest.json"
        D.write_manifest(ds, path, recipe)
        doc = json.loads(path.read_text())
        rebuilt = D.materialize_dataset(doc["recipe"])
        assert D.dataset_fingerprint(rebuilt) == doc["sha256"]
        assert doc["per_class_counts"] == ds.class_counts().tolist()

    def test_manifest_holds_the_recipe_and_what_verifies_it(self, tmp_path):
        recipe = {"kind": "twin-gaussians", "domain": "target", "generator": TWIN_GENERATOR,
                  "shift": TWIN_SHIFT}
        D.write_manifest(D.materialize_dataset(recipe), tmp_path / "manifest.json", recipe)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(doc) == ["num_classes", "per_class_counts", "recipe", "sha256", "total"]

    @pytest.mark.parametrize("kind", ["csv", "idx"])
    def test_file_recipe_applies_its_shift_then_its_split(self, file_recipes, kind):
        recipe = file_recipes[kind]
        shift = {"pareto_alpha": 1.0, "direction": D.DIRECTION_TARGET, "degree": 100.0,
                 "budget": 60, "seed": 2}
        split = {"holdout_fraction": 0.25, "seed": 3, "part": "holdout"}
        got = D.materialize_dataset({**recipe, "shift": shift, "split": split})

        base = D.load_csv(recipe["path"]) if kind == "csv" else D.load_idx(recipe["images"],
                                                                           recipe["labels"])
        shifted = D.build_shift(base, shift)
        assert np.array_equal(shifted.class_counts(),
                              D.largest_remainder_counts(D.shift_proportions(3, shift), 60))
        holdout = D.take_split(shifted, split)
        assert D.dataset_fingerprint(got) == D.dataset_fingerprint(holdout)

    def test_unknown_recipe_kind(self):
        with pytest.raises(UsageError):
            D.materialize_dataset({"kind": "parquet"})

    @pytest.mark.parametrize("recipe, names", [
        ({"kind": "twin-gaussians", "domain": "target",
          "generator": {"num_classes": 3, "noise": 0.4}}, "per_class"),
        ({"kind": "twin-gaussians", "domain": "target"}, "generator"),
        ({"kind": "twin-gaussians", "generator": TWIN_GENERATOR}, "domain"),
        ({"kind": "twin-gaussians", "domain": "sauce", "generator": TWIN_GENERATOR}, "sauce"),
        ({"kind": "twin-gaussians", "domain": "target", "generator": TWIN_GENERATOR,
          "shift": {"direction": D.DIRECTION_TARGET, "degree": 60.0, "budget": 120}},
         "pareto_alpha"),
        ({"kind": "idx", "labels": "labels.idx"}, "images"),
        ({"kind": "csv"}, "path"),
        *[({"kind": "twin-gaussians", "domain": "target",
            "generator": {**TWIN_GENERATOR, key: value}}, f"generator {key}")
          for key, value in (("num_classes", "4"), ("per_class", -5), ("noise", "x"),
                             ("seed", 1.5))],
        *[({"kind": "twin-gaussians", "domain": "target", "generator": TWIN_GENERATOR,
            "shift": {**TWIN_SHIFT, key: value}}, f"shift block {key}")
          for key, value in (("degree", "50"), ("budget", 100.5), ("pareto_alpha", None),
                             ("seed", -1))],
        *[({"kind": "twin-gaussians", "domain": "target", "generator": TWIN_GENERATOR,
            "split": {"holdout_fraction": 0.2, "seed": 3, "part": "train", key: value}},
           f"split block {key}")
          for key, value in (("holdout_fraction", "0.2"), ("seed", -1), ("seed", [1, "2"]))],
        ({"kind": "twin-gaussians", "domain": "target",
          "generator": {**TWIN_GENERATOR, "rotaton_deg": 30}}, "rotaton_deg"),
        ({"kind": "twin-gaussians", "domain": "target", "generator": TWIN_GENERATOR,
          "shfit": TWIN_SHIFT}, "shfit"),
        ({"kind": "twin-gaussians", "domain": "target", "generator": TWIN_GENERATOR,
          "shift": {**TWIN_SHIFT, "degre": 50.0}}, "degre"),
        ({"kind": "twin-gaussians", "domain": "target", "generator": TWIN_GENERATOR,
          "split": {"holdout_fraction": 0.2, "seed": 3, "part": "train", "prat": "x"}}, "prat"),
        ({"kind": "csv", "path": "data.csv", "domain": "target"}, "domain"),
        *[({"kind": "twin-gaussians", "domain": "target",
            "generator": {**TWIN_GENERATOR, key: value}}, f"generator {key}")
          for key, value in (("translation", 5), ("translation", "x"), ("translation", ["a", "b"]),
                             ("translation", [1.0, 2.0, 3.0]), ("translation", [float("nan"), 0.0]),
                             ("means", "x"), ("means", [[1, "a"], [2, 3], [0, 0]]),
                             ("means", [[float("nan"), 0.0], [2.0, 0.0], [0.0, 2.0]]))],
        # an empty block is applied like any other, so it names its missing keys
        ({"kind": "twin-gaussians", "domain": "target", "generator": TWIN_GENERATOR, "shift": {}},
         "^shift block is missing pareto_alpha, direction, degree, budget$"),
        ({"kind": "twin-gaussians", "domain": "target", "generator": TWIN_GENERATOR, "split": {}},
         "^split block is missing holdout_fraction, part, seed$"),
        # an int beyond float range is not a finite number
        ({"kind": "twin-gaussians", "domain": "target",
          "generator": {**TWIN_GENERATOR, "noise": 10**400}},
         "generator noise must be a finite nonnegative number"),
    ])
    def test_bad_recipe_names_the_field(self, recipe, names):
        with pytest.raises(UsageError, match=names):
            D.materialize_dataset(recipe)


class TestRequire:
    def test_names_every_missing_and_unknown_key(self):
        with pytest.raises(ConsistencyError,
                           match=r"^block is missing a, c and has unknown keys \['d', 'e'\]$"):
            D.require({"b": 1, "d": 2, "e": 3}, "block ", ("a", "b", "c"), ConsistencyError,
                      known=("a", "b", "c"))

    @pytest.mark.parametrize("section", [5, [1], "a"])
    def test_a_section_that_is_not_a_mapping_is_named(self, section):
        # a list or a string answers ``in`` and would read as missing keys
        with pytest.raises(ConsistencyError,
                           match=rf"^block must be a mapping, got {re.escape(repr(section))}$"):
            D.require(section, "block ", ("a",), ConsistencyError, known=("a",))


# a value of any JSON type; each property keeps only the values that the
# field's rule rejects, so most of them have the wrong type
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
    st.text(max_size=3), st.lists(st.integers(-1, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
# the rule each boundary applies to each field, as (predicate, rule text);
# only the predicate is used here, the message is matched by its form
CONFIG_RULES = {
    "seed": D.NONNEGATIVE_INT, "batch_size": D.POSITIVE_INT, "epochs": D.NONNEGATIVE_INT,
    "pretrain_epochs": D.NONNEGATIVE_INT, "lr_head": D.NONNEGATIVE_REAL,
    "lr_backbone": D.NONNEGATIVE_REAL, "alpha": D.NONNEGATIVE_REAL,
    "grl_lambda": D.NONNEGATIVE_REAL, "temperature": D.POSITIVE_REAL,
    "holdout_fraction": D.FRACTION, "hidden_dims": D.WIDTHS, "data": D.MAPPING,
    "out_dir": D.OPTIONAL_STR, "task": D.OPTIONAL_STR,
    "momentum": (lambda v: D.NONNEGATIVE_REAL[0](v) and v < 1, ""),
    "ablations": (lambda v: isinstance(v, (list, tuple)) and all(f in ABLATION_FLAGS for f in v)
                  and len(set(v)) == len(v), ""),
    "k_schedule": (lambda v: isinstance(v, dict) or v in tuple(K_SCHEDULE_PRESETS), ""),
    "dump_pseudo": (lambda v: isinstance(v, bool), ""),
    "method": (lambda v: v in METHODS, ""),
    "sampler": (lambda v: v in ("balanced", "natural"), ""),
}
K_SCHEDULE_RULES = {"k0": D.PERCENT, "k_step": D.NONNEGATIVE_REAL, "k_max": D.PERCENT}
RECIPE_RULES = {
    **{("generator", key): rule for key, rule in (
        ("num_classes", D.POSITIVE_INT), ("per_class", D.POSITIVE_INT),
        ("noise", D.NONNEGATIVE_REAL), ("rotation_deg", D.REAL), ("radius", D.REAL),
        ("seed", D.NONNEGATIVE_INT), ("translation", D.REAL_PAIR), ("means", D.REAL_PAIRS))},
    **{("shift", key): rule for key, rule in (
        ("pareto_alpha", D.POSITIVE_REAL), ("degree", D.PERCENT), ("budget", D.POSITIVE_INT),
        ("min_per_class", D.NONNEGATIVE_INT), ("seed", D.SEED),
        ("direction", (lambda v: v in (D.DIRECTION_SOURCE, D.DIRECTION_TARGET), "")))},
    **{("split", key): rule for key, rule in (
        ("holdout_fraction", D.FRACTION), ("seed", D.SEED),
        ("part", (lambda v: v in D.SPLIT_PARTS, "")))},
}
BLOCK_NAMES = {"generator": "twin-gaussians generator ", "shift": "shift block ",
               "split": "split block "}
# the recipe's own fields, keyed (kind, key): file paths are strings, and a
# shift or split block is a mapping or null
RECIPE_FIELD_RULES = {
    **{field: (lambda v: isinstance(v, str))
       for field in (("csv", "path"), ("idx", "images"), ("idx", "labels"))},
    **{("twin-gaussians", key): (lambda v: v is None or isinstance(v, dict))
       for key in ("shift", "split")},
}
BASE_RECIPES = {"csv": {"kind": "csv", "path": "rows.csv"},
                "idx": {"kind": "idx", "images": "images.idx", "labels": "labels.idx"},
                "twin-gaussians": {"kind": "twin-gaussians", "domain": "target",
                                   "generator": TWIN_GENERATOR}}
HEADER_RULES = {
    "temperature": D.POSITIVE_REAL, "input_dim": D.POSITIVE_INT, "hidden_dims": D.WIDTHS,
    "num_classes": D.POSITIVE_INT, "arena": (lambda v: isinstance(v, list), ""),
}


def names_field(prefix: str, key: str, value) -> str:
    """The pattern of the one message form: "{name}{key} must {rule}, got {value!r}"."""
    return f"^{re.escape(prefix + key)} must .+, got {re.escape(repr(value))}$"


class TestRulesRejectWrongTypes:
    @given(field=st.sampled_from(sorted(CONFIG_RULES)), value=JSON_VALUES)
    def test_config_field(self, field, value):
        assume(not CONFIG_RULES[field][0](value))
        with pytest.raises(UsageError, match=names_field("", field, value)):
            TrainConfig(**{field: value})

    @given(key=st.sampled_from(sorted(K_SCHEDULE_RULES)), value=JSON_VALUES)
    def test_k_schedule_key(self, key, value):
        assume(not K_SCHEDULE_RULES[key][0](value))
        with pytest.raises(UsageError, match=names_field("k_schedule ", key, value)):
            TrainConfig(k_schedule={key: value})

    @given(field=st.sampled_from(sorted(RECIPE_RULES)), value=JSON_VALUES)
    @example(field=("shift", "pareto_alpha"), value=float("nan"))
    @example(field=("generator", "num_classes"), value="4")
    def test_recipe_block_field(self, field, value):
        assume(not RECIPE_RULES[field][0](value))
        block, key = field
        recipe = {"kind": "twin-gaussians", "domain": "target", "generator": TWIN_GENERATOR,
                  "shift": TWIN_SHIFT,
                  "split": {"holdout_fraction": 0.2, "seed": 3, "part": "train"}}
        recipe[block] = {**recipe[block], key: value}
        with pytest.raises(UsageError, match=names_field(BLOCK_NAMES[block], key, value)):
            D.materialize_dataset(recipe)
        # the function that uses a block checks it the same way when called directly
        use = {"shift": D.build_shift, "split": D.take_split}.get(block)
        if use is not None:
            with pytest.raises(UsageError, match=names_field(BLOCK_NAMES[block], key, value)):
                use(balanced_pool(3, 60), recipe[block])
        # and pareto_proportions checks the class count and the alpha it is given
        args = {("generator", "num_classes"): ("num_classes", (value, 1.0)),
                ("shift", "pareto_alpha"): ("alpha", (3, value))}.get(field)
        if args is not None:
            with pytest.raises(UsageError, match=names_field("", args[0], value)):
                D.pareto_proportions(*args[1])

    @given(field=st.sampled_from(sorted(RECIPE_FIELD_RULES)), value=JSON_VALUES)
    @example(field=("csv", "path"), value=5)
    @example(field=("idx", "images"), value=None)
    @example(field=("twin-gaussians", "shift"), value=[])
    @example(field=("twin-gaussians", "split"), value=False)
    def test_recipe_field(self, field, value):
        assume(not RECIPE_FIELD_RULES[field](value))
        kind, key = field
        with pytest.raises(UsageError, match=names_field(f"{kind} recipe ", key, value)):
            D.materialize_dataset({**BASE_RECIPES[kind], key: value})

    @given(key=st.sampled_from(sorted(HEADER_RULES)), value=JSON_VALUES)
    def test_checkpoint_header_field(self, key, value):
        assume(not HEADER_RULES[key][0](value))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            M.save_checkpoint(M.init_model(2, (4,), 2, seed=0), path)
            doc = json.loads(path.read_text())
            doc[key] = value
            path.write_text(json.dumps(doc))
            with pytest.raises(FormatError, match=names_field(f"checkpoint {path}: ", key, value)):
                M.load_checkpoint(path)
