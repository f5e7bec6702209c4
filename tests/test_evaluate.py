import numpy as np
import pytest

from palmwatch.errors import (
    DegenerateDataError,
    LabelError,
    ParameterError,
    ShapeError,
)
from palmwatch.evaluate import (
    ConfusionMatrix,
    confusion_matrix,
    f1_score,
    metrics,
    pearson,
    prune_features,
    report_rows,
    split_dataset,
    write_metrics_csv,
    write_metrics_json,
)


class TestSplit:
    def test_published_split_arithmetic(self):
        split = split_dataset(range(4682), 0.8, seed=0)
        assert len(split.train_ids) == 3745
        assert len(split.test_ids) == 937

    def test_small_exact(self):
        split = split_dataset(range(10), 0.8, seed=1)
        assert (len(split.train_ids), len(split.test_ids)) == (8, 2)

    def test_partition_exact(self):
        ids = [f"crown_{i}" for i in range(101)]
        split = split_dataset(ids, 0.8, seed=3)
        assert set(split.train_ids) | set(split.test_ids) == set(ids)
        assert not set(split.train_ids) & set(split.test_ids)

    def test_same_seed_identical(self):
        a = split_dataset(range(500), 0.7, seed=42)
        b = split_dataset(range(500), 0.7, seed=42)
        assert a.train_ids == b.train_ids and a.test_ids == b.test_ids

    def test_different_seeds_differ(self):
        a = split_dataset(range(500), 0.7, seed=1)
        b = split_dataset(range(500), 0.7, seed=2)
        assert a.train_ids != b.train_ids

    def test_too_few_ids(self):
        with pytest.raises(DegenerateDataError):
            split_dataset([1], 0.8, seed=0)

    def test_ratio_range(self):
        with pytest.raises(ParameterError):
            split_dataset(range(10), 1.0, seed=0)


class TestConfusionMatrix:
    def test_diagonal_when_equal(self):
        labels = ["a", "b", "a", "c", "b"]
        cm = confusion_matrix(labels, labels, ("a", "b", "c"))
        np.testing.assert_array_equal(cm.counts, np.diag([2, 2, 1]))

    def test_binary_quadrants(self):
        # rows = actual, columns = predicted, ordered (negative, positive):
        # [[TN, FP], [FN, TP]]
        actual = ["neg"] * 7 + ["pos"] * 3
        predicted = ["neg", "neg", "neg", "neg", "neg", "neg", "pos", "pos", "pos", "neg"]
        cm = confusion_matrix(actual, predicted, ("neg", "pos"))
        tn, fp = cm.counts[0]
        fn, tp = cm.counts[1]
        assert (tn, fp, fn, tp) == (6, 1, 1, 2)

    def test_row_sums_are_actual_counts(self, rng):
        classes = ("x", "y", "z")
        actual = [classes[i] for i in rng.integers(0, 3, size=200)]
        predicted = [classes[i] for i in rng.integers(0, 3, size=200)]
        cm = confusion_matrix(actual, predicted, classes)
        for i, label in enumerate(classes):
            assert cm.counts[i].sum() == actual.count(label)
        assert cm.total == 200

    def test_unknown_label(self):
        with pytest.raises(LabelError, match="mystery"):
            confusion_matrix(["a", "mystery"], ["a", "a"], ("a", "b"))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion_matrix(["a"], ["a", "b"], ("a", "b"))

    def test_format_orientation(self):
        cm = confusion_matrix(["a", "a", "b"], ["a", "b", "b"], ("a", "b"))
        text = cm.format()
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert lines[1].split() == ["a", "1", "1"]
        assert lines[2].split() == ["b", "0", "1"]


class TestMetrics:
    def test_published_headline_harmonic_mean(self):
        # table-printed precision/recall recombine to 0.9478, a 7e-4 gap
        # to the table's own printed F1 (rounded upstream)
        f1 = f1_score(0.9551, 0.9406)
        assert f1 == pytest.approx(0.9478, abs=5e-4)
        assert abs(f1 - 0.9471) < 1e-3

    def test_perfect_diagonal_all_ones(self):
        cm = ConfusionMatrix(("a", "b", "c"), np.diag([5, 3, 2]))
        report = metrics(cm)
        assert report.accuracy == 1.0
        for m in report.per_class:
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert report.macro.f1 == report.micro.f1 == report.weighted.f1 == 1.0

    def test_binary_hand_values(self):
        # TP=2, FP=1, FN=1, TN=6 in the (neg, pos) layout
        cm = ConfusionMatrix(("neg", "pos"), np.array([[6, 1], [1, 2]]))
        report = metrics(cm)
        pos = report.per_class[1]
        assert pos.precision == pytest.approx(2 / 3)
        assert pos.recall == pytest.approx(2 / 3)
        assert report.accuracy == pytest.approx(0.8)

    def test_micro_equals_accuracy(self, rng):
        counts = rng.integers(0, 30, size=(4, 4))
        counts[0, 0] += 1  # non-empty
        cm = ConfusionMatrix(("a", "b", "c", "d"), counts)
        report = metrics(cm)
        assert abs(report.micro.precision - report.accuracy) < 1e-12
        assert abs(report.micro.recall - report.accuracy) < 1e-12
        assert abs(report.micro.f1 - report.accuracy) < 1e-12

    def test_per_class_f1_is_harmonic_mean(self, rng):
        counts = rng.integers(1, 40, size=(3, 3))
        cm = ConfusionMatrix(("a", "b", "c"), counts)
        report = metrics(cm)
        for m in report.per_class:
            if m.precision > 0 and m.recall > 0:
                assert m.f1 == pytest.approx(
                    2 * m.precision * m.recall / (m.precision + m.recall), rel=1e-12
                )

    def test_zero_denominator_flagged_as_zero(self):
        # class "b" never predicted and never actual -> all denominators zero
        cm = ConfusionMatrix(("a", "b"), np.array([[4, 0], [0, 0]]))
        report = metrics(cm)
        b = report.per_class[1]
        assert (b.precision, b.recall, b.f1) == (0.0, 0.0, 0.0)
        assert b.precision_undefined and b.recall_undefined and b.f1_undefined
        a = report.per_class[0]
        assert not a.precision_undefined

    def test_weighted_aggregate(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[8, 2], [0, 0]]))
        report = metrics(cm)
        # support 10 and 0: weighted == class-a metrics
        assert report.weighted.recall == pytest.approx(report.per_class[0].recall)

    def test_empty_matrix_rejected(self):
        cm = ConfusionMatrix(("a", "b"), np.zeros((2, 2), dtype=int))
        with pytest.raises(DegenerateDataError):
            metrics(cm)

    def test_report_rows_layout(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[3, 1], [2, 4]]))
        rows = report_rows(metrics(cm))
        labels = [r[0] for r in rows]
        assert labels == ["label", "a", "b", "macro", "micro", "weighted", "accuracy"]


# "smallish" is never predicted and "dead" is never actual, so every
# undefined flag shows up in the files
PINNED_COUNTS = [[6, 0, 2], [3, 0, 1], [0, 0, 0]]
PINNED_CSV = (
    "label,precision,recall,f1,support,flags\r\n"
    "healthy,0.6666666666666666,0.75,0.7058823529411765,8,\r\n"
    "smallish,0.0,0.0,0.0,4,precision_undefined;f1_undefined\r\n"
    "dead,0.0,0.0,0.0,0,recall_undefined;f1_undefined\r\n"
    "macro,0.2222222222222222,0.25,0.23529411764705885,12,\r\n"
    "micro,0.5,0.5,0.5,12,\r\n"
    "weighted,0.4444444444444444,0.5,0.47058823529411764,12,\r\n"
    "accuracy,0.5,,,12,\r\n"
)
PINNED_JSON = """{
  "accuracy": 0.5,
  "per_class": [
    {
      "label": "healthy",
      "support": 8,
      "precision": 0.6666666666666666,
      "recall": 0.75,
      "f1": 0.7058823529411765,
      "precision_undefined": false,
      "recall_undefined": false,
      "f1_undefined": false
    },
    {
      "label": "smallish",
      "support": 4,
      "precision": 0.0,
      "recall": 0.0,
      "f1": 0.0,
      "precision_undefined": true,
      "recall_undefined": false,
      "f1_undefined": true
    },
    {
      "label": "dead",
      "support": 0,
      "precision": 0.0,
      "recall": 0.0,
      "f1": 0.0,
      "precision_undefined": false,
      "recall_undefined": true,
      "f1_undefined": true
    }
  ],
  "macro": {
    "precision": 0.2222222222222222,
    "recall": 0.25,
    "f1": 0.23529411764705885
  },
  "micro": {
    "precision": 0.5,
    "recall": 0.5,
    "f1": 0.5
  },
  "weighted": {
    "precision": 0.4444444444444444,
    "recall": 0.5,
    "f1": 0.47058823529411764
  }
}
"""


class TestReportFiles:
    @pytest.fixture
    def report(self):
        cm = ConfusionMatrix(("healthy", "smallish", "dead"), np.array(PINNED_COUNTS))
        return metrics(cm)

    def test_csv_bytes_pinned(self, report, tmp_path):
        write_metrics_csv(report, tmp_path / "metrics.csv")
        assert (tmp_path / "metrics.csv").read_bytes() == PINNED_CSV.encode()

    def test_json_bytes_pinned(self, report, tmp_path):
        write_metrics_json(report, tmp_path / "metrics.json")
        assert (tmp_path / "metrics.json").read_bytes() == PINNED_JSON.encode()


class TestPearson:
    def test_self_correlation(self, rng):
        x = rng.normal(size=100)
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self, rng):
        x = rng.normal(size=100)
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_affine_invariance(self, rng):
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        r = pearson(x, y)
        assert pearson(3.5 * x + 2.0, y) == pytest.approx(r, abs=1e-12)
        assert pearson(-2.0 * x + 1.0, y) == pytest.approx(-r, abs=1e-12)

    def test_symmetric(self, rng):
        x = rng.normal(size=64)
        y = rng.normal(size=64)
        assert pearson(x, y) == pearson(y, x)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateDataError):
            pearson(np.ones(10), np.arange(10.0))

    def test_too_short(self):
        with pytest.raises(DegenerateDataError):
            pearson([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestPruneFeatures:
    def test_response_copy_retained_with_r_one(self, rng):
        response = rng.normal(size=200)
        kept = prune_features({"copy": response.copy()}, response)
        assert len(kept) == 1
        name, r = kept[0]
        assert name == "copy"
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_constant_feature_dropped(self, rng):
        response = rng.normal(size=50)
        kept = prune_features({"const": np.ones(50), "ok": response * 2}, response)
        assert [name for name, _ in kept] == ["ok"]

    def test_noise_dropped_with_tolerance(self):
        rng = np.random.default_rng(123)
        response = rng.normal(size=10_000)
        noise = rng.normal(size=10_000)
        kept = prune_features({"noise": noise}, response, tolerance=0.05)
        assert kept == []

    def test_zero_tolerance_keeps_weak_features(self, rng):
        response = rng.normal(size=1000)
        weak = response * 0.01 + rng.normal(size=1000)
        kept = prune_features({"weak": weak}, response, tolerance=0.0)
        assert len(kept) == 1

    def test_degenerate_response_rejected(self):
        with pytest.raises(DegenerateDataError):
            prune_features({"f": np.arange(5.0)}, np.ones(5))
