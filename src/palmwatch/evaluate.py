"""Dataset splitting, confusion matrices, classification metrics and
Pearson-based feature pruning.

Metric conventions: per-class precision/recall/F1 are one-vs-rest;
accuracy is trace/total. Per-class values with a zero denominator are
reported as 0 and flagged rather than omitted, which keeps aggregates
comparable across runs. A report always holds one ``Aggregate``
(precision, recall, F1) for each of ``AVERAGING_MODES``, and the CSV
and JSON writers emit the modes in that order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateDataError, LabelError, ParameterError, ShapeError


@dataclass(frozen=True)
class DatasetSplit:
    train_ids: tuple
    test_ids: tuple
    ratio: float
    seed: int


def split_dataset(ids: Sequence, ratio: float, seed: int) -> DatasetSplit:
    """Seeded uniform shuffle; the first floor(ratio * N) ids go to train.

    The two sides always partition ``ids`` exactly and the same seed
    always produces the same split.
    """
    if not 0 < ratio < 1:
        raise ParameterError(f"split ratio must be in (0, 1), got {ratio}")
    ids = list(ids)
    n = len(ids)
    if n < 2:
        raise DegenerateDataError(f"cannot split {n} ids; need at least 2")
    perm = np.random.default_rng(seed).permutation(n)
    k = math.floor(ratio * n)
    train = tuple(ids[i] for i in perm[:k])
    test = tuple(ids[i] for i in perm[k:])
    return DatasetSplit(train_ids=train, test_ids=test, ratio=ratio, seed=seed)


@dataclass(frozen=True)
class ConfusionMatrix:
    """N x N counts; rows are actual classes, columns predicted."""

    classes: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64, copy=True)
        n = len(self.classes)
        if counts.shape != (n, n):
            raise ShapeError(f"counts must be {n}x{n}, got {counts.shape}")
        if (counts < 0).any():
            raise ShapeError("confusion counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def format(self) -> str:
        """Plain-text table, rows = actual, columns = predicted."""
        width = max(len(c) for c in self.classes) + 2
        width = max(width, len(str(self.counts.max() if self.total else 0)) + 2)
        header = " " * width + "".join(f"{c:>{width}}" for c in self.classes)
        lines = [header]
        for label, row in zip(self.classes, self.counts):
            lines.append(f"{label:>{width}}" + "".join(f"{v:>{width}}" for v in row))
        return "\n".join(lines)


def confusion_matrix(
    actual: Sequence[str], predicted: Sequence[str], classes: Sequence[str]
) -> ConfusionMatrix:
    """Count actual-by-predicted label pairs."""
    if len(actual) != len(predicted):
        raise ShapeError(
            f"actual has {len(actual)} labels, predicted has {len(predicted)}"
        )
    classes = tuple(classes)
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for a, p in zip(actual, predicted):
        if a not in index:
            raise LabelError(f"actual label {a!r} not in classes {list(classes)}")
        if p not in index:
            raise LabelError(f"predicted label {p!r} not in classes {list(classes)}")
        counts[index[a], index[p]] += 1
    return ConfusionMatrix(classes=classes, counts=counts)


@dataclass(frozen=True)
class ClassMetrics:
    label: str
    support: int
    precision: float
    recall: float
    f1: float
    # set when the corresponding denominator was zero and the value
    # was defined to 0
    precision_undefined: bool = False
    recall_undefined: bool = False
    f1_undefined: bool = False


class Aggregate(NamedTuple):
    """Precision, recall and F1 of one of ``AVERAGING_MODES``."""

    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    per_class: tuple[ClassMetrics, ...]
    macro: Aggregate
    micro: Aggregate
    weighted: Aggregate


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0:
        return 0.0
    return float(2.0 * precision * recall / (precision + recall))


AVERAGING_MODES = ("macro", "micro", "weighted")


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Derive accuracy and per-class/aggregate precision, recall and F1."""
    total = cm.total
    if total == 0:
        raise DegenerateDataError("confusion matrix is empty; no samples to score")
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    support = counts.sum(axis=1)

    per_class = []
    for i, label in enumerate(cm.classes):
        p_den = tp[i] + fp[i]
        r_den = tp[i] + fn[i]
        precision = tp[i] / p_den if p_den > 0 else 0.0
        recall = tp[i] / r_den if r_den > 0 else 0.0
        f1_undefined = precision + recall == 0
        per_class.append(
            ClassMetrics(
                label=label,
                support=int(support[i]),
                precision=float(precision),
                recall=float(recall),
                f1=f1_score(precision, recall),
                precision_undefined=bool(p_den == 0),
                recall_undefined=bool(r_den == 0),
                f1_undefined=bool(f1_undefined),
            )
        )

    accuracy = float(tp.sum() / total)
    columns = [[getattr(m, name) for m in per_class] for name in Aggregate._fields]
    # single-label multiclass: every FP is some other class's FN
    micro_p = float(tp.sum() / (tp.sum() + fp.sum()))
    micro_r = float(tp.sum() / (tp.sum() + fn.sum()))
    w = support / total
    return MetricsReport(
        accuracy=accuracy,
        per_class=tuple(per_class),
        macro=Aggregate(*(float(np.mean(column)) for column in columns)),
        micro=Aggregate(micro_p, micro_r, f1_score(micro_p, micro_r)),
        weighted=Aggregate(*(float(np.dot(w, column)) for column in columns)),
    )


def report_rows(report: MetricsReport) -> list[list]:
    """CSV rows: one per class, then the aggregate rows."""
    rows = [["label", "precision", "recall", "f1", "support", "flags"]]
    for m in report.per_class:
        flags = ";".join(
            name
            for name in ("precision_undefined", "recall_undefined", "f1_undefined")
            if getattr(m, name)
        )
        rows.append([m.label, m.precision, m.recall, m.f1, m.support, flags])
    total = sum(m.support for m in report.per_class)
    for mode in AVERAGING_MODES:
        rows.append([mode, *getattr(report, mode), total, ""])
    rows.append(["accuracy", report.accuracy, "", "", total, ""])
    return rows


def write_metrics_csv(report: MetricsReport, path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(report_rows(report))


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "accuracy": report.accuracy,
        "per_class": [asdict(m) for m in report.per_class],
        **{mode: getattr(report, mode)._asdict() for mode in AVERAGING_MODES},
    }


def write_metrics_json(report: MetricsReport, path) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2) + "\n")


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation; rejects degenerate (zero-variance) input.

    A zero-variance series is an error distinct from r = 0: the
    correlation is undefined there, not absent.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"series must be equal-length 1-D, got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise DegenerateDataError(f"need at least 2 points, got {len(x)}")
    # constant series have zero variance even when the float mean wobbles
    if (x == x[0]).all() or (y == y[0]).all():
        raise DegenerateDataError("pearson is undefined for zero-variance input")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.dot(xc, xc))
    syy = float(np.dot(yc, yc))
    if sxx == 0 or syy == 0:
        raise DegenerateDataError("pearson is undefined for zero-variance input")
    return float(np.dot(xc, yc) / math.sqrt(sxx * syy))


def prune_features(
    features: dict[str, Sequence[float]],
    response: Sequence[float],
    tolerance: float = 0.0,
) -> list[tuple[str, float]]:
    """Keep features whose |correlation with the response| exceeds ``tolerance``.

    Zero-variance (degenerate) features are always dropped. Returns the
    retained names with their correlation values, in input order.
    """
    if tolerance < 0:
        raise ParameterError(f"tolerance must be >= 0, got {tolerance}")
    response = np.asarray(response, dtype=np.float64)
    if len(response) >= 2 and (response == response[0]).all():
        raise DegenerateDataError("response variable has zero variance")
    retained = []
    for name, column in features.items():
        try:
            r = pearson(column, response)
        except DegenerateDataError:
            continue
        if abs(r) > tolerance:
            retained.append((name, r))
    return retained
