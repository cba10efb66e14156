"""Evaluation metrics for (score, label) prediction sets.

A `PredictionSet` keeps its rows as a score column and a label column, read
from two arrays or from (score, label) pairs.  It builds its ROC curve once,
in its constructor: rows are grouped by score (tied scores make one step),
the groups are swept in descending score order, and each group's cumulative
(FPR, TPR) is one vertex of the polyline (Fawcett, "An introduction to ROC
analysis", Pattern Recognition Letters, 2006).  Every curve metric of a
report reads those two arrays and loops over no rows; each area adds its
per-segment terms in polyline order, so it equals the per-pair Python
definition bit for bit.  The mean-probability metrics add left to right
from 0.0 (`util.ordered_sum`), so no report depends on how a Python
version's `sum` adds floats.

Includes the recall-weighted AUC-ROC: the ROC plane is cut into N+1
equal-height horizontal strips by true-positive rate, the area under the
curve inside each strip is computed by exact linear clipping of the ROC
polyline, and the strips are reweighted by a recursion that shifts weight
toward the high-recall top.  gamma = 0 reproduces the conventional AUC to
machine precision and gamma = 1 keeps only the top strip.

All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .util import ordered_sum


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class PredictionSet:
    """Rows of a finite score and a label equal to 0 or 1, kept as columns.

    `PredictionSet(pairs)` reads (score, label) pairs and
    `PredictionSet.from_columns(scores, labels)` reads the two columns;
    both end in one check, and only they write a set.  A set keeps the
    `scores` and integer `labels` as read-only arrays, the `positives` and
    `negatives` counts as ints and, when both classes occur, the
    tie-grouped ROC polyline from (0, 0) to (1, 1) as the read-only arrays
    `fpr` and `tpr` (None otherwise).  Of several bad rows, the first one's
    error is raised, its label checked first.  `pairs` rebuilds the rows
    as (float, int) tuples on each read.
    """

    def __init__(self, pairs: Iterable):
        table = np.array(tuple(pairs), dtype=np.float64)
        if len(table) and table.shape != (len(table), 2):
            raise ValueError("predictions must be (score, label) pairs")
        self._set_columns(*table.reshape(-1, 2).T)

    @classmethod
    def from_columns(cls, scores, labels) -> "PredictionSet":
        """The set whose row i is (scores[i], labels[i])."""
        preds = cls.__new__(cls)
        preds._set_columns(np.asarray(scores, dtype=np.float64), np.asarray(labels))
        return preds

    def _set_columns(self, scores: np.ndarray, labels: np.ndarray):
        if scores.ndim != 1 or scores.shape != labels.shape:
            raise ValueError("predictions must be (score, label) pairs")
        if not len(scores):
            raise ValueError("empty prediction set")
        bad = ((labels != 0) & (labels != 1)) | ~np.isfinite(scores)
        if bad.any():
            first = int(np.argmax(bad))
            if labels[first] not in (0, 1):
                raise ValueError("labels must be 0 or 1")
            raise ValueError(f"scores must be finite, not {float(scores[first])!r}")
        self.scores = _frozen(np.array(scores))
        self.labels = _frozen(labels.astype(np.int64))
        self.positives = int(np.count_nonzero(self.labels))
        self.negatives = len(self.labels) - self.positives
        self.fpr = self.tpr = None
        if self.positives and self.negatives:
            # positives and negatives per score group, highest score first
            _, group = np.unique(self.scores, return_inverse=True)
            rows = np.bincount(group)
            tp = np.bincount(group[self.labels == 1], minlength=len(rows))[::-1]
            fp = rows[::-1] - tp
            self.fpr = _frozen(np.concatenate(([0.0], np.cumsum(fp) / self.negatives)))
            self.tpr = _frozen(np.concatenate(([0.0], np.cumsum(tp) / self.positives)))

    @property
    def pairs(self) -> tuple:
        return tuple(zip(self.scores.tolist(), self.labels.tolist()))


@dataclass
class WeightConfig:
    strips: int = 4        # N; the plane is cut into N+1 regions
    gamma: float = 0.8

    def __post_init__(self):
        if self.strips < 1:
            raise ValueError("strips must be at least 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


@dataclass
class FDeltaConfig:
    delta: float = 5.0

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")


def strip_weights(cfg: WeightConfig) -> list:
    """The N+1 strip weights, bottom first.

    W(0) = 1-gamma; W(x) = W(x-1)*gamma + (1-gamma) below the top;
    W(N) = (W(N-1)*gamma + (1-gamma)) / (1-gamma).  gamma = 1 is handled
    by its analytic limit: all weight on the top strip.
    """
    n = cfg.strips
    g = cfg.gamma
    if g == 1.0:
        # defined limit: only the top strip counts, with weight exactly 1
        return [0.0] * n + [1.0]
    weights = [1.0 - g]
    for _ in range(1, n):
        weights.append(weights[-1] * g + (1.0 - g))
    weights.append((weights[-1] * g + (1.0 - g)) / (1.0 - g))
    return weights


def _curve(preds: PredictionSet) -> tuple:
    """The (fpr, tpr) polyline arrays, descending-score sweep, ties grouped."""
    if preds.fpr is None:
        raise ValueError("ROC needs at least one positive and one negative")
    return preds.fpr, preds.tpr


def _ordered_array_sum(terms: np.ndarray) -> float:
    """`util.ordered_sum` of an array's terms.

    A cumulative sum adds left to right; np.sum adds pairwise, which
    changes the result bits.
    """
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def auc_roc(preds: PredictionSet) -> float:
    """Conventional trapezoidal AUC over the tie-grouped ROC polyline."""
    x, y = _curve(preds)
    return _ordered_array_sum((x[1:] - x[:-1]) * (y[:-1] + y[1:]) / 2.0)


def _area_right_of_curve(segments: tuple, lo: float, hi: float) -> float:
    """Integral of (1 - FPR(y)) for y in [lo, hi] along the ROC polyline.

    `segments` holds the (x0, y0, y1, slope) arrays of the rising polyline
    segments in order; horizontal ones have no y-extent and
    contribute nothing.  Each is clipped to the band by exact linear
    interpolation.
    """
    x0, y0, y1, slope = segments
    a = np.maximum(y0, lo)
    b = np.minimum(y1, hi)
    keep = b > a
    a, b, x0, y0, slope = a[keep], b[keep], x0[keep], y0[keep], slope[keep]
    xa = x0 + slope * (a - y0)
    xb = x0 + slope * (b - y0)
    return _ordered_array_sum((b - a) * (1.0 - (xa + xb) / 2.0))


def weighted_auc_roc(preds: PredictionSet, cfg: Optional[WeightConfig] = None) -> float:
    """Strip-weighted area under the ROC curve, in [0, 1]."""
    cfg = cfg or WeightConfig()
    x, y = _curve(preds)
    rising = y[1:] > y[:-1]
    x0, y0, x1, y1 = x[:-1][rising], y[:-1][rising], x[1:][rising], y[1:][rising]
    segments = (x0, y0, y1, (x1 - x0) / (y1 - y0))
    n_regions = cfg.strips + 1
    weights = strip_weights(cfg)
    total = 0.0
    for k in range(n_regions):
        lo = k / n_regions
        hi = (k + 1) / n_regions
        total += weights[k] * _area_right_of_curve(segments, lo, hi)
    return total


def f_delta(precision: float, recall: float, cfg: Optional[FDeltaConfig] = None) -> float:
    """(1 + d^2) P R / (d^2 P + R); delta shifts importance toward recall."""
    cfg = cfg or FDeltaConfig()
    if precision == 0.0 and recall == 0.0:
        raise ValueError("precision and recall cannot both be zero")
    d2 = cfg.delta ** 2
    return (1.0 + d2) * precision * recall / (d2 * precision + recall)


def confusion_report(preds: PredictionSet, threshold: Optional[float] = None,
                     fdelta: Optional[FDeltaConfig] = None) -> dict:
    """Thresholded confusion metrics; score >= threshold predicts positive.

    The default threshold is the positive fraction P / (P + N).  Precision
    is reported as 0 when nothing is predicted positive, and f_delta as 0
    when precision and recall are both 0.
    """
    p = preds.positives
    n = preds.negatives
    if threshold is None:
        threshold = p / (p + n)
    predicted = preds.scores >= threshold
    tp = int(np.count_nonzero(predicted & (preds.labels == 1)))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = p - tp
    tn = n - fp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / p if p else 0.0
    report = {
        "threshold": threshold,
        "fnr": fn / p if p else 0.0,
        "fpr": fp / n if n else 0.0,
        "precision": precision,
        "recall": recall,
        "accuracy": (tp + tn) / (p + n),
    }
    if precision == 0.0 and recall == 0.0:
        report["f_delta"] = 0.0
    else:
        report["f_delta"] = f_delta(precision, recall, fdelta)
    return report


def mse(probs_of_truth: Iterable[float]) -> float:
    """Mean of (1 - p(true outcome))^2."""
    probs = list(probs_of_truth)
    if not probs:
        raise ValueError("empty probability list")
    return ordered_sum((1.0 - p) ** 2 for p in probs) / len(probs)


PROB_FLOOR = 1e-300


def mean_loglik(probs_of_truth: Iterable[float]) -> float:
    """Mean log probability of the true outcomes, floored at 1e-300."""
    probs = list(probs_of_truth)
    if not probs:
        raise ValueError("empty probability list")
    return ordered_sum(math.log(max(p, PROB_FLOOR)) for p in probs) / len(probs)
