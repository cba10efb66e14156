"""Evaluation metrics for (score, label) prediction sets.

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


@dataclass
class PredictionSet:
    """(score, label) pairs with a finite score and label in {0, 1}."""

    pairs: list

    def __post_init__(self):
        self.pairs = [(float(s), int(l)) for s, l in self.pairs]
        for s, l in self.pairs:
            if l not in (0, 1):
                raise ValueError("labels must be 0 or 1")
            if not math.isfinite(s):
                raise ValueError(f"scores must be finite, not {s!r}")
        if not self.pairs:
            raise ValueError("empty prediction set")

    @property
    def positives(self) -> int:
        return sum(l for _, l in self.pairs)

    @property
    def negatives(self) -> int:
        return len(self.pairs) - self.positives


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


def roc_points(preds: PredictionSet) -> list:
    """ROC polyline from (0,0) to (1,1), descending-score sweep, ties grouped."""
    pos = preds.positives
    neg = preds.negatives
    if pos == 0 or neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")
    by_score: dict = {}
    for s, l in preds.pairs:
        tp, fp = by_score.get(s, (0, 0))
        by_score[s] = (tp + l, fp + (1 - l))
    points = [(0.0, 0.0)]
    tp = fp = 0
    for s in sorted(by_score, reverse=True):
        dtp, dfp = by_score[s]
        tp += dtp
        fp += dfp
        points.append((fp / neg, tp / pos))
    return points


def auc_roc(preds: PredictionSet) -> float:
    """Conventional trapezoidal AUC over the tie-grouped ROC polyline."""
    pts = roc_points(preds)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def _area_right_of_curve(points: list, lo: float, hi: float) -> float:
    """Integral of (1 - FPR(y)) for y in [lo, hi] along the ROC polyline.

    Horizontal polyline segments have no y-extent and contribute nothing;
    the rest are clipped to the band by exact linear interpolation.
    """
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if y1 <= y0:
            continue
        a = max(y0, lo)
        b = min(y1, hi)
        if b <= a:
            continue
        slope = (x1 - x0) / (y1 - y0)
        xa = x0 + slope * (a - y0)
        xb = x0 + slope * (b - y0)
        area += (b - a) * (1.0 - (xa + xb) / 2.0)
    return area


def weighted_auc_roc(preds: PredictionSet, cfg: Optional[WeightConfig] = None) -> float:
    """Strip-weighted area under the ROC curve, in [0, 1]."""
    cfg = cfg or WeightConfig()
    pts = roc_points(preds)
    n_regions = cfg.strips + 1
    weights = strip_weights(cfg)
    total = 0.0
    for k in range(n_regions):
        lo = k / n_regions
        hi = (k + 1) / n_regions
        total += weights[k] * _area_right_of_curve(pts, lo, hi)
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
    tp = fp = tn = fn = 0
    for s, l in preds.pairs:
        predicted = s >= threshold
        if predicted and l == 1:
            tp += 1
        elif predicted and l == 0:
            fp += 1
        elif not predicted and l == 1:
            fn += 1
        else:
            tn += 1
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
    return sum((1.0 - p) ** 2 for p in probs) / len(probs)


PROB_FLOOR = 1e-300


def mean_loglik(probs_of_truth: Iterable[float]) -> float:
    """Mean log probability of the true outcomes, floored at 1e-300."""
    probs = list(probs_of_truth)
    if not probs:
        raise ValueError("empty probability list")
    return sum(math.log(max(p, PROB_FLOOR)) for p in probs) / len(probs)
