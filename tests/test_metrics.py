"""Evaluation-metric tests, including the strip-weighted AUC oracle."""

import math
import random

import pytest

from relboost.metrics import (
    FDeltaConfig,
    PredictionSet,
    WeightConfig,
    auc_roc,
    confusion_report,
    f_delta,
    mean_loglik,
    mse,
    roc_points,
    strip_weights,
    weighted_auc_roc,
)


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
def test_non_finite_scores_rejected(score):
    with pytest.raises(ValueError, match="finite"):
        PredictionSet([(0.5, 0), (score, 1)])


def _random_predictions(rng, n):
    pairs = [(rng.random(), rng.randint(0, 1)) for _ in range(n)]
    if not any(l for _, l in pairs):
        pairs[0] = (pairs[0][0], 1)
    if all(l for _, l in pairs):
        pairs[0] = (pairs[0][0], 0)
    return PredictionSet(pairs)


class TestStripWeights:
    def test_gamma_zero_all_ones(self):
        assert strip_weights(WeightConfig(4, 0.0)) == [1.0] * 5

    def test_gamma_one_top_only(self):
        assert strip_weights(WeightConfig(4, 1.0)) == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_reference_recursion_values(self):
        got = strip_weights(WeightConfig(4, 0.8))
        want = [0.2, 0.36, 0.488, 0.5904, 3.3616]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)

    def test_matches_independent_recursion_bitwise(self):
        for gamma in (0.0, 0.2, 0.5, 0.8, 0.95):
            for n in (1, 2, 4, 7):
                weights = [1.0 - gamma]
                for _ in range(1, n):
                    weights.append(weights[-1] * gamma + (1.0 - gamma))
                weights.append((weights[-1] * gamma + (1.0 - gamma)) / (1.0 - gamma))
                assert strip_weights(WeightConfig(n, gamma)) == weights

    def test_weights_average_to_one(self):
        # strip height times weight sums to 1: the perfect curve scores 1
        for gamma in (0.0, 0.3, 0.8, 0.99):
            for n in (1, 3, 4, 9):
                weights = strip_weights(WeightConfig(n, gamma))
                assert all(w >= 0.0 for w in weights)
                assert sum(weights) / (n + 1) == pytest.approx(1.0, abs=1e-12)


class TestAucRoc:
    def test_perfect(self):
        preds = PredictionSet([(0.8, 1)] * 4 + [(0.2, 0)] * 6)
        assert auc_roc(preds) == 1.0

    def test_reversed(self):
        preds = PredictionSet([(0.2, 1)] * 4 + [(0.8, 0)] * 6)
        assert auc_roc(preds) == 0.0

    def test_all_tied_is_half(self):
        preds = PredictionSet([(0.5, 1)] * 4 + [(0.5, 0)] * 6)
        assert auc_roc(preds) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_roc(PredictionSet([(0.5, 1), (0.2, 1)]))


def _wauc_oracle(preds, cfg, grid=200_000):
    """Independent check: integrate 1 - FPR(tpr) over a fine tpr grid with
    midpoint sampling of the polyline, weighting each strip."""
    pts = roc_points(preds)
    weights = strip_weights(cfg)
    regions = cfg.strips + 1

    def fpr_at(tpr):
        # left envelope: smallest fpr whose tpr reaches the level
        best = 1.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if y1 < tpr - 1e-15 or y1 <= y0:
                continue
            if y0 <= tpr <= y1:
                return x0 + (x1 - x0) * (tpr - y0) / (y1 - y0)
        return best

    total = 0.0
    dy = 1.0 / grid
    for i in range(grid):
        y = (i + 0.5) * dy
        region = min(int(y * regions), regions - 1)
        total += weights[region] * (1.0 - fpr_at(y)) * dy
    return total


def _area_below_clipped(pts, level):
    """Trapezoid integral of min(Y(x), level) dx over the ROC polyline.

    Works in x-space, unlike the implementation under test, which
    integrates the left envelope in y-space.
    """
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 <= x0:
            continue
        lo, hi = min(y0, y1), max(y0, y1)
        if hi <= level:
            area += (x1 - x0) * (y0 + y1) / 2.0
        elif lo >= level:
            area += (x1 - x0) * level
        else:
            # crossing segment: split at the level
            t = (level - y0) / (y1 - y0)
            xc = x0 + t * (x1 - x0)
            if y0 < level:
                area += (xc - x0) * (y0 + level) / 2.0 + (x1 - xc) * level
            else:
                area += (xc - x0) * level + (x1 - xc) * (level + y1) / 2.0
    return area


def _wauc_exact_oracle(preds, cfg):
    """Strip areas as differences of clipped x-space integrals."""
    pts = roc_points(preds)
    weights = strip_weights(cfg)
    regions = cfg.strips + 1
    total = 0.0
    for k in range(regions):
        lo, hi = k / regions, (k + 1) / regions
        total += weights[k] * (_area_below_clipped(pts, hi)
                               - _area_below_clipped(pts, lo))
    return total


class TestWeightedAuc:
    def test_perfect_scores_one(self):
        preds = PredictionSet([(0.9, 1)] * 7 + [(0.1, 0)] * 9)
        assert weighted_auc_roc(preds, WeightConfig(4, 0.8)) == pytest.approx(
            1.0, abs=1e-12)

    def test_gamma_zero_equals_conventional(self):
        rng = random.Random(404)
        for _ in range(100):
            preds = _random_predictions(rng, rng.randint(4, 120))
            assert weighted_auc_roc(preds, WeightConfig(4, 0.0)) == pytest.approx(
                auc_roc(preds), abs=1e-12)

    def test_matches_fine_grained_integration(self):
        rng = random.Random(11)
        for trial in range(3):
            preds = _random_predictions(rng, 200)
            cfg = WeightConfig(4, 0.8)
            got = weighted_auc_roc(preds, cfg)
            want = _wauc_oracle(preds, cfg)
            # the midpoint oracle carries O(1/grid) discretization error
            assert got == pytest.approx(want, abs=5e-5)

    def test_matches_exact_clipping_oracle(self):
        rng = random.Random(12)
        for trial in range(20):
            preds = _random_predictions(rng, 200)
            for cfg in (WeightConfig(4, 0.8), WeightConfig(3, 0.5),
                        WeightConfig(1, 0.9)):
                got = weighted_auc_roc(preds, cfg)
                want = _wauc_exact_oracle(preds, cfg)
                assert got == pytest.approx(want, abs=1e-9)

    def test_range(self):
        rng = random.Random(15)
        for _ in range(50):
            preds = _random_predictions(rng, rng.randint(4, 60))
            for gamma in (0.0, 0.5, 0.8, 1.0):
                assert 0.0 <= weighted_auc_roc(preds, WeightConfig(4, gamma)) <= 1.0 + 1e-12

    def test_fixing_a_misranked_pair_never_hurts(self):
        rng = random.Random(31)
        cfg = WeightConfig(4, 0.8)
        for _ in range(30):
            preds = _random_predictions(rng, 40)
            pairs = list(preds.pairs)
            swapped = None
            for i, (si, li) in enumerate(pairs):
                for j, (sj, lj) in enumerate(pairs):
                    if li == 1 and lj == 0 and si < sj:
                        swapped = (i, j)
                        break
                if swapped:
                    break
            if not swapped:
                continue
            i, j = swapped
            fixed = list(pairs)
            fixed[i] = (pairs[j][0], 1)
            fixed[j] = (pairs[i][0], 0)
            assert weighted_auc_roc(PredictionSet(fixed), cfg) >= \
                weighted_auc_roc(PredictionSet(pairs), cfg) - 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            weighted_auc_roc(PredictionSet([(0.5, 0), (0.2, 0)]))


class TestFDelta:
    def test_harmonic_mean_at_delta_one(self):
        for x in (0.2, 0.5, 0.9):
            assert f_delta(x, x, FDeltaConfig(1.0)) == pytest.approx(x)

    def test_reference_value(self):
        assert f_delta(0.5, 1.0, FDeltaConfig(5.0)) == pytest.approx(13.0 / 13.5)

    def test_equal_inputs_for_any_delta(self):
        for delta in (0.5, 1.0, 5.0, 50.0):
            assert f_delta(0.37, 0.37, FDeltaConfig(delta)) == pytest.approx(0.37)

    def test_limit_is_recall(self):
        for p10 in range(1, 10):
            for r10 in range(1, 10):
                p, r = p10 / 10.0, r10 / 10.0
                assert abs(f_delta(p, r, FDeltaConfig(1000.0)) - r) < 1e-3

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            f_delta(0.0, 0.0)


class TestConfusionReport:
    def test_perfect_separation(self):
        preds = PredictionSet([(0.9, 1)] * 3 + [(0.1, 0)] * 5)
        report = confusion_report(preds)
        assert report["fnr"] == 0.0
        assert report["fpr"] == 0.0
        assert report["accuracy"] == 1.0

    def test_all_predicted_positive(self):
        preds = PredictionSet([(0.9, 1), (0.9, 0), (0.8, 0)])
        report = confusion_report(preds, threshold=0.0)
        assert report["recall"] == 1.0
        assert report["fpr"] == 1.0

    def test_default_threshold_is_positive_fraction(self):
        preds = PredictionSet([(0.9, 1), (0.2, 0), (0.3, 0), (0.4, 0)])
        assert confusion_report(preds)["threshold"] == pytest.approx(0.25)

    def test_matches_hand_counts(self):
        rng = random.Random(77)
        preds = _random_predictions(rng, 60)
        threshold = 0.4
        report = confusion_report(preds, threshold=threshold)
        tp = sum(1 for s, l in preds.pairs if s >= threshold and l == 1)
        fp = sum(1 for s, l in preds.pairs if s >= threshold and l == 0)
        fn = sum(1 for s, l in preds.pairs if s < threshold and l == 1)
        tn = sum(1 for s, l in preds.pairs if s < threshold and l == 0)
        assert report["fnr"] == pytest.approx(fn / (tp + fn))
        assert report["fpr"] == pytest.approx(fp / (fp + tn))
        assert report["accuracy"] == pytest.approx((tp + tn) / 60)
        assert report["precision"] == pytest.approx(tp / (tp + fp))
        assert report["recall"] == pytest.approx(tp / (tp + fn))
        assert report["f_delta"] == pytest.approx(
            f_delta(tp / (tp + fp), tp / (tp + fn)))


class TestScalarMetrics:
    def test_mse_all_certain(self):
        assert mse([1.0, 1.0, 1.0]) == 0.0

    def test_mse_all_half(self):
        assert mse([0.5] * 9) == pytest.approx(0.25)

    def test_mse_matches_per_item(self):
        rng = random.Random(5)
        probs = [rng.random() for _ in range(40)]
        assert mse(probs) == pytest.approx(
            sum((1 - p) ** 2 for p in probs) / 40, rel=1e-12)

    def test_mean_loglik_certain_is_zero(self):
        assert mean_loglik([1.0, 1.0]) == 0.0

    def test_mean_loglik_inverse_e(self):
        assert mean_loglik([1.0 / math.e] * 4) == pytest.approx(-1.0)

    def test_zero_probability_floored(self):
        value = mean_loglik([0.0])
        assert value == pytest.approx(math.log(1e-300))
        assert math.isfinite(value)
