"""Evaluation-metric tests, including the strip-weighted AUC oracle and a
per-pair reference that the curve arrays must reproduce bit for bit."""

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
    strip_weights,
    weighted_auc_roc,
)


def _by_columns(pairs) -> PredictionSet:
    return PredictionSet.from_columns([s for s, _ in pairs], [l for _, l in pairs])


BUILDERS = [PredictionSet, _by_columns]     # the pairs and the column constructor


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
def test_non_finite_scores_rejected(score):
    for build in BUILDERS:
        with pytest.raises(ValueError, match=f"^scores must be finite, not {score!r}$"):
            build([(0.5, 0), (score, 1)])


@pytest.mark.parametrize("pairs", [
    [(0.5, 1.7), (0.2, 0.4), (0.9, 0)],     # int() truncation made this AUC 0.5
    *([(0.5, label), (0.2, 0), (0.9, 1)] for label in (-1, 2, math.nan, 0.5)),
])
def test_labels_other_than_zero_or_one_rejected(pairs):
    for build in BUILDERS:
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            build(pairs)


def test_labels_equal_to_zero_or_one_accepted():
    preds = PredictionSet([(0.5, 1.0), (0.2, False), (0.9, True), (0.1, 0.0)])
    assert preds.labels.tolist() == [1, 0, 1, 0]
    assert (preds.positives, preds.negatives) == (2, 2)
    assert isinstance(preds.positives, int) and isinstance(preds.negatives, int)


@pytest.mark.parametrize("pairs, message", [
    ([(0.5, 0), (math.nan, 1), (0.2, 2)], "^scores must be finite, not nan$"),
    ([(0.5, 0), (0.2, 2), (math.inf, 1)], "^labels must be 0 or 1$"),
    ([(0.5, 0), (-math.inf, 3), (0.2, 1)], "^labels must be 0 or 1$"),
    ([(0.5, 1), (0.3, 0), (math.inf, 0), (math.nan, 1)], "^scores must be finite, not inf$"),
])
def test_first_bad_pair_names_the_error(pairs, message):
    # pairs are checked in order, and within a pair the label first
    for build in BUILDERS:
        with pytest.raises(ValueError, match=message):
            build(pairs)


@pytest.mark.parametrize("positive_rate", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("decimals", [0, 1, 6])
def test_column_constructor_equals_the_pairs_constructor(decimals, positive_rate):
    # rounding to 0 or 1 decimals ties most scores, -0.0 among them; a
    # positive rate of 0 or 1 makes a one-class set
    rng = random.Random(decimals * 10 + int(positive_rate * 10))
    pairs = [(round(rng.uniform(-1, 1), decimals), int(rng.random() < positive_rate))
             for _ in range(rng.randrange(200, 400))]
    by_pairs, by_columns = PredictionSet(pairs), _by_columns(pairs)
    for name in ("scores", "labels", "fpr", "tpr"):
        got, want = getattr(by_columns, name), getattr(by_pairs, name)
        if want is None:
            assert got is None and positive_rate in (0.0, 1.0)
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert by_columns.pairs == by_pairs.pairs == tuple(pairs)
    assert (by_columns.positives, by_columns.negatives) == \
        (by_pairs.positives, by_pairs.negatives)


def test_columns_of_unequal_length_rejected():
    with pytest.raises(ValueError, match=r"^predictions must be \(score, label\) pairs$"):
        PredictionSet.from_columns([0.5, 0.2], [1])


def test_empty_set_rejected():
    for build in BUILDERS:
        with pytest.raises(ValueError, match="^empty prediction set$"):
            build([])


def test_set_is_written_only_by_its_constructor():
    preds = PredictionSet([(0.5, 1), (0.2, 0), (0.5, 0)])
    assert len(preds.pairs) == 3
    for array in (preds.scores, preds.labels, preds.fpr, preds.tpr):
        with pytest.raises(ValueError):
            array[0] = 1
    assert preds.fpr.tolist() == [0.0, 0.5, 1.0]
    assert preds.tpr.tolist() == [0.0, 1.0, 1.0]


def test_single_class_set_has_no_curve():
    preds = PredictionSet([(0.5, 1), (0.2, 1)])
    assert preds.fpr is None and preds.tpr is None
    assert confusion_report(preds, threshold=0.3)["recall"] == 0.5
    for metric in (auc_roc, weighted_auc_roc):
        with pytest.raises(ValueError,
                           match="^ROC needs at least one positive and one negative$"):
            metric(preds)


# ---------------------------------------------------------------------------
# The per-pair reference: one Python pass per polyline point, per strip
# ---------------------------------------------------------------------------


def _ref_roc_points(pairs) -> list:
    """ROC polyline from (0,0) to (1,1), descending-score sweep, ties grouped."""
    pos = sum(l for _, l in pairs)
    neg = len(pairs) - pos
    if pos == 0 or neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")
    by_score: dict = {}
    for s, l in pairs:
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


def _ref_auc_roc(pairs) -> float:
    pts = _ref_roc_points(pairs)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def _ref_area_right_of_curve(points: list, lo: float, hi: float) -> float:
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


def _ref_weighted_auc_roc(pairs, cfg: WeightConfig) -> float:
    pts = _ref_roc_points(pairs)
    n_regions = cfg.strips + 1
    weights = strip_weights(cfg)
    total = 0.0
    for k in range(n_regions):
        lo = k / n_regions
        hi = (k + 1) / n_regions
        total += weights[k] * _ref_area_right_of_curve(pts, lo, hi)
    return total


def _ref_confusion_counts(pairs, threshold: float) -> tuple:
    tp = fp = tn = fn = 0
    for s, l in pairs:
        predicted = s >= threshold
        if predicted and l == 1:
            tp += 1
        elif predicted and l == 0:
            fp += 1
        elif not predicted and l == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def _differential_case(rng) -> tuple:
    """(pairs, WeightConfig) with both classes: continuous scores, heavy ties,
    a single score group or every positive ranked above every negative."""
    n = rng.randint(2, 300)
    rate = rng.random()
    labels = [1 if rng.random() < rate else 0 for _ in range(n)]
    labels[0], labels[-1] = 1, 0
    rng.shuffle(labels)
    shape = rng.choice(("continuous", "ties", "single", "separated"))
    if shape == "continuous":
        scores = [rng.random() for _ in range(n)]
    elif shape == "ties":
        levels = rng.randint(2, 12)
        scores = [rng.randint(0, levels) / levels for _ in range(n)]
    elif shape == "single":
        score = rng.choice((0.0, 0.5, rng.random()))
        scores = [score] * n
    else:
        scores = [0.5 + rng.random() / 2 if label else rng.random() / 2 for label in labels]
    gamma = rng.choice((0.0, 1.0, rng.random()))
    return list(zip(scores, labels)), WeightConfig(rng.randint(1, 25), gamma)


class TestAgainstThePerPairReference:
    CASES = 1200

    def test_curve_metrics_are_bit_identical(self):
        rng = random.Random(2006)
        strips, gammas = set(), set()
        for _ in range(self.CASES):
            pairs, cfg = _differential_case(rng)
            preds = PredictionSet(pairs)
            assert [tuple(p) for p in zip(preds.fpr.tolist(), preds.tpr.tolist())] \
                == _ref_roc_points(pairs)
            assert auc_roc(preds) == _ref_auc_roc(pairs)
            assert weighted_auc_roc(preds, cfg) == _ref_weighted_auc_roc(pairs, cfg)
            strips.add(cfg.strips)
            gammas.add(cfg.gamma if cfg.gamma in (0.0, 1.0) else "random")
        assert strips == set(range(1, 26)) and gammas == {0.0, 1.0, "random"}

    def test_confusion_counts_match(self):
        rng = random.Random(2007)
        for _ in range(300):
            pairs, _ = _differential_case(rng)
            threshold = rng.choice((None, 0.5, rng.random()))
            report = confusion_report(PredictionSet(pairs), threshold)
            p = sum(l for _, l in pairs)
            tp, fp, tn, fn = _ref_confusion_counts(pairs, report["threshold"])
            assert report["fnr"] == fn / p
            assert report["fpr"] == fp / (len(pairs) - p)
            assert report["recall"] == tp / p
            assert report["precision"] == (tp / (tp + fp) if tp + fp else 0.0)
            assert report["accuracy"] == (tp + tn) / len(pairs)

    def test_report_values_are_python_numbers(self):
        preds = PredictionSet([(0.9, 1), (0.4, 0), (0.4, 1), (0.1, 0)])
        values = [auc_roc(preds), weighted_auc_roc(preds), *confusion_report(preds).values()]
        assert all(type(v) is float for v in values)


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
    pts = _ref_roc_points(preds.pairs)
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
    pts = _ref_roc_points(preds.pairs)
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
