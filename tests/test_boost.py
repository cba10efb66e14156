"""Hard and soft-margin gradient boosting tests."""

import math
import random

import pytest

from relboost.boost import (
    BoostConfig,
    BoostedModel,
    Hard,
    Soft,
    _gradient,
    hard_gradient,
    parse_model,
    per_example_objective,
    predict,
    serialize_model,
    sigmoid_prob,
    soft_gradient,
    soft_lambda,
    train,
)
from relboost.logic import ExampleSet
from tests.conftest import build_linked_domain


def gen_soft_examples(examples, model, db, kind) -> list:
    """Reference gradients: one per entry under the current model, computed
    from scratch rather than from `train`'s running sums."""
    if examples.target != model.target:
        raise ValueError("model and example targets differ")
    return [_gradient(kind, label, sigmoid_prob(model.psi(atom, db)))
            for atom, label in examples.entries]


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid_prob(0.0) == 0.5

    def test_reference_value(self):
        assert sigmoid_prob(0.827) == pytest.approx(0.696, abs=5e-4)

    def test_symmetry(self):
        assert sigmoid_prob(-0.827) == pytest.approx(1.0 - sigmoid_prob(0.827),
                                                     abs=1e-15)

    def test_monotone_and_bounded(self):
        values = [sigmoid_prob(x / 10.0) for x in range(-500, 501)]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_extreme_psi_safe(self):
        assert 0.0 < sigmoid_prob(-1e9) < sigmoid_prob(1e9) < 1.0


class TestHardGradient:
    def test_positive_at_zero_prob(self):
        assert hard_gradient(1, 0.0) == 1.0

    def test_negative_at_full_prob(self):
        assert hard_gradient(0, 1.0) == -1.0

    def test_arithmetic(self):
        assert hard_gradient(1, 0.3) == pytest.approx(0.7)


class TestSoftLambda:
    def test_zero_costs_recover_unit_lambda(self):
        for label in (0, 1):
            for p in (0.0, 0.2, 0.5, 0.9, 1.0):
                assert soft_lambda(label, p, 0.0, 0.0) == pytest.approx(1.0)

    def test_positive_substitution(self):
        assert soft_lambda(1, 0.5, math.log(3.0), 0.0) == pytest.approx(0.5)

    def test_negative_substitution(self):
        assert soft_lambda(0, 0.5, 0.0, math.log(3.0)) == pytest.approx(1.5)

    def test_two_negative_forms_agree(self):
        # e^b / (p e^b + (1-p)) must equal 1 / (p + (1-p) e^-b)
        rng = random.Random(99)
        for _ in range(10_000):
            p = rng.random()
            beta = rng.uniform(-30.0, 30.0)
            direct = math.exp(beta) / (p * math.exp(beta) + (1.0 - p))
            got = soft_lambda(0, p, 0.0, beta)
            assert got == pytest.approx(direct, rel=1e-12)

    def test_overflow_guarded(self):
        assert soft_lambda(1, 0.5, 1e6, 0.0) == pytest.approx(0.0, abs=1e-200)
        assert soft_lambda(0, 0.5, 0.0, -1e6) == pytest.approx(0.0, abs=1e-200)


class TestSoftGradient:
    def test_reduces_to_hard(self):
        assert soft_gradient(1, 0.9, 0.0, 0.0) == pytest.approx(0.1)

    def test_negative_substitution(self):
        assert soft_gradient(0, 0.5, 0.0, math.log(3.0)) == pytest.approx(-0.75)

    def test_vanishes_for_ignored_positives(self):
        assert abs(soft_gradient(1, 0.5, -40.0, 0.0)) < 1e-6

    def test_saturates_toward_one(self):
        assert soft_gradient(1, 0.99, 40.0, 0.0) == pytest.approx(1.0, abs=1e-10)
        assert soft_gradient(0, 0.01, 0.0, 40.0) == pytest.approx(-1.0, abs=1e-10)

    def test_monotone_in_p_for_positives(self):
        for alpha in (-2.0, 0.0, 1.5):
            grads = [soft_gradient(1, p / 100.0, alpha, 0.0) for p in range(101)]
            assert all(a >= b - 1e-15 for a, b in zip(grads, grads[1:]))

    def test_negative_magnitude_grows_with_beta(self):
        for p in (0.1, 0.5, 0.9):
            mags = [abs(soft_gradient(0, p, 0.0, b / 4.0)) for b in range(-20, 21)]
            assert all(a <= b + 1e-15 for a, b in zip(mags, mags[1:]))


class TestGradientObjectiveConsistency:
    def test_gradient_is_derivative_of_objective(self):
        rng = random.Random(202)
        h = 1e-5
        for _ in range(1000):
            psi = rng.uniform(-4.0, 4.0)
            label = rng.randint(0, 1)
            kind = Soft(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            fd = (per_example_objective(label, psi + h, kind)
                  - per_example_objective(label, psi - h, kind)) / (2.0 * h)
            grad = soft_gradient(label, sigmoid_prob(psi), kind.alpha, kind.beta)
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_objective_is_concave(self):
        rng = random.Random(303)
        h = 1e-3
        for _ in range(1000):
            psi = rng.uniform(-4.0, 4.0)
            label = rng.randint(0, 1)
            kind = Soft(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            second = (per_example_objective(label, psi + h, kind)
                      - 2.0 * per_example_objective(label, psi, kind)
                      + per_example_objective(label, psi - h, kind)) / h ** 2
            assert second <= 1e-9


class TestGenSoftExamples:
    def test_empty_set(self, linked_domain):
        schema, db, modes, examples = linked_domain
        empty = ExampleSet(examples.target, [])
        model = BoostedModel(examples.target, 0.0, [], Hard())
        assert gen_soft_examples(empty, model, db, Hard()) == []

    def test_all_positive_zero_model(self, linked_domain):
        schema, db, modes, examples = linked_domain
        pos = ExampleSet(examples.target,
                         [(a, l) for a, l in examples.entries if l == 1])
        model = BoostedModel(examples.target, 0.0, [], Hard())
        grads = gen_soft_examples(pos, model, db, Hard())
        assert all(g == pytest.approx(0.5) for g in grads)

    def test_soft_matches_scalar_recomputation(self, linked_domain):
        schema, db, modes, examples = linked_domain
        kind = Soft(0.0, -2.0)
        config = BoostConfig(iterations=2, rng_seed=4)
        model = train(examples, db, modes, config, kind)
        grads = gen_soft_examples(examples, model, db, kind)
        for grad, (atom, label) in zip(grads, examples.entries):
            p = sigmoid_prob(model.psi(atom, db))
            lam = 1.0 / (p + (1.0 - p) * math.exp(0.0)) if label == 1 \
                else 1.0 / (p + (1.0 - p) * math.exp(2.0))
            assert grad == pytest.approx((1.0 if label else 0.0) - lam * p,
                                                 rel=1e-12)


class TestTrain:
    def test_separable_domain_converges(self):
        # mean-gradient leaves grow psi about like ln(iterations), so
        # p > 0.99 needs on the order of a hundred rounds
        schema, db, modes, examples = build_linked_domain(15, 15, seed=8)
        config = BoostConfig(iterations=150, rng_seed=1)
        model = train(examples, db, modes, config, Hard())
        for atom, label in examples.entries:
            p = predict(model, atom, db)
            assert p > 0.99 if label == 1 else p < 0.01

    def test_single_iteration_single_tree(self, linked_domain):
        schema, db, modes, examples = linked_domain
        model = train(examples, db, modes, BoostConfig(iterations=1), Hard())
        assert len(model.trees) == 1

    def test_zero_iterations_disallowed(self):
        with pytest.raises(ValueError):
            BoostConfig(iterations=0)

    def test_same_seed_identical_models(self, linked_domain):
        schema, db, modes, examples = linked_domain
        config = BoostConfig(iterations=5, rng_seed=17, neg_subsample_ratio=1.0)
        a = train(examples, db, modes, config, Hard())
        b = train(examples, db, modes, config, Hard())
        assert serialize_model(a) == serialize_model(b)

    def test_single_class_rejected(self, linked_domain):
        schema, db, modes, examples = linked_domain
        pos_only = ExampleSet(examples.target,
                              [(a, l) for a, l in examples.entries if l == 1])
        with pytest.raises(ValueError, match="positive and one negative"):
            train(pos_only, db, modes, BoostConfig(), Hard())

    def test_zero_costs_match_hard_tree_for_tree(self, linked_domain):
        schema, db, modes, examples = linked_domain
        config = BoostConfig(iterations=6, rng_seed=2)
        hard = train(examples, db, modes, config, Hard())
        soft0 = train(examples, db, modes, config, Soft(0.0, 0.0))
        assert len(hard.trees) == len(soft0.trees)
        from relboost.regtree import serialize_tree
        for th, ts in zip(hard.trees, soft0.trees):
            assert serialize_tree(th) == serialize_tree(ts)


class TestModelFiles:
    def test_roundtrip(self, linked_domain):
        schema, db, modes, examples = linked_domain
        model = train(examples, db, modes, BoostConfig(iterations=3, rng_seed=6),
                      Soft(1.0, -4.0))
        text = serialize_model(model)
        again = parse_model(text, schema)
        assert serialize_model(again) == text
        assert again.kind == Soft(1.0, -4.0)

    def test_predictions_survive_roundtrip(self, linked_domain):
        schema, db, modes, examples = linked_domain
        model = train(examples, db, modes, BoostConfig(iterations=3), Hard())
        again = parse_model(serialize_model(model), schema)
        for atom, _ in examples.entries[:8]:
            assert predict(again, atom, db) == predict(model, atom, db)
