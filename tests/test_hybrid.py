"""Exponential-family boosting tests with finite-difference oracles."""

import math
import random

import numpy as np
import pytest

from relboost import hybrid
from relboost.hybrid import (
    HybridConfig,
    HybridModel,
    aggregate_trajectories,
    gaussian_gradients,
    gaussian_ll,
    mixed_gaussian_mean,
    multinomial_gradient,
    multinomial_ll,
    multinomial_prob,
    parse_hybrid,
    poisson_gradient,
    poisson_ll,
    serialize_hybrid,
    train_hybrid,
    train_mixed,
)
from relboost.logic import (
    Atom,
    Constant,
    ExampleSet,
    FactBase,
    ParseError,
    parse_facts,
    parse_modes,
    parse_schema,
    serialize_examples,
    serialize_facts,
    serialize_schema,
)
from relboost.regtree import TreeConfig, evaluate, serialize_tree
from tests.conftest import HYBRID_SCHEMA_TEXT, build_hybrid_domain
from tests.formula_reference import mixed_poisson_rate, mixed_softmax_prob


class TestMultinomialProb:
    def test_uniform_for_equal_scores(self):
        assert multinomial_prob([1.3] * 4) == pytest.approx([0.25] * 4)

    def test_reference_values(self):
        assert multinomial_prob([math.log(2.0), 0.0]) == pytest.approx(
            [2.0 / 3.0, 1.0 / 3.0])

    def test_shift_invariance(self):
        base = multinomial_prob([0.3, -1.2, 2.0])
        shifted = multinomial_prob([5.3, 3.8, 7.0])
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_probability_vector(self):
        rng = random.Random(8)
        for _ in range(200):
            # spreads beyond ~36 saturate float64, so stay inside
            psis = [rng.uniform(-15, 15) for _ in range(rng.randint(2, 6))]
            probs = multinomial_prob(psis)
            assert all(0.0 < p < 1.0 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)


class TestMultinomialGradient:
    def test_perfect_fit_is_zero(self):
        assert multinomial_gradient(0, [1.0, 0.0]) == pytest.approx([0.0, 0.0])

    def test_uniform_four_way(self):
        assert multinomial_gradient(0, [0.25] * 4) == pytest.approx(
            [0.75, -0.25, -0.25, -0.25])

    def test_components_sum_to_zero_exactly(self):
        rng = random.Random(9)
        for _ in range(200):
            probs = multinomial_prob([rng.uniform(-4, 4) for _ in range(4)])
            grad = multinomial_gradient(rng.randint(0, 3), probs)
            assert math.fsum(grad) == pytest.approx(0.0, abs=1e-15)


class TestPoisson:
    def test_gradient_fixpoint(self):
        assert poisson_gradient(3, math.log(3.0)) == pytest.approx(0.0)

    def test_gradient_at_unit_rate(self):
        assert poisson_gradient(2, 0.0) == pytest.approx(1.0)

    def test_gradient_negative(self):
        assert poisson_gradient(0, math.log(2.0)) == pytest.approx(-2.0)

    def test_ll_values(self):
        assert poisson_ll(0, 0.0) == pytest.approx(-1.0)
        assert poisson_ll(1, 0.0) == pytest.approx(-1.0)

    def test_gradient_is_ll_derivative(self):
        rng = random.Random(10)
        h = 1e-6
        for _ in range(300):
            y = rng.randint(0, 12)
            psi = rng.uniform(-2.0, 2.5)
            fd = (poisson_ll(y, psi + h) - poisson_ll(y, psi - h)) / (2 * h)
            assert poisson_gradient(y, psi) == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestGaussianGradients:
    def test_at_the_mean(self):
        dmu, dsigma = gaussian_gradients(2.0, 2.0, 0.5)
        assert dmu == 0.0
        assert dsigma == pytest.approx(-2.0)

    def test_one_sigma_residual_stations_sigma(self):
        dmu, dsigma = gaussian_gradients(3.0, 2.0, 1.0)
        assert dsigma == pytest.approx(0.0)

    def test_matches_finite_differences(self):
        rng = random.Random(12)
        h = 1e-6
        for _ in range(300):
            y = rng.uniform(-3, 3)
            mu = rng.uniform(-3, 3)
            sigma = rng.uniform(0.3, 3.0)
            dmu, dsigma = gaussian_gradients(y, mu, sigma)
            fd_mu = (gaussian_ll(y, mu + h, sigma)
                     - gaussian_ll(y, mu - h, sigma)) / (2 * h)
            fd_sigma = (gaussian_ll(y, mu, sigma + h)
                        - gaussian_ll(y, mu, sigma - h)) / (2 * h)
            assert dmu == pytest.approx(fd_mu, rel=1e-6, abs=1e-6)
            assert dsigma == pytest.approx(fd_sigma, rel=1e-6, abs=1e-6)

    def test_sigma_floor_enforced(self):
        with pytest.raises(ValueError, match="floor"):
            gaussian_gradients(1.0, 0.0, 1e-6)


class TestMixedFormulas:
    def test_softmax_reduces_to_multinomial_at_zero_x(self):
        intercepts = [0.4, -0.3, 1.1]
        coeffs = [[0.5], [0.1], [-0.2]]
        base = multinomial_prob(intercepts)
        for k in range(3):
            assert mixed_softmax_prob(intercepts, coeffs, [0.0], k) == \
                pytest.approx(base[k])

    def test_softmax_two_class_scores(self):
        got = mixed_softmax_prob([math.log(2.0), 0.0], [[], []], [], 0)
        assert got == pytest.approx(2.0 / 3.0)

    def test_softmax_shift_invariance(self):
        a = mixed_softmax_prob([0.2, 0.9], [[1.0], [-1.0]], [0.7], 0)
        b = mixed_softmax_prob([5.2, 5.9], [[1.0], [-1.0]], [0.7], 0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_softmax_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mixed_softmax_prob([0.0, 0.0], [[1.0], [1.0, 2.0]], [0.5], 0)

    def test_poisson_rate_at_zero_x(self):
        assert mixed_poisson_rate(0.7, [1.0, -2.0], [0.0, 0.0]) == \
            pytest.approx(math.exp(0.7))

    def test_poisson_rate_single_parent(self):
        assert mixed_poisson_rate(0.0, [math.log(2.0)], [1.0]) == pytest.approx(2.0)

    def test_poisson_rate_all_zero(self):
        assert mixed_poisson_rate(0.0, [], []) == 1.0

    def test_gaussian_mean_intercept_only(self):
        assert mixed_gaussian_mean(1.4, [2.0], [0.0]) == pytest.approx(1.4)

    def test_gaussian_mean_dot_product(self):
        coeffs = [0.5, -1.5]
        xs = [2.0, 3.0]
        want = 0.25 + sum(c * x for c, x in zip(coeffs, xs))
        assert mixed_gaussian_mean(0.25, coeffs, xs) == pytest.approx(want)

    def test_gaussian_mean_zero_coeffs(self):
        assert mixed_gaussian_mean(0.9, [0.0, 0.0], [5.0, -3.0]) == \
            pytest.approx(0.9)


@pytest.fixture(scope="module")
def branch_domain():
    schema = parse_schema("""
predicate: sick/1 boolean.
predicate: visits/1 count.
predicate: weight/1 continuous.
predicate: grade/1 multiclass(3).
""")
    modes = parse_modes("mode: sick(+).", schema)
    rng = np.random.default_rng(2024)
    n = 2500
    facts, sick_flags = [], []
    for i in range(n):
        sick = bool(rng.random() < 0.4)
        sick_flags.append(sick)
        if sick:
            facts.append(Atom(schema.get("sick"), (Constant(f"e{i:05d}"),), True))
    db = FactBase(schema, facts)
    return schema, db, modes, rng, sick_flags, n


class TestTrainHybrid:
    def test_constant_rate_poisson_recovery(self, branch_domain):
        # no informative parents: the fixpoint of the boosted log rate is
        # the maximum-likelihood rate, the plain mean of the counts
        schema, db, modes, rng, _, n = branch_domain
        target = schema.get("visits")
        rng2 = np.random.default_rng(7)
        entries = [(Atom(target, (Constant(f"e{i:05d}"),)), int(y))
                   for i, y in enumerate(rng2.poisson(4.0, 2000))]
        examples = ExampleSet(target, entries)
        config = HybridConfig(iterations=40, eta_poisson=0.25)
        model = train_hybrid(examples, db, [], config)
        mean = sum(v for _, v in entries) / len(entries)
        rate = model.predict(entries[0][0], db)
        assert abs(rate - 4.0) / 4.0 < 0.05
        assert rate == pytest.approx(mean, rel=1e-6)

    def test_poisson_iid_convergence_spec_settings(self, branch_domain):
        schema, db, modes, _, _, _ = branch_domain
        target = schema.get("visits")
        rng2 = np.random.default_rng(8)
        entries = [(Atom(target, (Constant(f"e{i:05d}"),)), int(y))
                   for i, y in enumerate(rng2.poisson(1.5, 1200))]
        examples = ExampleSet(target, entries)
        config = HybridConfig(iterations=50, eta_poisson=0.5)
        model = train_hybrid(examples, db, [], config)
        mean = sum(v for _, v in entries) / len(entries)
        rate = model.predict(entries[0][0], db)
        assert abs(rate - mean) / mean <= 1e-3

    def test_gaussian_branch_means(self, branch_domain):
        schema, db, modes, rng, sick_flags, n = branch_domain
        target = schema.get("weight")
        rng2 = np.random.default_rng(9)
        entries = []
        for i in range(n):
            mu = 4.0 if sick_flags[i] else 1.0
            entries.append((Atom(target, (Constant(f"e{i:05d}"),)),
                            float(rng2.normal(mu, 1.0))))
        examples = ExampleSet(target, entries)
        model = train_hybrid(examples, db, modes,
                             HybridConfig(iterations=25))
        for branch in (True, False):
            members = [(a, v) for (a, v), s in zip(entries, sick_flags) if s == branch]
            sample_mean = sum(v for _, v in members) / len(members)
            mu, sigma = model.predict(members[0][0], db)
            assert abs(mu - sample_mean) < 0.05
            assert 0.8 < sigma < 1.2

    def test_multinomial_frequency_recovery(self, branch_domain):
        schema, db, modes, _, _, _ = branch_domain
        target = schema.get("grade")
        rng2 = np.random.default_rng(10)
        entries = [(Atom(target, (Constant(f"e{i:05d}"),)), int(k))
                   for i, k in enumerate(rng2.choice(3, size=1500,
                                                     p=[0.5, 0.3, 0.2]))]
        examples = ExampleSet(target, entries)
        model = train_hybrid(examples, db, modes,
                             HybridConfig(iterations=30))
        freq = [sum(1 for _, v in entries if v == k) / len(entries)
                for k in range(3)]
        probs = model.predict(entries[0][0], db)
        assert max(abs(f - p) for f, p in zip(freq, probs)) < 0.02

    @pytest.mark.parametrize("name,value,header,keys", [
        ("grade", 2, "kind=multinomial:3 ", ["class=0", "class=1", "class=2"]),
        ("visits", 3, "kind=poisson ", ["rate"]),
        ("weight", 1.5, "kind=gaussian ", ["mu", "sigma"]),
    ])
    def test_value_kind_dispatch(self, branch_domain, name, value, header, keys):
        schema, db, modes, _, _, _ = branch_domain
        target = schema.get(name)
        examples = ExampleSet(target, [(Atom(target, (Constant(f"e{i:05d}"),)), value)
                                       for i in range(20)])
        text = serialize_hybrid(train_hybrid(examples, db, modes, HybridConfig(iterations=1)))
        assert header in text.splitlines()[0]
        assert [l.split()[1] for l in text.splitlines() if l.startswith("function ")] == keys

    def test_boolean_target_is_for_the_rfgb_learner(self, branch_domain):
        schema, db, modes, _, _, _ = branch_domain
        target = schema.get("sick")
        examples = ExampleSet(target, [(Atom(target, (Constant("e00000"),)), True)])
        with pytest.raises(ValueError, match="sick is boolean; use the rfgb learner"):
            train_hybrid(examples, db, modes, HybridConfig(iterations=1))

    @pytest.mark.parametrize("name,value,iteration0", [
        ("grade", 1, 1.0 / 3.0),
        ("visits", 2, math.exp(-1.0) / 2.0),
        ("weight", 1.0, math.exp(-0.5 / 1.5 ** 2) / (1.5 * math.sqrt(2.0 * math.pi))),
    ])
    def test_tree_free_copy_gives_the_iteration_0_value(self, branch_domain, name, value,
                                                        iteration0):
        # a model rebuilt by position with every tree removed predicts the
        # untrained value: uniform classes, rate e^0, N(0, sigma0)
        schema, db, modes, _, _, _ = branch_domain
        target = schema.get(name)
        examples = ExampleSet(target, [(Atom(target, (Constant(f"e{i:05d}"),)), value)
                                       for i in range(20)])
        m = parse_hybrid(serialize_hybrid(train_hybrid(
            examples, db, modes, HybridConfig(iterations=2, sigma0=1.5))), schema)
        empty = HybridModel(m.target, m.kind, {k: [] for k in m.functions}, m.eta, m.sigma0)
        atom = examples.entries[0][0]
        assert empty.prob_of_truth(atom, value, db) == pytest.approx(iteration0, rel=1e-12)
        assert m.prob_of_truth(atom, value, db) != empty.prob_of_truth(atom, value, db)

    def test_model_kind_must_be_the_target_kind(self, branch_domain):
        schema = branch_domain[0]
        with pytest.raises(ValueError, match="is not visits's value kind 'count'"):
            HybridModel(schema.get("visits"), "continuous", {"mu": [], "sigma": []}, 1.0)
        with pytest.raises(ValueError, match="sick is boolean; use the rfgb learner"):
            HybridModel(schema.get("sick"), "boolean", {}, 1.0)

    def test_empty_target_set_rejected(self, branch_domain):
        schema, db, modes, _, _, _ = branch_domain
        empty = ExampleSet(schema.get("visits"), [])
        with pytest.raises(ValueError, match="no examples"):
            train_hybrid(empty, db, modes, HybridConfig())


class TestHybridModelFiles:
    def test_poisson_roundtrip(self, branch_domain):
        schema, db, modes, _, _, _ = branch_domain
        target = schema.get("visits")
        rng2 = np.random.default_rng(11)
        entries = [(Atom(target, (Constant(f"e{i:05d}"),)), int(y))
                   for i, y in enumerate(rng2.poisson(2.0, 200))]
        model = train_hybrid(ExampleSet(target, entries), db, modes,
                             HybridConfig(iterations=5))
        text = serialize_hybrid(model)
        again = parse_hybrid(text, schema)
        assert serialize_hybrid(again) == text
        assert again.predict(entries[0][0], db) == model.predict(entries[0][0], db)

    def test_gaussian_roundtrip_keeps_sigma0(self, branch_domain):
        schema, db, modes, _, sick_flags, n = branch_domain
        target = schema.get("weight")
        rng2 = np.random.default_rng(12)
        entries = [(Atom(target, (Constant(f"e{i:05d}"),)), float(rng2.normal(0, 2)))
                   for i in range(150)]
        model = train_hybrid(ExampleSet(target, entries), db, modes,
                             HybridConfig(iterations=4, sigma0=1.5))
        again = parse_hybrid(serialize_hybrid(model), schema)
        assert again.sigma0 == 1.5
        assert again.predict(entries[0][0], db) == model.predict(entries[0][0], db)

    @pytest.mark.parametrize("body", [
        "",
        "tree 0\nleaf 0 value=1.0\nfunction rate\n",
        "function rate\nfunction mu\n",
    ])
    def test_functions_must_match_the_kind(self, branch_domain, body):
        schema = branch_domain[0]
        text = "model hybrid target=visits/1 kind=poisson eta=0.5\n" + body
        with pytest.raises(ParseError):
            parse_hybrid(text, schema)


_BAD_PARENTS = [
    ("", "parent '' is empty"),
    ("dose,", "parent '' is empty"),
    ("visits", "parent 'visits' is the target"),
    ("dose,height", "parent 'height' is not in the schema"),
    ("knows", "parent 'knows' does not have arity 1"),
    ("dose,age,dose", "parent 'dose' appears twice"),
    ("sick", "parent 'sick' is boolean, not count or continuous"),
    ("dose,grade", "parent 'grade' is multiclass, not count or continuous"),
]


class TestMixedModelFiles:
    @pytest.mark.parametrize("parents,message", _BAD_PARENTS)
    def test_malformed_parents_are_a_line_1_parse_error(self, parents, message):
        text = (f"model hybrid target=visits/1 kind=poisson eta=0.5 parents={parents}\n"
                "function rate\ntree 0\nleaf 0 value=0.0\n")
        with pytest.raises(ParseError, match=f"^line 1: {message}$") as caught:
            parse_hybrid(text, parse_schema(HYBRID_SCHEMA_TEXT))
        assert caught.value.line == 1

    @pytest.mark.parametrize("parents,message", _BAD_PARENTS)
    def test_train_mixed_rejects_the_same_parents(self, parents, message):
        _, db, modes, dataset = build_hybrid_domain()
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_mixed(dataset["visits"], db, modes, parents.split(","),
                        HybridConfig(iterations=1))

    def test_functions_must_match_the_parents(self):
        schema = parse_schema(HYBRID_SCHEMA_TEXT)
        header = "model hybrid target=weight/1 kind=gaussian eta=0.5 sigma0=1.0 parents=dose\n"
        trees = "".join(f"function {name}\ntree 0\nleaf 0 value=0.5\n"
                        for name in ("mu", "mu*dose", "sigma"))
        model = parse_hybrid(header + trees, schema)
        assert model.parents == ("dose",) and sorted(model.functions) == [(0, 0), (0, 1)]
        assert serialize_hybrid(model) == header + trees
        with pytest.raises(ParseError, match=r"gaussian models need the functions "
                                             r"\['mu', 'mu\*dose', 'sigma'\]"):
            parse_hybrid(header + trees.replace("mu*dose", "mu*age"), schema)


class TestMixedParentModel:
    def test_gaussian_coefficient_recovery(self):
        # y = 1 + 2 x for plain entities, y = -1 - x for marked ones
        schema = parse_schema("""
predicate: marked/1 boolean.
predicate: x/1 continuous.
predicate: y/1 continuous.
""")
        modes = parse_modes("mode: marked(+).", schema)
        rng = np.random.default_rng(31)
        facts, entries = [], []
        target = schema.get("y")
        for i in range(800):
            e = Constant(f"e{i:04d}")
            marked = i % 2 == 0
            if marked:
                facts.append(Atom(schema.get("marked"), (e,), True))
            x = float(rng.uniform(-2, 2))
            facts.append(Atom(schema.get("x"), (e,), x))
            mu = (-1.0 - x) if marked else (1.0 + 2.0 * x)
            entries.append((Atom(target, (e,)), float(rng.normal(mu, 1.0))))
        db = FactBase(schema, facts)
        # eta below 2 sigma^2 / E[x^2] keeps the coefficient recursion stable
        model = train_mixed(ExampleSet(target, entries), db, modes, ["x"],
                            HybridConfig(iterations=40, eta_mu=0.5))
        for marked, (b0, b1) in ((True, (-1.0, -1.0)), (False, (1.0, 2.0))):
            sample = next(a for (a, _), m in zip(
                entries, [i % 2 == 0 for i in range(800)]) if m == marked)
            mu, sigma = model.predict(sample, db)
            x = db.lookup("x", sample.args)
            assert mu == pytest.approx(b0 + b1 * x, abs=0.25)

    def test_poisson_log_linear_recovery(self):
        schema = parse_schema("""
predicate: x/1 continuous.
predicate: hits/1 count.
""")
        modes = parse_modes("", schema)
        rng = np.random.default_rng(33)
        facts, entries = [], []
        target = schema.get("hits")
        for i in range(1500):
            e = Constant(f"e{i:04d}")
            x = float(rng.uniform(-1, 1))
            facts.append(Atom(schema.get("x"), (e,), x))
            lam = math.exp(0.5 + 0.8 * x)
            entries.append((Atom(target, (e,)), int(rng.poisson(lam))))
        db = FactBase(schema, facts)
        model = train_mixed(ExampleSet(target, entries), db, modes, ["x"],
                            HybridConfig(iterations=30, eta_poisson=0.3))
        for x_probe in (-0.8, 0.0, 0.8):
            probe = min(entries, key=lambda ev: abs(db.lookup("x", ev[0].args) - x_probe))[0]
            x = db.lookup("x", probe.args)
            assert model.predict(probe, db) == pytest.approx(
                math.exp(0.5 + 0.8 * x), rel=0.15)

    @pytest.mark.parametrize("name", ["visits", "weight", "grade"])
    def test_a_hybrid_model_is_the_mixed_model_with_no_parents(self, name):
        _, db, modes, dataset = build_hybrid_domain()
        config = HybridConfig(iterations=4, tree=TreeConfig(max_leaves=4), sigma0=1.5)
        plain = train_hybrid(dataset[name], db, modes, config)
        mixed = train_mixed(dataset[name], db, modes, [], config)
        assert serialize_hybrid(mixed) == serialize_hybrid(plain)

    @pytest.mark.parametrize("parents", [[], ["dose", "age"]])
    @pytest.mark.parametrize("name", ["visits", "weight", "grade"])
    def test_training_outputs_equal_predict_bit_for_bit(self, name, parents, monkeypatch):
        # the leaf sums of every function, the last column boost_step was
        # given for it, are the finished model's values at every training
        # row; and a 3-iteration run first fits, in its third iteration, the
        # residuals of the 2-iteration model's predictions
        _, db, modes, dataset = build_hybrid_domain()
        examples = dataset[name]
        atoms = [atom for atom, _ in examples.entries]

        def train(iterations):
            calls, real_step = [], hybrid.boost_step

            def step(*args):
                calls.append((args[1], args[4], real_step(*args)))
                return calls[-1][2]
            config = HybridConfig(iterations=iterations, tree=TreeConfig(max_leaves=4))
            with monkeypatch.context() as patched:
                patched.setattr(hybrid, "boost_step", step)
                if parents:
                    return train_mixed(examples, db, modes, parents, config), calls
                return train_hybrid(examples, db, modes, config), calls

        model, calls = train(3)
        coefficients, sigma_trees = model.functions, model.sigma_trees
        columns = []
        for trees in [*coefficients.values()] + ([sigma_trees] if name == "weight" else []):
            assert len(trees) == 3
            columns.append(next(psis for _, psis, tree in reversed(calls) if tree is trees[-1]))
            assert [repr(s) for s in columns[-1]] \
                == [repr(evaluate(trees, atom, db)) for atom in atoms]
        if name == "weight":
            assert [repr(max(hybrid.SIGMA_FLOOR, model.sigma0 + s)) for s in columns[-1]] \
                == [repr(model.predict(atom, db)[1]) for atom in atoms]

        def from_formulas(atom):
            # the predicted value from each evaluated coefficient function and
            # the public formulas
            c = {key: evaluate(trees, atom, db) for key, trees in coefficients.items()}
            xs = [float(db.lookup(p, atom.args)) for p in parents]
            n_classes = len(c) // (len(xs) + 1)
            slopes = [[c[(k, j + 1)] for j in range(len(xs))] for k in range(n_classes)]
            if name == "grade":
                return [mixed_softmax_prob([c[(k, 0)] for k in range(n_classes)], slopes, xs, k)
                        for k in range(n_classes)]
            if name == "visits":
                return mixed_poisson_rate(c[(0, 0)], slopes[0], xs)
            sigma = model.sigma0 + evaluate(sigma_trees, atom, db)
            return mixed_gaussian_mean(c[(0, 0)], slopes[0], xs), max(hybrid.SIGMA_FLOOR, sigma)
        assert [repr(model.predict(atom, db)) for atom in atoms] \
            == [repr(from_formulas(atom)) for atom in atoms]

        # one fit per function per iteration; the third iteration's first
        # column is one fit per class
        assert len(calls) == 3 * (len(coefficients) + (name == "weight"))
        first = calls[2 * len(calls) // 3:][:len(coefficients) // (len(parents) + 1)]
        earlier, _ = train(2)
        out = [earlier.predict(atom, db) for atom in atoms]
        for k, (fit, _, _) in enumerate(first):
            if name == "grade":
                want = [multinomial_gradient(y, p)[k] for (_, y), p in zip(examples.entries, out)]
            elif name == "visits":
                want = [y - rate for (_, y), rate in zip(examples.entries, out)]
            else:
                want = [gaussian_gradients(y, *mu_sigma)[0]
                        for (_, y), mu_sigma in zip(examples.entries, out)]
            assert [repr(g) for _, g in fit] == [repr(w) for w in want]

    def test_missing_parent_fact_rejected(self):
        schema = parse_schema("""
predicate: x/1 continuous.
predicate: y/1 continuous.
""")
        db = FactBase(schema, [])
        target = schema.get("y")
        examples = ExampleSet(target, [(Atom(target, (Constant("a"),)), 1.0)])
        with pytest.raises(ValueError, match="no x fact"):
            train_mixed(examples, db, parse_modes("", schema), ["x"],
                        HybridConfig(iterations=1))

    def test_target_too_large_for_floats_is_a_value_error(self):
        # the squared residual of 1e200 passes float range inside the fit
        schema = parse_schema("""
predicate: sick/1 boolean.
predicate: bp/1 continuous.
predicate: weight/1 continuous.
""")
        names = [Constant(f"e{i:02d}") for i in range(11)]
        db = FactBase(schema, [Atom(schema.get("bp"), (e,), float(i))
                               for i, e in enumerate(names)]
                      + [Atom(schema.get("sick"), (names[1],), True)])
        values = [float(i) for i in range(10)] + [1e200]
        target = schema.get("weight")
        examples = ExampleSet(target, [(Atom(target, (e,)), v) for e, v in zip(names, values)])
        with pytest.raises(ValueError,
                           match="target weight: values too large for float arithmetic"):
            train_mixed(examples, db, parse_modes("mode: sick(+).", schema), ["bp"],
                        HybridConfig(iterations=3))


class TestAggregation:
    def _trajectories(self, schema):
        from relboost.rctbn import parse_trajectories
        text = """
traj p1
t=0.0 angio(p1)=false
t=0.0 smoke(p1)=false
t=0.0 bp(p1)=120.0
t=1.0 smoke(p1)=true
t=2.0 bp(p1)=140.0
t=3.0 angio(p1)=true
t=4.0 bp(p1)=160.0
horizon=5.0
traj p2
t=0.0 angio(p2)=false
t=0.0 smoke(p2)=false
t=0.0 bp(p2)=100.0
t=2.5 bp(p2)=90.0
horizon=5.0
"""
        return parse_trajectories(text, schema)

    @pytest.fixture()
    def agg_schema(self):
        return parse_schema("""
predicate: angio/2 boolean temporal.
predicate: smoke/2 boolean temporal.
predicate: bp/2 continuous temporal.
""")

    def test_indicator_and_mean(self, agg_schema):
        trajs = self._trajectories(agg_schema)
        db, examples = aggregate_trajectories(trajs, agg_schema, "angio",
                                              "indicator", "mean")
        values = {a.args[0].symbol: v for a, v in examples.entries}
        assert values == {"p1": 1, "p2": 0}
        assert db.lookup("smoke_ind", (Constant("p1"),)) is True
        assert db.lookup("smoke_ind", (Constant("p2"),)) is None
        # p1's window ends at the first occurrence (t=3): mean of 120, 140
        assert db.lookup("bp_mean", (Constant("p1"),)) == pytest.approx(130.0)
        assert db.lookup("bp_mean", (Constant("p2"),)) == pytest.approx(95.0)

    def test_count_and_extremes(self, agg_schema):
        trajs = self._trajectories(agg_schema)
        db, _ = aggregate_trajectories(trajs, agg_schema, "angio", "count", "max")
        assert db.lookup("smoke_cnt", (Constant("p1"),)) == 1
        assert db.lookup("smoke_cnt", (Constant("p2"),)) == 0
        assert db.lookup("bp_max", (Constant("p1"),)) == pytest.approx(140.0)
        db, _ = aggregate_trajectories(trajs, agg_schema, "angio", "count", "latest")
        assert db.lookup("bp_latest", (Constant("p1"),)) == pytest.approx(140.0)
        db, _ = aggregate_trajectories(trajs, agg_schema, "angio", "count", "min")
        assert db.lookup("bp_min", (Constant("p2"),)) == pytest.approx(90.0)

    @pytest.mark.parametrize("bool_agg,name,values", [
        ("indicator", "angio_ind", (True, None)),
        ("count", "angio_cnt", (1, 0)),
    ])
    def test_other_entities_target_streams_are_context(self, agg_schema, bool_agg,
                                                       name, values):
        # d1's angio stream in p1's block aggregates like any boolean stream,
        # over p1's window (up to t=3.0), and is not p1's target
        from relboost.rctbn import parse_trajectories
        trajs = parse_trajectories("""
traj p1
t=0.0 angio(p1)=false
t=0.0 angio(d1)=false
t=0.0 angio(d2)=false
t=1.0 angio(d1)=true
t=3.0 angio(p1)=true
t=4.0 angio(d2)=true
horizon=5.0
""", agg_schema)
        db, examples = aggregate_trajectories(trajs, agg_schema, "angio", bool_agg, "mean")
        assert [(a.args[0].symbol, v) for a, v in examples.entries] == [("p1", 1)]
        assert (db.lookup(name, (Constant("d1"),)), db.lookup(name, (Constant("d2"),))) \
            == values
        assert db.lookup(name, (Constant("p1"),)) is None

    def test_bad_aggregator_rejected(self, agg_schema):
        with pytest.raises(ValueError):
            aggregate_trajectories([], agg_schema, "angio", "sum", "mean")

    PINNED_TRAJECTORIES = """
traj p1
t=0.0 cvd(p1)=false
t=0.0 cvd(d1)=false
t=0.0 smoke(p1)=false
t=0.0 smoke(d1)=false
t=0.0 bp(p1)=120.0
t=0.0 visits(p1)=0
t=0.0 grade(p1)=0
t=1.0 cvd(d1)=true
t=1.5 smoke(p1)=true
t=2.0 bp(p1)=141.0
t=2.5 visits(p1)=2
t=3.0 cvd(p1)=true
t=3.5 grade(p1)=2
t=4.0 bp(p1)=160.0
horizon=5.0
traj p2
t=0.0 cvd(p2)=true
t=0.0 smoke(p2)=true
t=0.0 bp(p2)=100.0
t=0.0 visits(p2)=1
t=0.0 grade(p2)=1
t=1.0 cvd(p2)=false
t=2.0 bp(p2)=90.0
t=3.0 cvd(p2)=true
horizon=4.0
traj p3
t=0.0 cvd(p3)=false
t=0.0 smoke(p3)=false
t=0.0 bp(p3)=110.1
t=0.0 visits(p3)=3
t=0.0 grade(p3)=2
t=1.0 smoke(p3)=true
t=2.0 bp(p3)=115.2
t=3.0 smoke(p3)=false
t=4.0 smoke(p3)=true
t=5.0 visits(p3)=4
horizon=6.0
"""

    # (bool_agg, num_agg) -> (derived schema, derived facts), as serialized.
    # p1's window ends at t=3.0 and holds d1's cvd stream as context; p2's
    # target is true at t=0.0, so its window is the t=0.0 instant; p3's
    # target never occurs, so its window is the whole trajectory.
    PINNED = {
        ("indicator", "min"): (
            """\
predicate: bp_min/1 continuous.
predicate: cvd_count/1 count.
predicate: cvd_ind/1 boolean.
predicate: grade_latest/1 multiclass(3).
predicate: smoke_ind/1 boolean.
predicate: visits_latest/1 count.
""",
            """\
bp_min(p1)=120.0.
bp_min(p2)=100.0.
bp_min(p3)=110.1.
cvd_ind(d1).
grade_latest(p1)=0.
grade_latest(p2)=1.
grade_latest(p3)=2.
smoke_ind(p1).
smoke_ind(p2).
smoke_ind(p3).
visits_latest(p1)=2.
visits_latest(p2)=1.
visits_latest(p3)=4.
""",
        ),
        ("indicator", "max"): (
            """\
predicate: bp_max/1 continuous.
predicate: cvd_count/1 count.
predicate: cvd_ind/1 boolean.
predicate: grade_latest/1 multiclass(3).
predicate: smoke_ind/1 boolean.
predicate: visits_latest/1 count.
""",
            """\
bp_max(p1)=141.0.
bp_max(p2)=100.0.
bp_max(p3)=115.2.
cvd_ind(d1).
grade_latest(p1)=0.
grade_latest(p2)=1.
grade_latest(p3)=2.
smoke_ind(p1).
smoke_ind(p2).
smoke_ind(p3).
visits_latest(p1)=2.
visits_latest(p2)=1.
visits_latest(p3)=4.
""",
        ),
        ("indicator", "mean"): (
            """\
predicate: bp_mean/1 continuous.
predicate: cvd_count/1 count.
predicate: cvd_ind/1 boolean.
predicate: grade_latest/1 multiclass(3).
predicate: smoke_ind/1 boolean.
predicate: visits_latest/1 count.
""",
            """\
bp_mean(p1)=130.5.
bp_mean(p2)=100.0.
bp_mean(p3)=112.65.
cvd_ind(d1).
grade_latest(p1)=0.
grade_latest(p2)=1.
grade_latest(p3)=2.
smoke_ind(p1).
smoke_ind(p2).
smoke_ind(p3).
visits_latest(p1)=2.
visits_latest(p2)=1.
visits_latest(p3)=4.
""",
        ),
        ("indicator", "latest"): (
            """\
predicate: bp_latest/1 continuous.
predicate: cvd_count/1 count.
predicate: cvd_ind/1 boolean.
predicate: grade_latest/1 multiclass(3).
predicate: smoke_ind/1 boolean.
predicate: visits_latest/1 count.
""",
            """\
bp_latest(p1)=141.0.
bp_latest(p2)=100.0.
bp_latest(p3)=115.2.
cvd_ind(d1).
grade_latest(p1)=0.
grade_latest(p2)=1.
grade_latest(p3)=2.
smoke_ind(p1).
smoke_ind(p2).
smoke_ind(p3).
visits_latest(p1)=2.
visits_latest(p2)=1.
visits_latest(p3)=4.
""",
        ),
        ("count", "min"): (
            """\
predicate: bp_min/1 continuous.
predicate: cvd_cnt/1 count.
predicate: cvd_count/1 count.
predicate: grade_latest/1 multiclass(3).
predicate: smoke_cnt/1 count.
predicate: visits_latest/1 count.
""",
            """\
bp_min(p1)=120.0.
bp_min(p2)=100.0.
bp_min(p3)=110.1.
cvd_cnt(d1)=1.
grade_latest(p1)=0.
grade_latest(p2)=1.
grade_latest(p3)=2.
smoke_cnt(d1)=0.
smoke_cnt(p1)=1.
smoke_cnt(p2)=1.
smoke_cnt(p3)=2.
visits_latest(p1)=2.
visits_latest(p2)=1.
visits_latest(p3)=4.
""",
        ),
        ("count", "max"): (
            """\
predicate: bp_max/1 continuous.
predicate: cvd_cnt/1 count.
predicate: cvd_count/1 count.
predicate: grade_latest/1 multiclass(3).
predicate: smoke_cnt/1 count.
predicate: visits_latest/1 count.
""",
            """\
bp_max(p1)=141.0.
bp_max(p2)=100.0.
bp_max(p3)=115.2.
cvd_cnt(d1)=1.
grade_latest(p1)=0.
grade_latest(p2)=1.
grade_latest(p3)=2.
smoke_cnt(d1)=0.
smoke_cnt(p1)=1.
smoke_cnt(p2)=1.
smoke_cnt(p3)=2.
visits_latest(p1)=2.
visits_latest(p2)=1.
visits_latest(p3)=4.
""",
        ),
        ("count", "mean"): (
            """\
predicate: bp_mean/1 continuous.
predicate: cvd_cnt/1 count.
predicate: cvd_count/1 count.
predicate: grade_latest/1 multiclass(3).
predicate: smoke_cnt/1 count.
predicate: visits_latest/1 count.
""",
            """\
bp_mean(p1)=130.5.
bp_mean(p2)=100.0.
bp_mean(p3)=112.65.
cvd_cnt(d1)=1.
grade_latest(p1)=0.
grade_latest(p2)=1.
grade_latest(p3)=2.
smoke_cnt(d1)=0.
smoke_cnt(p1)=1.
smoke_cnt(p2)=1.
smoke_cnt(p3)=2.
visits_latest(p1)=2.
visits_latest(p2)=1.
visits_latest(p3)=4.
""",
        ),
        ("count", "latest"): (
            """\
predicate: bp_latest/1 continuous.
predicate: cvd_cnt/1 count.
predicate: cvd_count/1 count.
predicate: grade_latest/1 multiclass(3).
predicate: smoke_cnt/1 count.
predicate: visits_latest/1 count.
""",
            """\
bp_latest(p1)=141.0.
bp_latest(p2)=100.0.
bp_latest(p3)=115.2.
cvd_cnt(d1)=1.
grade_latest(p1)=0.
grade_latest(p2)=1.
grade_latest(p3)=2.
smoke_cnt(d1)=0.
smoke_cnt(p1)=1.
smoke_cnt(p2)=1.
smoke_cnt(p3)=2.
visits_latest(p1)=2.
visits_latest(p2)=1.
visits_latest(p3)=4.
""",
        ),
    }

    @pytest.mark.parametrize("bool_agg,num_agg", sorted(PINNED))
    def test_derived_schema_facts_and_examples_are_pinned(self, bool_agg, num_agg):
        from relboost.rctbn import parse_trajectories
        schema = parse_schema("""
predicate: cvd/2 boolean temporal.
predicate: smoke/2 boolean temporal.
predicate: bp/2 continuous temporal.
predicate: visits/2 count temporal.
predicate: grade/2 multiclass(3) temporal.
""")
        trajs = parse_trajectories(self.PINNED_TRAJECTORIES, schema)
        db, examples = aggregate_trajectories(trajs, schema, "cvd", bool_agg, num_agg)
        assert (serialize_schema(db.schema), serialize_facts(db)) \
            == self.PINNED[(bool_agg, num_agg)]
        assert serialize_examples(examples) == \
            "cvd_count(p1)=1.\ncvd_count(p2)=2.\ncvd_count(p3)=0.\n"
