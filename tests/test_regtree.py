"""Relational regression-tree learner tests, with brute-force oracles."""

import builtins
import gc
import math
import operator
import random
from functools import reduce

import numpy as np
import pytest

from relboost.logic import (
    Atom,
    Constant,
    FactBase,
    ParseError,
    Variable,
    parse_facts,
    parse_literal_list,
    parse_modes,
    parse_schema,
)
from relboost import regtree
from relboost.regtree import (
    Inner,
    Leaf,
    NodeTest,
    RegressionTree,
    RoutingCache,
    TreeConfig,
    _score_candidate,
    _sse,
    boost_step,
    enumerate_tests,
    evaluate,
    fit_tree,
    parse_tree,
    serialize_tree,
)
from relboost import boost, hybrid, rctbn
from tests import grounding_reference as reference
from tests.conftest import build_hybrid_domain, build_linked_domain, compensated_sum


def score_split(rows: list, gradients: list, test: NodeTest) -> float:
    """Score of splitting the (atom, db) rows with their gradients by `test`
    as if at the tree root.

    The score is the summed SSE of the two children about their means;
    lower is better, and splitting a pure node cannot improve on the parent
    SSE.  Routing is the fit's own (`_score_candidate`).
    """
    cache = RoutingCache()
    slots = np.array([cache.slot(atom, db) for atom, db in rows], dtype=np.intp)
    above = cache.root(rows[0][0].pred.arity)
    hits = _score_candidate(slots, above.below(test), above, cache)
    gradients = np.array(gradients, dtype=np.float64)
    return _sse(gradients[hits]) + _sse(gradients[~hits])


def _atoms(target, names):
    return [Atom(target, (Constant(n),)) for n in names]


@pytest.fixture(scope="module")
def tiny_domain():
    schema = parse_schema("""
predicate: target/1 boolean.
predicate: hot/1 boolean.
predicate: cold/1 boolean.
""")
    db = parse_facts("hot(a).\nhot(b).\ncold(c).\ncold(d).", schema)
    modes = parse_modes("mode: hot(+).\nmode: cold(+).", schema)
    return schema, db, modes


class TestFitTree:
    def test_constant_gradients_single_leaf(self, tiny_domain):
        schema, db, modes = tiny_domain
        target = schema.get("target")
        rows = [(a, db) for a in _atoms(target, "abcd")]
        tree = fit_tree(rows, [0.73] * len(rows), modes, TreeConfig())
        assert isinstance(tree.root, Leaf)
        assert tree.root.value == pytest.approx(0.73)

    def test_two_examples_one_literal_split(self, tiny_domain):
        schema, db, modes = tiny_domain
        target = schema.get("target")
        rows = [(Atom(target, (Constant("a"),)), db), (Atom(target, (Constant("c"),)), db)]
        tree = fit_tree(rows, [1.0, -1.0], modes, TreeConfig())
        assert isinstance(tree.root, Inner)
        values = {tree.root.yes.value, tree.root.no.value}
        assert values == {1.0, -1.0}
        assert tree.leaf_count() == 2

    def test_root_matches_bruteforce_single_literal(self, linked_domain):
        schema, db, modes, examples = linked_domain
        target = schema.get("target")
        rows = [(a, db) for a, _ in examples.entries]
        grads = [1.0 if l else -1.0 for _, l in examples.entries]
        config = TreeConfig(max_leaves=2, max_new_literals_per_node=2)
        tree = fit_tree(rows, grads, modes, config)
        # oracle: score every candidate test at the root independently
        cands = enumerate_tests([Variable("V0")], modes, [db], config,
                                frozenset())
        best = min(cands, key=lambda t: (score_split(rows, grads, t), t.text()))
        assert isinstance(tree.root, Inner)
        assert tree.root.test.text() == best.text()

    def test_empty_examples_error(self, tiny_domain):
        schema, db, modes = tiny_domain
        with pytest.raises(ValueError, match="empty"):
            fit_tree([], [], modes, TreeConfig())

    @pytest.mark.parametrize("case,message", [
        ("nan", "gradient must be finite"),
        ("inf", "gradient must be finite"),
        ("variable", "is not ground"),
        ("mixed", "mix target predicates"),
    ])
    def test_bad_rows_are_rejected(self, tiny_domain, case, message):
        schema, db, modes = tiny_domain
        rows = [(a, db) for a in _atoms(schema.get("target"), "abcd")]
        grads = [1.0, -1.0, 0.5, -0.5]
        if case in ("nan", "inf"):
            grads[2] = float(case)
        elif case == "variable":
            rows[2] = (Atom(schema.get("target"), (Variable("X"),)), db)
        else:
            rows[2] = (Atom(schema.get("hot"), (Constant("c"),)), db)
        with pytest.raises(ValueError, match=message):
            fit_tree(rows, grads, modes, TreeConfig())
        if case in ("variable", "mixed"):   # checked where a run registers its rows
            with pytest.raises(ValueError, match=message):
                RoutingCache().register(rows)

    def test_slots_need_the_cache_that_registered_them(self, tiny_domain):
        schema, db, modes = tiny_domain
        rows = [(a, db) for a in _atoms(schema.get("target"), "abcd")]
        grads = [1.0, 1.0, -1.0, -1.0]
        cache = RoutingCache()
        slots = cache.register(rows)
        for bad, in_cache in (([0], None), ([0], RoutingCache()), (slots + [4], cache),
                              ([-1] + slots, cache)):
            with pytest.raises(ValueError, match="^slots must be registered in the given cache$"):
                fit_tree(bad, [1.0] * len(bad), modes, TreeConfig(), in_cache)
        assert serialize_tree(fit_tree(slots, grads, modes, TreeConfig(), cache)) \
            == serialize_tree(fit_tree(rows, grads, modes, TreeConfig()))

    def test_a_non_ground_target_is_one_error_in_fit_boost_and_evaluate(self, tiny_domain):
        schema, db, modes = tiny_domain
        target = schema.get("target")
        rows = [(a, db) for a in _atoms(target, "abcd")] + [(Atom(target, (Variable("X"),)), db)]
        grads = [1.0, 1.0, -1.0, -1.0, 0.5]
        message = r"^example target target\(X\) is not ground$"
        with pytest.raises(ValueError, match=message):
            fit_tree(rows, grads, modes, TreeConfig())
        # a boosting run registers every row, fitted or only routed, before
        # its first step
        with pytest.raises(ValueError, match=message):
            RoutingCache().register(rows)
        tree = fit_tree(rows[:4], grads[:4], modes, TreeConfig())
        assert isinstance(tree.root, Inner)
        for model in (tree, RegressionTree(target, Leaf(0.5))):
            with pytest.raises(ValueError, match=message):
                evaluate([model], rows[4][0], db)

    def test_leaf_values_are_weighted_means(self, linked_domain):
        schema, db, modes, examples = linked_domain
        target = schema.get("target")
        rng = random.Random(9)
        grads = [rng.uniform(-1, 1) for _ in examples.entries]
        tree = fit_tree([(a, db) for a, _ in examples.entries], grads, modes,
                        TreeConfig(max_leaves=4))

        def leaf_of(example):
            node = tree.root
            path = []
            while isinstance(node, Inner):
                ok = bool(list(_route([example], node.test, db)))
                path.append(ok)
                node = node.yes if ok else node.no
            return id(node), node.value

        def _route(exs, test, base):
            out = []
            for ex in exs:
                seed = {Variable("V0"): ex.target.args[0]}
                from relboost.logic import satisfies
                lits = test.literals
                if satisfies(lits, seed, base):
                    out.append(ex)
            return out

        # group examples by leaf via evaluate and recompute the mean
        groups = {}
        for (a, _), g in zip(examples.entries, grads):
            value = evaluate([tree], a, db)
            groups.setdefault(value, []).append(g)
        for value, members in groups.items():
            mean = sum(members) / len(members)
            assert value == pytest.approx(mean, abs=1e-12)

    def test_fitting_leaves_no_cyclic_garbage(self, linked_domain):
        schema, db, modes, examples = linked_domain
        rows = [(a, db) for a, _ in examples.entries]
        grads = [1.0 if l else -1.0 for _, l in examples.entries]
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            trees = [fit_tree(rows, grads, modes, TreeConfig()) for _ in range(5)]
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert all(isinstance(tree.root, Inner) for tree in trees)

    def test_more_leaves_never_increase_sse(self, linked_domain):
        schema, db, modes, examples = linked_domain
        rng = random.Random(3)
        rows = [(a, db) for a, _ in examples.entries]
        grads = [rng.uniform(-1, 1) for _ in rows]

        def training_sse(tree):
            return sum((g - evaluate([tree], a, db)) ** 2
                       for (a, _), g in zip(rows, grads))

        sses = [training_sse(fit_tree(rows, grads, modes, TreeConfig(max_leaves=L)))
                for L in (2, 4, 8)]
        assert sses[0] >= sses[1] - 1e-12
        assert sses[1] >= sses[2] - 1e-12


class TestScoreSplit:
    def test_sse_squares_by_multiplication(self):
        # float ** calls the C library's pow, which can round a square
        # differently from x * x (in about 1 of 1,300 random floats with
        # glibc 2.36); _sse must add correctly rounded products left to
        # right from 0.0, as Python's float sum does through 3.11 (but not
        # from 3.12, which compensates).  Short lists keep a one-ulp
        # difference in one square from being rounded away.
        rng = random.Random(26)
        for _ in range(20000):
            gradients = [rng.gauss(0, 1) * 10 ** rng.uniform(-3, 3)
                         for _ in range(rng.randint(1, 4))]
            mean = reduce(operator.add, gradients, 0.0) / len(gradients)
            total = 0.0
            for g in gradients:
                total += (g - mean) * (g - mean)
            assert _sse(np.array(gradients)) == total

    def test_sse_squares_by_multiplication_under_a_compensated_sum(self, monkeypatch):
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        self.test_sse_squares_by_multiplication()

    def test_uniform_gradients_no_improvement(self, tiny_domain):
        schema, db, modes = tiny_domain
        target = schema.get("target")
        rows = [(a, db) for a in _atoms(target, "abcd")]
        test = NodeTest(tuple(parse_literal_list("hot(V0)", schema)))
        parent = 0.0
        assert score_split(rows, [0.4] * len(rows), test) == pytest.approx(parent, abs=1e-12)

    def test_perfect_separator_zero_sse(self, tiny_domain):
        schema, db, modes = tiny_domain
        target = schema.get("target")
        rows = [(Atom(target, (Constant(c),)), db) for c in "abcd"]
        grads = [1.0 if c in "ab" else -1.0 for c in "abcd"]
        test = NodeTest(tuple(parse_literal_list("hot(V0)", schema)))
        assert score_split(rows, grads, test) == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_sse_recomputation(self, linked_domain):
        schema, db, modes, examples = linked_domain
        from relboost.logic import satisfies
        rng = random.Random(21)
        test = NodeTest(tuple(parse_literal_list("knows(V0,V1), flag(V1)", schema)))
        for _ in range(5):
            sample = rng.sample(examples.entries, 20)
            rows = [(a, db) for a, _ in sample]
            grads = [rng.gauss(0, 1) for _ in sample]
            got = score_split(rows, grads, test)
            yes, no = [], []
            for (a, _), g in zip(rows, grads):
                seed = {Variable("V0"): a.args[0]}
                (yes if satisfies(test.literals, seed, db) else no).append(g)

            def sse(group):
                if not group:
                    return 0.0
                mean = sum(group) / len(group)
                return sum((g - mean) ** 2 for g in group)

            assert got == pytest.approx(sse(yes) + sse(no), rel=1e-12)


def _loop_sse(gradients: list) -> float:
    """`_sse` as a Python loop over a list: the mean and the squared
    deviations added left to right from 0.0, an infinite total an
    OverflowError."""
    if not gradients:
        return 0.0
    total = 0.0
    for g in gradients:
        total += g
    mean = total / len(gradients)
    total = 0.0
    for g in gradients:
        d = g - mean
        total += d * d
    if total == math.inf:
        raise OverflowError("sum of squared errors out of float range")
    return total


def _two_database_rows(linked_domain) -> list:
    """(target, fact base) rows over the linked domain's fact base and a
    second one on the same entities, with friends of their own, where some
    rows repeat: rows that share a slot, as rctbn segments with one target
    and context do."""
    schema, db, _, examples = linked_domain
    rng = random.Random(41)
    atoms = [a for a, _ in examples.entries]
    lines = []
    for a in atoms:
        for friend in rng.sample(range(len(atoms)), rng.randint(1, 2)):
            lines.append(f"knows({a.args[0].symbol},g{friend:04d}).")
            if rng.random() < 0.3:
                lines.append(f"flag(g{friend:04d}).")
        if rng.random() < 0.5:
            lines.append(f"shade({a.args[0].symbol}).")
    other = parse_facts("\n".join(lines), schema)
    rows = [(a, db) for a in atoms] + [(a, other) for a in atoms]
    return rows + rng.sample(rows, 30)


class TestArrayScorer:
    """`_score_candidate` and `_sse` against a per-row Python loop: the
    mask over a leaf's slot array, the state column it reads and the
    children's squared errors."""

    @staticmethod
    def _check(rows: list, gradients: list, modes: list):
        config = TreeConfig()
        cache = RoutingCache()
        slots = np.array(cache.register(rows), dtype=np.intp)
        column = np.array(gradients, dtype=np.float64)
        dbs = list(dict.fromkeys(db for _, db in rows))
        root = cache.root(1)
        checked = 0

        def check(at, table, body, positions):
            """The partition of the rows at `positions` by the path clause
            `body`, through the array scorer and through a loop."""
            hits = _score_candidate(slots[positions], table, at, cache)
            holds = [next(reference.solutions(body, reference.seed(rows[i][0]), rows[i][1]),
                          None) is not None for i in positions]
            yes = [i for i, h in zip(positions, holds) if h]
            no = [i for i, h in zip(positions, holds) if not h]
            assert hits.dtype == bool and hits.tolist() == holds
            assert slots[positions][hits].tolist() == [slots[i] for i in yes]
            assert slots[positions][~hits].tolist() == [slots[i] for i in no]
            got = (_sse(column[positions][hits]), _sse(column[positions][~hits]))
            assert got == (_loop_sse([gradients[i] for i in yes]),
                           _loop_sse([gradients[i] for i in no]))
            nonlocal checked
            checked += 1
            return yes, no

        everyone = list(range(len(rows)))
        tables = []
        for test in enumerate_tests([Variable("V0")], modes, dbs, config, frozenset()):
            table = root.below(test)
            tables.append(table)
            yes, no = check(root, table, test.literals, everyone)
            texts = frozenset(str(l) for l in test.literals)
            for below in enumerate_tests(list(table.plan.grown), modes, dbs, config, texts):
                tables.append(table.below(below))
                check(table, tables[-1], test.literals + below.literals, yes)
            for other in enumerate_tests([Variable("V0")], modes, dbs, config, frozenset()):
                check(root, root.below(other), other.literals, no)     # read, not grounded
        # each table's state column agrees with its routings, slot by slot
        for table in tables:
            state = table.state[:len(cache._held)].tolist()
            assert state == [0 if s not in table.routings else 2 if table.routings[s] else 1
                             for s in range(len(cache._held))]
        return checked

    def test_root_and_depth_2_candidates_match_a_row_loop(self, linked_domain):
        schema, db, modes, examples = linked_domain
        rng = random.Random(37)
        rows = [(a, db) for a, _ in examples.entries]
        assert self._check(rows, [rng.gauss(0, 1) * 10 ** rng.uniform(-3, 3) for _ in rows],
                           modes) > 50

    def test_rows_sharing_slots_on_two_fact_bases_match_a_row_loop(self, linked_domain):
        rows = _two_database_rows(linked_domain)
        rng = random.Random(43)
        assert self._check(rows, [rng.gauss(0, 1) for _ in rows], linked_domain[2]) > 50

    def test_all_negative_zero_gradients_give_positive_zero(self, linked_domain):
        schema, db, modes, examples = linked_domain
        rows = [(a, db) for a, _ in examples.entries]
        zeros = np.full(len(rows), -0.0)
        assert _loop_sse(zeros.tolist()) == _sse(zeros) == 0.0
        assert math.copysign(1.0, _sse(zeros)) == 1.0
        assert serialize_tree(fit_tree(rows, zeros.tolist(), modes)) == "leaf 0 value=0.0\n"
        # a child of all -0.0 gradients is a leaf of value 0.0 too
        grads = [1.0 if label else -0.0 for _, label in examples.entries]
        text = serialize_tree(fit_tree(rows, grads, modes))
        assert text.startswith("node 0") and "value=0.0\n" in text and "value=-0.0" not in text
        self._check(rows, grads, modes)

    def test_an_overflowing_set_is_an_overflow_error(self, linked_domain):
        schema, db, modes, examples = linked_domain
        for gradients in ([1e200, -1e200, 3e200], [1e308, 1e308], [1.7e308, -1.7e308]):
            with pytest.raises(OverflowError):
                _loop_sse(gradients)
            with pytest.raises(OverflowError):     # and no numpy overflow warning
                _sse(np.array(gradients))
        rows = [(a, db) for a, _ in examples.entries]
        with pytest.raises(OverflowError):
            fit_tree(rows, [1e200 * (-1) ** i for i in range(len(rows))], modes)

    def test_the_state_column_grows_with_the_cache(self, linked_domain):
        schema, db, modes, examples = linked_domain
        atoms = [a for a, _ in examples.entries]
        cache = RoutingCache()
        rng = random.Random(47)
        tree = fit_tree([(a, db) for a in atoms[:10]], [rng.uniform(-1, 1) for _ in range(10)],
                        modes, TreeConfig(), cache)
        assert isinstance(tree.root, Inner)
        table = cache.root(1).below(tree.root.test)
        before = table.state[:10].tolist()
        assert 0 not in before and len(table.state) == 10
        values = [evaluate([tree], a, db, cache) for a in atoms]   # registers 26 more slots
        assert len(table.state) >= len(atoms) and table.state[:10].tolist() == before
        assert table.state[:len(atoms)].tolist() == [2 if table.routings[s] else 1
                                                     for s in range(len(atoms))]
        assert values == [evaluate([tree], a, db) for a in atoms]


def _cap_domain(decls, mode_lines):
    schema = parse_schema("predicate: target/1 boolean.\n"
                          + "".join(f"predicate: {d} boolean.\n" for d in decls))
    return schema, FactBase(schema), parse_modes("\n".join(mode_lines), schema)


def _v(*ids):
    return [Variable(f"V{i}") for i in ids]


class TestCandidateCaps:
    """The fixed caps on candidates: MAX_THRESHOLDS ">=" thresholds per
    numeric predicate, MAX_FRESH_VARIABLES fresh variables per node test."""

    @staticmethod
    def _thresholds(values):
        schema = parse_schema("predicate: target/1 boolean.\npredicate: bp/1 continuous.\n")
        db = parse_facts("".join(f"bp(e{i})={v}.\n" for i, v in enumerate(values)), schema)
        tests = enumerate_tests(_v(0), parse_modes("mode: bp(+).", schema), [db],
                                TreeConfig(), frozenset())
        assert [t.text() for t in tests].count("bp(V0)") == 1
        return sorted(t.literals[0].atom.value.threshold for t in tests
                      if t.literals[0].atom.value is not None)

    def test_numeric_predicate_thresholds_at_the_quantile_positions(self):
        # the minimum 0 is dropped first; the 8 thresholds sit at ranks
        # round(k * 18 / 7), k = 0..7, of the 19 values above it
        assert self._thresholds([10.0 * i for i in range(20)]) == \
            [10.0, 40.0, 60.0, 90.0, 110.0, 140.0, 160.0, 190.0]
        assert regtree.MAX_THRESHOLDS == 8

    def test_nine_values_give_every_value_above_the_minimum(self):
        assert self._thresholds([10.0 * i for i in range(9)]) == \
            [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
        assert self._thresholds([5.0, 1.0, 3.0]) == [3.0, 5.0]

    def test_single_literal_with_seven_fresh_variables_is_no_candidate(self):
        schema, db, modes = _cap_domain(["wide/8", "six/7"], [
            "mode: wide(+,-,-,-,-,-,-,-).", "mode: six(+,-,-,-,-,-,-)."])
        texts = [t.text() for t in enumerate_tests(_v(0), modes, [db], TreeConfig(),
                                                   frozenset())]
        assert not any("wide" in text for text in texts)
        assert texts == ["six(V0,V1,V2,V3,V4,V5,V6)"]

    def test_chain_fresh_variables_are_capped_per_test(self):
        schema, db, modes = _cap_domain(["quad/5", "link/2"], [
            "mode: quad(+,-,-,-,-).", "mode: link(+,-)."])
        texts = {t.text() for t in enumerate_tests(_v(0), modes, [db], TreeConfig(),
                                                   frozenset())}
        # 4 + 4 fresh variables is over the cap, 4 + 1 is not
        assert not any(text.count("quad") == 2 for text in texts)
        assert {text for text in texts if text.startswith("quad(V0,V1,V2,V3,V4), ")} == {
            f"quad(V0,V1,V2,V3,V4), link(V{k},V5)" for k in range(1, 5)}

    def test_fresh_variables_bound_on_the_path_do_not_count(self):
        # a leaf under "six(V0,...,V6)" has six fresh variables on its path
        schema, db, modes = _cap_domain(["six/7", "link/2"], [
            "mode: six(+,-,-,-,-,-,-).", "mode: link(+,-)."])
        path = frozenset({"six(V0,V1,V2,V3,V4,V5,V6)"})
        texts = {t.text() for t in enumerate_tests(_v(*range(7)), modes, [db],
                                                   TreeConfig(), path)}
        assert {f"link(V{k},V7)" for k in range(7)} <= texts
        assert "link(V3,V7), link(V7,V8)" in texts


class TestEvaluate:
    def test_single_leaf_everywhere(self, tiny_domain):
        schema, db, _ = tiny_domain
        target = schema.get("target")
        tree = RegressionTree(target, Leaf(0.31))
        for name in "abcd":
            assert evaluate([tree], Atom(target, (Constant(name),)), db) == 0.31

    def test_leftmost_path_regression_value(self, linked_domain):
        # a chain of satisfied tests routes to the leftmost leaf, whose
        # contribution of 0.827 maps through the sigmoid to about 0.696
        schema, db, modes, examples = linked_domain
        target = schema.get("target")
        lits = lambda s: tuple(parse_literal_list(s, schema))
        tree = RegressionTree(target, Inner(
            NodeTest(lits("knows(V0,V1)")),
            Inner(NodeTest(lits("flag(V1)")), Leaf(0.827), Leaf(-0.5)),
            Leaf(-1.2)))
        positive = next(a for a, l in examples.entries if l == 1)
        assert evaluate([tree], positive, db) == 0.827
        from relboost.boost import sigmoid_prob
        assert sigmoid_prob(0.827) == pytest.approx(0.696, abs=5e-4)

    def test_missing_predicate_takes_fails_branch(self, tiny_domain):
        schema, db, _ = tiny_domain
        target = schema.get("target")
        lits = tuple(parse_literal_list("hot(V0)", schema))
        tree = RegressionTree(target, Inner(NodeTest(lits), Leaf(1.0), Leaf(-1.0)))
        assert evaluate([tree], Atom(target, (Constant("zz"),)), db) == -1.0

    def test_pure_function(self, linked_domain):
        schema, db, modes, examples = linked_domain
        tree = fit_tree([(a, db) for a, _ in examples.entries],
                        [1.0 if l else -1.0 for _, l in examples.entries], modes,
                        TreeConfig(max_leaves=4))
        for a, _ in examples.entries[:6]:
            first = evaluate([tree], a, db)
            assert all(evaluate([tree], a, db) == first for _ in range(3))


def _greedy_oracle(regs, db, modes, config, schema):
    """Independent reimplementation of greedy best-first growth for tiny
    inputs of (atom, gradient) pairs: same scoring arithmetic, brute-force
    candidate scan."""
    from relboost.logic import satisfies

    def sse(group):
        if not group:
            return 0.0
        mean = sum(g for _, g in group) / len(group)
        return sum((g - mean) ** 2 for _, g in group)

    def route(group, path_lits, test):
        yes, no = [], []
        for ex in group:
            seed = {Variable("V0"): ex[0].args[0]}
            if satisfies(path_lits + list(test.literals), seed, db):
                yes.append(ex)
            else:
                no.append(ex)
        return yes, no

    leaves = [{"id": 0, "examples": regs, "path": [], "vars": [Variable("V0")],
               "fresh": 0, "open": True}]
    next_id = 1
    structure = {}
    while True:
        open_leaves = [l for l in leaves if l["open"]]
        n_leaves = len(leaves)
        if not open_leaves or n_leaves >= config.max_leaves:
            break
        leaf = sorted(open_leaves, key=lambda l: (-sse(l["examples"]), l["id"]))[0]
        cands = enumerate_tests(leaf["vars"], modes, [db],
                                config, frozenset(str(l) for l in leaf["path"]))
        best = None
        for test in cands:
            yes, no = route(leaf["examples"], leaf["path"], test)
            if not yes or not no:
                continue
            score = sse(yes) + sse(no)
            if score >= sse(leaf["examples"]) - 1e-12:
                continue
            if best is None or (score, test.text()) < (best[0], best[1].text()):
                best = (score, test, yes, no)
        if best is None:
            leaf["open"] = False
            continue
        _, test, yes, no = best
        fresh = [v for lit in test.literals for v in lit.atom.variables()
                 if v not in leaf["vars"]]
        fresh = list(dict.fromkeys(fresh))
        leaves.remove(leaf)
        yes_leaf = {"id": next_id, "examples": yes,
                    "path": leaf["path"] + list(test.literals),
                    "vars": leaf["vars"] + fresh,
                    "fresh": leaf["fresh"] + len(fresh), "open": True}
        no_leaf = {"id": next_id + 1, "examples": no, "path": leaf["path"],
                   "vars": list(leaf["vars"]), "fresh": leaf["fresh"], "open": True}
        next_id += 2
        structure[leaf["id"]] = (test.text(),
                                 yes_leaf, no_leaf)
        leaves.extend([yes_leaf, no_leaf])
        structure.setdefault(yes_leaf["id"], None)
        structure.setdefault(no_leaf["id"], None)

    def describe(leaf_id, leaf_by_id):
        entry = structure.get(leaf_id)
        if entry is None:
            leaf = leaf_by_id[leaf_id]
            mean = sum(g for _, g in leaf["examples"]) / len(leaf["examples"])
            return ("leaf", round(mean, 12))
        text, yes_leaf, no_leaf = entry
        return ("node", text,
                describe(yes_leaf["id"], leaf_by_id),
                describe(no_leaf["id"], leaf_by_id))

    leaf_by_id = {l["id"]: l for l in leaves}
    return describe(0, leaf_by_id)


def _describe_tree(node):
    if isinstance(node, Leaf):
        return ("leaf", round(node.value, 12))
    return ("node", node.test.text(), _describe_tree(node.yes),
            _describe_tree(node.no))


class TestGreedyOracle:
    def test_matches_exhaustive_greedy_on_tiny_inputs(self):
        schema = parse_schema("""
predicate: target/1 boolean.
predicate: p/1 boolean.
predicate: q/1 boolean.
predicate: r/2 boolean.
""")
        modes = parse_modes("mode: p(+).\nmode: q(+).\nmode: r(+,-).", schema)
        target = schema.get("target")
        rng = random.Random(42)
        consts = list("abcdef")
        for trial in range(12):
            lines = {}
            for c in consts:
                if rng.random() < 0.5:
                    lines[f"p({c})"] = f"p({c})."
                if rng.random() < 0.5:
                    lines[f"q({c})"] = f"q({c})."
                if rng.random() < 0.5:
                    other = rng.choice(consts)
                    lines[f"r({c},{other})"] = f"r({c},{other})."
            db = parse_facts("\n".join(lines[k] for k in sorted(lines)), schema)
            n = rng.randint(2, 6)
            regs = [(Atom(target, (Constant(c),)), rng.choice([-1.0, -0.25, 0.25, 1.0]))
                    for c in consts[:n]]
            config = TreeConfig(max_leaves=rng.choice([2, 3, 4]),
                                max_new_literals_per_node=1)
            tree = fit_tree([(a, db) for a, _ in regs], [g for _, g in regs], modes, config)
            assert _describe_tree(tree.root) == _greedy_oracle(
                regs, db, modes, config, schema)


def _count_groundings(monkeypatch) -> list:
    """Record each call of the grounding engine from regtree."""
    calls = []
    real = regtree.solutions

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(regtree, "solutions", counted)
    return calls


def _two_relation_domain():
    """(db, modes, atoms, gradients of a relation) of entities linked to
    people by knows/2 and likes/2; a relation's gradients, one per atom,
    say whether the person it links to is flagged."""
    schema = parse_schema("predicate: target/1 boolean.\npredicate: knows/2 boolean.\n"
                          "predicate: likes/2 boolean.\npredicate: flag/1 boolean.\n")
    modes = parse_modes("mode: knows(+,-).\nmode: likes(+,-).\nmode: flag(+).", schema)
    rng = random.Random(1)
    atoms, lines, friends = [], set(), {"knows": {}, "likes": {}}
    for i in range(30):
        atoms.append(Atom(schema.get("target"), (Constant(f"e{i:02d}"),)))
        for rel, linked in friends.items():
            if rng.random() < 0.7:
                linked[i] = f"p{rng.randrange(30):02d}"
                lines.add(f"{rel}(e{i:02d},{linked[i]}).")
    flagged = {f"p{j:02d}" for j in range(30) if rng.random() < 0.5}
    db = parse_facts("\n".join(sorted(lines) + [f"flag({p})." for p in sorted(flagged)]),
                     schema)

    def regs_for(rel):
        return [rng.uniform(-0.1, 0.1) + (1.0 if friends[rel].get(i) in flagged else -1.0)
                for i in range(len(atoms))]
    return db, modes, atoms, regs_for


class TestRoutingCache:
    def test_refit_with_one_cache_grounds_nothing(self, linked_domain, monkeypatch):
        schema, db, modes, examples = linked_domain
        rng = random.Random(17)
        rows = [(a, db) for a, _ in examples.entries]
        grads = [rng.uniform(-1, 1) for _ in rows]
        config = TreeConfig(max_leaves=6)
        uncached = serialize_tree(fit_tree(rows, grads, modes, config))
        cache = RoutingCache()
        calls = _count_groundings(monkeypatch)
        first = fit_tree(rows, grads, modes, config, cache)
        assert calls and first.leaf_count() > 2
        calls.clear()
        second = fit_tree(rows, grads, modes, config, cache)
        assert calls == []
        assert serialize_tree(first) == serialize_tree(second) == uncached

    def test_each_table_is_grounded_by_one_batched_call(self, linked_domain, monkeypatch):
        schema, db, modes, examples = linked_domain
        rng = random.Random(19)
        rows = [(a, db) for a, _ in examples.entries]
        cache = RoutingCache()
        calls = _count_groundings(monkeypatch)
        tree = fit_tree(rows, [rng.uniform(-1, 1) for _ in rows], modes,
                        TreeConfig(max_leaves=6), cache)
        assert tree.leaf_count() > 2
        tables, stack = [], list(cache.root(1)._below.values())
        while stack:
            table = stack.pop()
            tables.append(table)
            stack.extend(table._below.values())
        # every table the fit made was grounded, each by exactly one call
        # that carried all of its rows
        assert sorted(id(args[0]) for args in calls) == sorted(id(t.plan) for t in tables)
        assert len(calls[0][1]) == len(rows)
        assert all(len(args[1]) == len(t.routings) for args in calls for t in tables
                   if args[0] is t.plan)

    def test_score_split_agrees_with_the_fits_routing(self, linked_domain, monkeypatch):
        schema, db, modes, examples = linked_domain
        rng = random.Random(23)
        pairs = [(a, db) for a, _ in examples.entries]
        grads = [rng.uniform(-1, 1) for _ in pairs]
        config = TreeConfig(max_leaves=4)
        cache = RoutingCache()
        fit_tree(pairs, grads, modes, config, cache)
        candidates = enumerate_tests([Variable("V0")], modes, [db], config, frozenset())
        fresh = [score_split(pairs, grads, test) for test in candidates]
        calls = _count_groundings(monkeypatch)
        # the fit routed every example by every root candidate: all are hits
        slots = np.array([cache.slot(a, db) for a, _ in pairs], dtype=np.intp)
        gradients = np.array(grads)
        root = cache.root(1)
        for test, expected in zip(candidates, fresh):
            hits = _score_candidate(slots, root.below(test), root, cache)
            assert _sse(gradients[hits]) + _sse(gradients[~hits]) == expected
        assert calls == []

    def test_one_test_text_under_different_yes_paths(self):
        # flag(V1) tests whoever knows(V0,V1) or likes(V0,V1) bound above
        # it; the run's trees alternate between the two relations
        db, modes, atoms, regs_for = _two_relation_domain()
        config = TreeConfig(max_leaves=4, max_new_literals_per_node=1)
        cache = RoutingCache()
        rows = [(a, db) for a in atoms]
        slots = cache.register(rows)
        psis = [0.0] * len(atoms)
        trees = []
        for rel in ("knows", "likes", "knows", "likes"):
            grads = regs_for(rel)
            tree = boost_step(slots, list(enumerate(grads)), modes, config, psis, cache)
            assert serialize_tree(tree) == serialize_tree(fit_tree(rows, grads, modes, config))
            assert serialize_tree(tree).startswith(f'node 0 test "{rel}(V0,V1)" yes=1')
            assert '"flag(V1)"' in serialize_tree(tree)
            trees.append(tree)
        assert psis == [evaluate(trees, a, db) for a in atoms]

    def test_boost_step_rows_get_the_evaluated_values(self, linked_domain):
        # the fit sees half the examples; the other rows are routed afresh
        schema, db, modes, examples = linked_domain
        rng = random.Random(29)
        atoms = [a for a, _ in examples.entries]
        fit = [(i, rng.uniform(-1, 1)) for i in range(0, len(atoms), 2)]
        psis = [0.25] * len(atoms)
        cache = RoutingCache()
        tree = boost_step(cache.register([(a, db) for a in atoms]), fit, modes,
                          TreeConfig(max_leaves=6), psis, cache, 0.5)
        assert any(isinstance(node, Inner) for node in (tree.root.yes, tree.root.no))
        assert psis == [0.25 + evaluate([tree], a, db) for a in atoms]


_SLOT_TRAJECTORIES = """
traj ann
t=0.0 cvd(ann)=false
t=0.0 diab(ann)=false
t=1.0 diab(ann)=true
t=2.0 cvd(ann)=true
horizon=4.0
traj bob
t=0.0 cvd(bob)=false
t=0.0 diab(bob)=false
t=3.0 diab(bob)=true
horizon=5.0
traj cal
t=0.0 cvd(cal)=false
t=0.0 diab(cal)=true
t=0.5 cvd(cal)=true
t=1.0 cvd(cal)=false
t=2.0 diab(cal)=false
horizon=3.0
"""


@pytest.fixture(scope="module")
def slotting_runs():
    """(row count, learner run taking an iteration count) of rfgb with
    negative subsampling, a multiclass `train_hybrid`, `train_mixed` and
    `train_rctbn`."""
    small = TreeConfig(max_leaves=3)
    _, db, modes, examples = build_linked_domain(12, 24, seed=5)
    rfgb = (len(examples.entries), lambda n: boost.train(
        examples, db, modes, boost.BoostConfig(n, small, neg_subsample_ratio=1.0, rng_seed=3),
        boost.Hard()))
    _, hdb, hmodes, dataset = build_hybrid_domain()
    grade, weight = dataset["grade"], dataset["weight"]
    multiclass = (len(grade.entries), lambda n: hybrid.train_hybrid(
        grade, hdb, hmodes, hybrid.HybridConfig(n, small)))
    mixed = (len(weight.entries), lambda n: hybrid.train_mixed(
        weight, hdb, hmodes, ["dose", "age"], hybrid.HybridConfig(n, small)))
    schema = parse_schema("predicate: cvd/2 boolean temporal.\n"
                          "predicate: diab/2 boolean temporal.\n")
    trajs = rctbn.parse_trajectories(_SLOT_TRAJECTORIES, schema)
    tr = rctbn.Transition("cvd", False, True)
    rmodes = parse_modes("mode: diab(+).", rctbn.projected_schema(schema))
    segments = rctbn.segment(trajs, None, schema, tr)
    intensity = (len(segments), lambda n: rctbn.train_rctbn(
        trajs, None, schema, tr, rmodes, rctbn.RctbnConfig(n, small)))
    return {"rfgb-neg-subsample": rfgb, "train_hybrid-multiclass": multiclass,
            "train_mixed": mixed, "train_rctbn": intensity}


@pytest.mark.parametrize("learner", ["rfgb-neg-subsample", "train_hybrid-multiclass",
                                     "train_mixed", "train_rctbn"])
def test_a_run_slots_each_row_once(slotting_runs, learner, monkeypatch):
    rows, run = slotting_runs[learner]
    calls = []
    real = RoutingCache.slot

    def counted(self, target, db):
        calls.append(target)
        return real(self, target, db)
    monkeypatch.setattr(RoutingCache, "slot", counted)
    counts = []
    for iterations in (1, 3):
        calls.clear()
        model = run(iterations)
        counts.append(len(calls))
    trees = getattr(model, "trees", None) or [t for ts in model.functions.values() for t in ts]
    assert any(isinstance(t.root, Inner) for t in trees)
    assert counts == [rows, rows]


def _uncached_evaluate(tree, target, db) -> float:
    """The reference router: a per-example walk with no cache, grounding each
    node's test from the bindings of the yes-path above it."""
    substs = [reference.seed(target)]
    node = tree.root
    while isinstance(node, Inner):
        ext = reference.extend_bindings(substs, node.test.literals, db)
        if ext:
            substs = ext
            node = node.yes
        else:
            node = node.no
    return node.value


@pytest.fixture(scope="module")
def routed_models():
    """(trees, atoms, db) of several fitted models on the rfgb and hybrid
    test domains, mixed parents included, and of trees that test flag(V1)
    below knows(V0,V1) and below likes(V0,V1)."""
    db, modes, atoms, regs_for = _two_relation_domain()
    config = TreeConfig(max_leaves=4, max_new_literals_per_node=1)
    rows = [(a, db) for a in atoms]
    out = [([fit_tree(rows, regs_for(rel), modes, config) for rel in ("knows", "likes")],
             atoms, db)]
    _, db, modes, examples = build_linked_domain(15, 45, seed=41, feature_rate_pos=0.8,
                                                 feature_rate_neg=0.15)
    atoms = [a for a, _ in examples.entries]
    six_leaves = TreeConfig(max_leaves=6)
    out += [(boost.train(examples, db, modes, config, kind).trees, atoms, db)
            for config, kind in ((boost.BoostConfig(4, six_leaves, rng_seed=3), boost.Hard()),
                                 (boost.BoostConfig(4, six_leaves, 1.5, rng_seed=5),
                                  boost.Soft(1.0, -2.0)))]
    _, db, modes, dataset = build_hybrid_domain()
    config = hybrid.HybridConfig(iterations=3, tree=TreeConfig(max_leaves=4))
    for name, examples in sorted(dataset.items()):
        atoms = [a for a, _ in examples.entries]
        model = hybrid.train_hybrid(examples, db, modes, config)
        out += [(trees, atoms, db) for _, trees in sorted(model.functions.items())]
        mixed = hybrid.train_mixed(examples, db, modes, ["dose", "age"], config)
        out += [(trees, atoms, db) for _, trees in sorted(mixed.functions.items())]
        out.append((mixed.sigma_trees, atoms, db))
    return out


class TestPredictionRouting:
    def test_models_route_through_chains(self, routed_models):
        # a yes branch below a yes branch: the cache is keyed by a longer path
        trees = [t for trees, _, _ in routed_models for t in trees]
        assert any(isinstance(t.root, Inner) and isinstance(t.root.yes, Inner)
                   for t in trees)
        assert any(len(t.root.test.literals) == 2 for t in trees if isinstance(t.root, Inner))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shared_cache_matches_the_uncached_walk(self, routed_models, seed):
        cases = [(tree, atom, db) for trees, atoms, db in routed_models
                 for tree in trees for atom in atoms]
        expected = {(id(tree), id(atom)): _uncached_evaluate(tree, atom, db)
                    for tree, atom, db in cases}
        random.Random(seed).shuffle(cases)
        cache = RoutingCache()
        for tree, atom, db in cases:
            want = expected[(id(tree), id(atom))]
            assert evaluate([tree], atom, db, cache) == want
            assert evaluate([tree], atom, db, cache) == want

    def test_trees_value_with_and_without_a_cache(self, routed_models):
        cache = RoutingCache()
        for trees, atoms, db in routed_models:
            for atom in atoms:
                plain = evaluate(trees, atom, db)
                assert plain == evaluate(trees, atom, db, cache)
                assert all(evaluate([t], atom, db) == evaluate([t], atom, db, cache)
                           for t in trees)

    def test_target_mismatch_raises_with_or_without_a_cache(self, tiny_domain):
        schema, db, _ = tiny_domain
        tree = RegressionTree(schema.get("target"), Leaf(0.5))
        other = Atom(schema.get("hot"), (Constant("a"),))
        with pytest.raises(ValueError, match="does not match tree target"):
            evaluate([tree], other, db)
        with pytest.raises(ValueError, match="does not match tree target"):
            evaluate([tree], other, db, RoutingCache())

    def test_a_list_sums_its_trees_in_order(self, routed_models):
        cache = RoutingCache()
        for trees, atoms, db in routed_models:
            for atom in atoms:
                total = 0.0
                for tree in trees:
                    total += evaluate([tree], atom, db)
                assert evaluate(trees, atom, db).hex() == total.hex()
                assert evaluate(trees, atom, db, cache).hex() == total.hex()

    def test_an_empty_list_is_zero_and_registers_no_slot(self, tiny_domain):
        schema, db, _ = tiny_domain
        cache = RoutingCache()
        assert evaluate([], Atom(schema.get("target"), (Variable("X"),)), db, cache) == 0.0
        assert cache._held == [] and cache._slots == {}

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_another_target_anywhere_in_the_list_raises(self, tiny_domain, position):
        schema, db, _ = tiny_domain
        trees = [RegressionTree(schema.get("target"), Leaf(0.5)) for _ in range(3)]
        trees[position] = RegressionTree(schema.get("hot"), Leaf(0.5))
        with pytest.raises(ValueError, match="does not match tree target hot"):
            evaluate(trees, Atom(schema.get("target"), (Constant("a"),)), db)


class TestSerialization:
    def test_bit_exact_roundtrip(self, linked_domain):
        schema, db, modes, examples = linked_domain
        rng = random.Random(11)
        tree = fit_tree([(a, db) for a, _ in examples.entries],
                        [rng.gauss(0, 1) for _ in examples.entries], modes,
                        TreeConfig(max_leaves=6))
        text = serialize_tree(tree)
        again = parse_tree(text, schema, tree.target)
        assert serialize_tree(again) == text

    def test_preorder_listing_shape(self, tiny_domain):
        schema, db, _ = tiny_domain
        target = schema.get("target")
        lits = tuple(parse_literal_list("hot(V0)", schema))
        tree = RegressionTree(target, Inner(NodeTest(lits), Leaf(0.5), Leaf(-0.5)))
        lines = serialize_tree(tree).splitlines()
        assert lines[0].startswith('node 0 test "hot(V0)" yes=1 no=2')
        assert lines[1] == "leaf 1 value=0.5"
        assert lines[2] == "leaf 2 value=-0.5"

    def test_threshold_and_negation_roundtrip(self):
        schema = parse_schema("""
predicate: target/1 boolean.
predicate: bp/1 continuous.
predicate: rel/2 boolean.
""")
        target = schema.get("target")
        lits = tuple(parse_literal_list("rel(V0,V1), bp(V1)>=140.0", schema))
        neg = tuple(parse_literal_list("!bp(V0)>=99.5", schema))
        tree = RegressionTree(target, Inner(
            NodeTest(lits), Inner(NodeTest(neg), Leaf(1.25), Leaf(0.0)),
            Leaf(-3.5)))
        text = serialize_tree(tree)
        assert serialize_tree(parse_tree(text, schema, target)) == text

    @pytest.mark.parametrize("text", [
        "node 0 test \"hot(V0)\" yes=0 no=0\n",
        "node 0 test \"hot(V0)\" yes=1 no=1\nleaf 1 value=0.5\n",
        "node 0 test \"hot(V0)\" yes=1 no=2\nleaf 1 value=0.5\nleaf 1 value=1.5\n"
        "leaf 2 value=0.0\n",
    ])
    def test_cyclic_or_shared_node_ids_rejected(self, tiny_domain, text):
        schema, _, _ = tiny_domain
        with pytest.raises(ParseError, match="reached twice|duplicate node id"):
            parse_tree(text, schema, schema.get("target"))

    NEGATION_SCHEMA = ("predicate: target/1 boolean.\npredicate: knows/2 boolean.\n"
                       "predicate: flag/1 boolean.\n")

    @pytest.mark.parametrize("lines,line", [
        (['node 0 test "!flag(V1)" yes=1 no=2', "leaf 1 value=0.5", "leaf 2 value=-0.5"], 1),
        (['node 0 test "!flag(V1), knows(V0,V1)" yes=1 no=2', "leaf 1 value=0.5",
          "leaf 2 value=-0.5"], 1),
        (['node 0 test "knows(V0,V1)" yes=1 no=3', 'node 1 test "!flag(V1)" yes=2 no=4',
          "leaf 2 value=1.0", "leaf 4 value=0.0", 'node 3 test "!flag(V1)" yes=5 no=6',
          "leaf 5 value=0.5", "leaf 6 value=-0.5"], 5),
    ], ids=["head-only", "later-literal", "no-branch"])
    def test_unbound_variable_in_negated_literal_is_parse_error_at_its_line(
            self, lines, line):
        schema = parse_schema(self.NEGATION_SCHEMA)
        with pytest.raises(ParseError, match=f"line {line}: unbound variable V1 in "
                                             r"negated literal !flag\(V1\)"):
            parse_tree("\n".join(lines) + "\n", schema, schema.get("target"))

    def test_negated_literal_bound_by_the_yes_path_or_its_test_parses(self):
        schema = parse_schema(self.NEGATION_SCHEMA)
        text = ('node 0 test "knows(V0,V1), !flag(V1)" yes=1 no=4\n'
                'node 1 test "!knows(V1,V0)" yes=2 no=3\n'
                "leaf 2 value=1.0\nleaf 3 value=0.5\nleaf 4 value=-0.5\n")
        assert serialize_tree(parse_tree(text, schema, schema.get("target"))) == text

    @pytest.mark.parametrize("node,message", [
        ('node 0 test "colour(V0)=' + "1" * 5000 + '" yes=1 no=2', "class index"),
        ('node 0 test "colour(V0)=1" yes=1 no=' + "2" * 5000, "node id"),
    ], ids=["class-index", "node-id"])
    def test_oversized_integer_is_parse_error_at_its_line(self, node, message):
        schema = parse_schema("predicate: target/1 boolean.\npredicate: colour/1 multiclass(3).\n")
        with pytest.raises(ParseError, match=f"^line 2: {message} has 5000 digits"):
            parse_tree(f"leaf 1 value=0.5\n{node}\nleaf 2 value=0.0\n", schema,
                       schema.get("target"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "zero"])
    def test_non_finite_leaf_value_rejected(self, tiny_domain, value):
        schema, _, _ = tiny_domain
        text = f'node 0 test "hot(V0)" yes=1 no=2\nleaf 1 value=0.5\nleaf 2 value={value}\n'
        with pytest.raises(ParseError, match="line 3: leaf value must be a finite number"):
            parse_tree(text, schema, schema.get("target"))
