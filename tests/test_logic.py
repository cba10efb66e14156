"""Parsing, matching, and grounding-engine tests."""

import pickle
import random

import pytest

from relboost.logic import (
    Atom,
    Cmp,
    Constant,
    ExampleSet,
    FactBase,
    Literal,
    ModeDeclaration,
    ParseError,
    PredicateSignature,
    Schema,
    Variable,
    match,
    parse_examples,
    parse_facts,
    parse_literal,
    parse_literal_list,
    parse_modes,
    parse_schema,
    satisfies,
    serialize_examples,
    serialize_facts,
    serialize_modes,
    serialize_schema,
    solutions,
)
from relboost.regtree import RegressionExample, TreeConfig, fit_tree
from tests.conftest import build_linked_domain


class TestParseFacts:
    def test_single_boolean_fact(self, family_schema):
        db = parse_facts("familyMember(ann,mary).", family_schema)
        assert len(db) == 1
        fact = db.facts()[0]
        assert fact.pred.name == "familyMember"
        assert fact.value is True

    def test_empty_stream(self, family_schema):
        assert len(parse_facts("", family_schema)) == 0

    def test_continuous_fact_roundtrip(self):
        schema = parse_schema("predicate: bp/2 continuous temporal.")
        db = parse_facts("bp(john,1.5)=140.0.", schema)
        assert db.facts()[0].value == 140.0
        text = serialize_facts(db)
        assert serialize_facts(parse_facts(text, schema)) == text

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_continuous_fact_rejected_at_its_line(self, value):
        schema = parse_schema("predicate: bp/1 continuous.")
        with pytest.raises(ParseError, match="finite real value") as err:
            parse_facts(f"bp(a)=1.0.\nbp(b)={value}.", schema)
        assert err.value.line == 2

    def test_syntax_error_carries_line(self, family_schema):
        with pytest.raises(ParseError) as err:
            parse_facts("familyMember(ann,mary).\nbroken(", family_schema)
        assert err.value.line == 2

    def test_unknown_predicate(self, family_schema):
        with pytest.raises(ParseError, match="unknown predicate"):
            parse_facts("nope(a).", family_schema)

    def test_arity_mismatch(self, family_schema):
        with pytest.raises(ParseError, match="expects 2 arguments"):
            parse_facts("familyMember(ann).", family_schema)

    def test_value_kind_mismatch(self):
        schema = parse_schema("predicate: age/1 count.")
        with pytest.raises(ParseError, match="integer"):
            parse_facts("age(ann)=x.", schema)
        with pytest.raises(ParseError, match="=value"):
            parse_facts("age(ann).", schema)

    def test_conflicting_payloads_rejected(self):
        schema = parse_schema("predicate: age/1 count.")
        with pytest.raises(ParseError, match="conflicting"):
            parse_facts("age(ann)=3.\nage(ann)=4.", schema)

    def test_conflicting_payload_names_its_line(self):
        schema = parse_schema("predicate: age/1 continuous.")
        with pytest.raises(ParseError, match="conflicting values for age") as err:
            parse_facts("age(a)=1.\nage(b)=2.\nage(a)=3.", schema)
        assert err.value.line == 3

    def test_comments_and_whitespace(self, family_schema):
        db = parse_facts("  % header\n familyMember( ann , mary ). % tail\n",
                         family_schema)
        assert len(db) == 1


class TestParseExamples:
    def test_positive_file(self, family_schema):
        target = family_schema.get("diabetes")
        examples = parse_examples("diabetes(ann,t2).", target, label=1)
        assert examples.entries[0][1] == 1

    def test_negative_file(self, family_schema):
        target = family_schema.get("diabetes")
        examples = parse_examples("diabetes(mary,t0).", target, label=0)
        assert examples.entries[0][1] == 0

    def test_count_values(self):
        schema = parse_schema("predicate: angio/1 count.")
        examples = parse_examples("angio(p7)=3.", schema.get("angio"))
        atom, value = examples.entries[0]
        assert value == 3
        text = serialize_examples(examples)
        again = parse_examples(text, schema.get("angio"))
        assert serialize_examples(again) == text

    def test_duplicate_entry_rejected(self, family_schema):
        target = family_schema.get("diabetes")
        with pytest.raises(ParseError, match="duplicate"):
            parse_examples("diabetes(ann,t2).\ndiabetes(ann,t2).", target, label=1)

    def test_duplicate_entry_names_its_line(self):
        schema = parse_schema("predicate: t/1 boolean.\npredicate: n/1 count.")
        with pytest.raises(ParseError, match="duplicate entry t") as err:
            parse_examples("t(a).\nt(b).\nt(a).", schema.get("t"), 1)
        assert err.value.line == 3
        with pytest.raises(ParseError, match="duplicate entry n") as err:
            parse_examples("n(a)=1.\n% note\nn(a)=2.", schema.get("n"))
        assert err.value.line == 3
        positives = parse_examples("t(a).", schema.get("t"), 1)
        with pytest.raises(ParseError, match="duplicate entry t") as err:
            parse_examples("t(b).\nt(a).", schema.get("t"), 0, earlier=positives)
        assert err.value.line == 2

    def test_count_above_2_53_names_its_line(self):
        schema = parse_schema("predicate: n/1 count.")
        examples = parse_examples(f"n(a)={2 ** 53}.", schema.get("n"))
        assert examples.entries[0][1] == 2 ** 53
        with pytest.raises(ParseError, match=r"n expects a count of at most 2\*\*53") as err:
            parse_examples(f"n(a)=1.\nn(b)={2 ** 53 + 1}.", schema.get("n"))
        assert err.value.line == 2

    def test_non_ground_rejected(self, family_schema):
        target = family_schema.get("diabetes")
        with pytest.raises(ParseError, match="non-ground"):
            parse_examples("diabetes(X,t2).", target, label=1)


class TestMatch:
    def test_family_member_of_mary(self, family_schema, family_db):
        atom = Atom(family_schema.get("familyMember"),
                    (Variable("Y"), Constant("mary")))
        subs = list(match(atom, {}, family_db))
        found = sorted(s[Variable("Y")].symbol for s in subs)
        assert found == ["ann", "bob", "eve", "tom"]

    def test_empty_db(self, family_schema):
        empty = FactBase(family_schema, [])
        atom = Atom(family_schema.get("familyMember"),
                    (Variable("Y"), Constant("mary")))
        assert list(match(atom, {}, empty)) == []

    def test_ground_atom_identity(self, family_schema, family_db):
        atom = Atom(family_schema.get("familyMember"),
                    (Constant("ann"), Constant("mary")))
        subs = list(match(atom, {}, family_db))
        assert subs == [{}]

    def test_deterministic_sorted_order(self, family_schema, family_db):
        atom = Atom(family_schema.get("familyMember"),
                    (Variable("Y"), Variable("Z")))
        first = [tuple(sorted((v.name, c.symbol) for v, c in s.items()))
                 for s in match(atom, {}, family_db)]
        second = [tuple(sorted((v.name, c.symbol) for v, c in s.items()))
                  for s in match(atom, {}, family_db)]
        assert first == second
        ys = [s[Variable("Y")].symbol for s in match(atom, {}, family_db)]
        assert ys == sorted(ys)

    def test_repeated_variable_must_unify(self, family_schema):
        db = parse_facts("familyMember(ann,ann).\nfamilyMember(ann,mary).",
                         family_schema)
        atom = Atom(family_schema.get("familyMember"),
                    (Variable("Y"), Variable("Y")))
        subs = list(match(atom, {}, db))
        assert len(subs) == 1
        assert subs[0][Variable("Y")].symbol == "ann"


class TestSatisfies:
    def test_empty_body_vacuous(self, family_db):
        assert satisfies([], {}, family_db) is True

    def test_family_diabetes_chain(self, family_schema, family_db):
        body = parse_literal_list("familyMember(Y,mary), diabetes(Y,T)",
                                  family_schema)
        assert satisfies(body, {}, family_db) is True
        sols = list(solutions(body, {}, family_db))
        assert ({str(s[Variable("Y")]), str(s[Variable("T")])} == {"ann", "t2"}
                for s in sols)

    def test_no_facts_predicate(self, family_schema):
        db = parse_facts("familyMember(ann,mary).", family_schema)
        body = parse_literal_list("diabetes(Y,T)", family_schema)
        assert satisfies(body, {}, db) is False

    def test_unbound_negated_variable_raises(self, family_schema, family_db):
        body = parse_literal_list("!diabetes(Y,T)", family_schema)
        with pytest.raises(ValueError, match="unbound"):
            satisfies(body, {}, family_db)

    def test_negation_as_failure(self, family_schema, family_db):
        body = parse_literal_list("familyMember(Y,mary), !diabetes(Y,t2)",
                                  family_schema)
        names = sorted(s[Variable("Y")].symbol
                       for s in solutions(body, {}, family_db))
        assert names == ["bob", "eve", "tom"]


def _random_factbase(rng):
    schema = parse_schema("""
predicate: rel/2 boolean.
predicate: attr/1 boolean.
predicate: size/1 count.
""")
    consts = [f"c{i}" for i in range(rng.randint(2, 12))]
    lines = {}
    for _ in range(rng.randint(0, 500)):
        if rng.random() < 0.5:
            key = f"rel({rng.choice(consts)},{rng.choice(consts)})"
            lines.setdefault(key, f"{key}.")
        elif rng.random() < 0.5:
            key = f"attr({rng.choice(consts)})"
            lines.setdefault(key, f"{key}.")
        else:
            key = f"size({rng.choice(consts)})"
            lines.setdefault(key, f"{key}={rng.randint(0, 5)}.")
    text = "\n".join(lines[k] for k in sorted(lines))
    return schema, parse_facts(text, schema), consts


def _linear_scan(atom, subst, db):
    """Reference matcher: no index, same semantics."""
    out = []
    bound = atom.substitute(subst)
    for fact in db.facts_for(atom.pred.name):
        extra = {}
        ok = True
        for pattern, actual in zip(bound.args, fact.args):
            if isinstance(pattern, Constant):
                if pattern != actual:
                    ok = False
                    break
            elif pattern in extra:
                if extra[pattern] != actual:
                    ok = False
                    break
            else:
                extra[pattern] = actual
        if not ok:
            continue
        if isinstance(bound.value, Cmp):
            if not float(fact.value) >= bound.value.threshold:
                continue
        elif bound.value is not None and bound.value is not True:
            if fact.value != bound.value:
                continue
        merged = dict(subst)
        merged.update(extra)
        out.append(merged)
    return out


def _random_colour_factbase(rng):
    """Multiclass facts, drawn apart from `_random_factbase`'s stream."""
    schema = parse_schema("""
predicate: colour/2 multiclass(3).
predicate: rel/2 boolean.
""")
    consts = [f"c{i}" for i in range(rng.randint(2, 8))]
    lines = {}
    for _ in range(rng.randint(0, 200)):
        pair = f"{rng.choice(consts)},{rng.choice(consts)}"
        if rng.random() < 0.5:
            lines.setdefault(f"colour({pair})", f"colour({pair})={rng.randint(0, 2)}.")
        else:
            lines.setdefault(f"rel({pair})", f"rel({pair}).")
    text = "\n".join(lines[k] for k in sorted(lines))
    return schema, parse_facts(text, schema), consts


def _random_query(rng, pred, consts, value=None):
    """An atom over X/Y/Z and constants, with a seed binding 0-2 of X/Y/Z."""
    args = tuple(
        Variable(rng.choice("XYZ")) if rng.random() < 0.5
        else Constant(rng.choice(consts))
        for _ in range(pred.arity))
    subst = {Variable(v): Constant(rng.choice(consts))
             for v in rng.sample("XYZ", rng.randint(0, 2))}
    return Atom(pred, args, value), subst


def _assert_match_is_linear_scan(atom, subst, db):
    want = _linear_scan(atom, subst, db)
    for _ in range(2):      # a repeated query answers the same, in order
        assert list(match(atom, subst, db)) == want


class TestEngineProperties:
    def test_index_equals_linear_scan(self):
        rng = random.Random(123)
        for trial in range(25):
            schema, db, consts = _random_factbase(rng)
            for pred_name in ("rel", "attr", "size"):
                pred = schema.get(pred_name)
                for _ in range(8):
                    value = Cmp(">=", float(rng.randint(0, 5))) \
                        if pred_name == "size" and rng.random() < 0.5 else None
                    _assert_match_is_linear_scan(
                        *_random_query(rng, pred, consts, value), db)
            rel = schema.get("rel")
            for subst in ({}, {Variable("X"): Constant(rng.choice(consts))}):
                _assert_match_is_linear_scan(
                    Atom(rel, (Variable("X"), Variable("X"))), subst, db)

    def test_multiclass_index_equals_linear_scan(self):
        rng = random.Random(456)
        for trial in range(25):
            schema, db, consts = _random_colour_factbase(rng)
            colour = schema.get("colour")
            for _ in range(12):
                _assert_match_is_linear_scan(
                    *_random_query(rng, colour, consts, rng.randint(0, 2)), db)
            for k in range(3):
                _assert_match_is_linear_scan(
                    Atom(colour, (Variable("X"), Variable("X")), k), {}, db)

    def test_parse_serialize_fixpoint_random(self):
        rng = random.Random(321)
        for _ in range(20):
            schema, db, _ = _random_factbase(rng)
            once = serialize_facts(db)
            twice = serialize_facts(parse_facts(once, schema))
            assert once == twice

    def test_satisfies_equals_nonempty_solutions(self):
        rng = random.Random(777)
        for _ in range(40):
            schema, db, consts = _random_factbase(rng)
            body = []
            for _ in range(rng.randint(1, 3)):
                pred = schema.get(rng.choice(["rel", "attr", "size"]))
                args = tuple(
                    Variable(rng.choice("XY")) if rng.random() < 0.6
                    else Constant(rng.choice(consts))
                    for _ in range(pred.arity))
                body.append(Literal(Atom(pred, args)))
            assert satisfies(body, {}, db) == (
                next(solutions(body, {}, db), None) is not None)


class TestQueriesLeaveFactBaseUnchanged:
    def test_pickled_base_is_equal_after_queries_and_a_fit(self):
        schema, db, modes, examples = build_linked_domain(6, 12, seed=2)
        before = pickle.dumps(db)
        body = parse_literal_list("knows(X,Y), flag(Y)", schema)
        assert list(solutions(body, {}, db))
        assert satisfies(parse_literal_list("shade(X)", schema), {}, db)
        regs = [RegressionExample(atom, 1.0 if label else -1.0)
                for atom, label in examples.entries]
        fit_tree(regs, db, modes, TreeConfig(max_leaves=4))
        assert pickle.dumps(db) == before


class TestSchemaAndModes:
    def test_schema_roundtrip(self):
        text = ("predicate: bp/2 continuous temporal.\n"
                "predicate: color/1 multiclass(3).\n"
                "predicate: rel/2 boolean.\n")
        schema = parse_schema(text)
        assert serialize_schema(parse_schema(serialize_schema(schema))) \
            == serialize_schema(schema)
        assert schema.get("color").classes == 3
        assert schema.get("bp").temporal

    def test_modes_roundtrip(self, family_schema):
        modes = parse_modes("mode: familyMember(+,-).", family_schema)
        assert modes[0].arg_modes == ("+", "-")
        text = serialize_modes(modes)
        assert serialize_modes(parse_modes(text, family_schema)) == text

    def test_bad_mode_flag(self, family_schema):
        with pytest.raises(ParseError):
            parse_modes("mode: familyMember(+,?).", family_schema)

    def test_mode_arity_check(self, family_schema):
        with pytest.raises(ParseError):
            parse_modes("mode: familyMember(+).", family_schema)


class TestLiterals:
    def test_literal_text_roundtrip(self):
        schema = parse_schema("""
predicate: bp/1 continuous.
predicate: color/1 multiclass(4).
predicate: rel/2 boolean.
""")
        for text in ("rel(V0,V1)", "!rel(V0,mary)", "color(V0)=2", "bp(V0)>=140.0"):
            lit = parse_literal(text, schema)
            assert str(lit) == text

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_threshold_rejected(self, token):
        schema = parse_schema("predicate: bp/1 continuous.")
        with pytest.raises(ParseError, match="finite number"):
            parse_literal_list(f"bp(V0)>={token}", schema)

    def test_threshold_on_boolean_rejected(self, family_schema):
        with pytest.raises(ParseError):
            parse_literal("familyMember(X,Y)>=1.0", family_schema)

    def test_class_test_on_boolean_rejected(self, family_schema):
        with pytest.raises(ParseError):
            parse_literal("familyMember(X,Y)=1", family_schema)
