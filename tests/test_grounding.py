"""The batched grounding engine against the dict-based reference engine."""

import random

import pytest

from relboost.logic import (
    Atom,
    Cmp,
    Constant,
    FactBase,
    Literal,
    Variable,
    compile_body,
    parse_schema,
    satisfies,
    solutions,
)
from tests.grounding_reference import grown_layout, reference_solutions

SCHEMA = parse_schema("""
predicate: rel/2 boolean.
predicate: attr/1 boolean.
predicate: size/1 count.
predicate: colour/2 multiclass(3).
predicate: bp/1 continuous.
predicate: flag/1 boolean.
""")
FRESH = [Variable(name) for name in ("X", "Y", "Z")]


def _random_fact(rng, consts):
    """One ground atom; `flag` never has facts, so it stays a missing predicate."""
    pred = SCHEMA.get(rng.choice(["rel", "rel", "attr", "size", "colour", "bp"]))
    args = tuple(Constant(rng.choice(consts)) for _ in range(pred.arity))
    value = {"size": lambda: rng.randint(0, 5), "colour": lambda: rng.randint(0, 2),
             "bp": lambda: rng.choice([90.0, 120.5, 140.0, 160.25])}.get(
        pred.name, lambda: True)()
    return Atom(pred, args, value)


def _distinct(atoms, known=None) -> list:
    """`atoms` less any whose key is already taken, first kept."""
    seen, out = {} if known is None else dict(known), []
    for atom in atoms:
        if (atom.pred.name, atom.args) not in seen:
            seen[(atom.pred.name, atom.args)] = atom.value
            out.append(atom)
    return out


def _random_value(rng, pred):
    if pred.kind == "multiclass" and rng.random() < 0.5:
        return rng.randint(0, 2)
    if pred.name == "size" and rng.random() < 0.5:
        return Cmp(float(rng.randint(0, 5)))
    if pred.name == "bp" and rng.random() < 0.5:
        return Cmp(rng.choice([100.0, 140.0, 150.0]))
    return None


def _random_body(rng, layout, consts) -> tuple:
    """1-3 literals over the layout, fresh X/Y/Z (repeats included) and
    constants; a negated literal uses only variables bound before it."""
    bound, body = list(layout), []
    for _ in range(rng.randint(1, 3)):
        pred = SCHEMA.get(rng.choice(["rel", "rel", "attr", "size", "colour", "bp", "flag"]))
        negated = rng.random() < 0.25
        args = []
        for _ in range(pred.arity):
            r = rng.random()
            if r < 0.2 or (negated and not bound):
                args.append(Constant(rng.choice(consts)))
            elif r < 0.6 and bound:
                args.append(rng.choice(bound))
            elif negated:
                args.append(rng.choice(bound))
            else:
                args.append(rng.choice(FRESH))
        body.append(Literal(Atom(pred, tuple(args), _random_value(rng, pred)), negated))
        bound += [v for v in args if isinstance(v, Variable) and v not in bound]
    return tuple(body)


def _random_groups(rng, layout, consts) -> list:
    """1-4 rows, each with 0-4 distinct binding tuples over `layout`."""
    groups = []
    for _ in range(rng.randint(1, 4)):
        tuples = {tuple(Constant(rng.choice(consts)) for _ in layout)
                  for _ in range(rng.randint(0, 4))}
        groups.append(sorted(tuples))
        rng.shuffle(groups[-1])
    return groups


def _random_bases(rng, consts) -> list:
    """A fact base and, in half the draws, two extensions that share it."""
    base = FactBase(SCHEMA, _distinct(_random_fact(rng, consts)
                                      for _ in range(rng.randint(0, 60))))
    if rng.random() < 0.5:
        return [base]
    known = {(a.pred.name, a.args): a.value for a in base.facts()}
    return [base] + [FactBase(SCHEMA, _distinct([_random_fact(rng, consts)
                                                 for _ in range(rng.randint(0, 10))], known),
                              base=base) for _ in range(2)]


class TestBatchedSolutions:
    def test_equals_the_reference_engine_as_ordered_lists(self):
        rng = random.Random(2026)
        cases = kinds = 0
        seen = set()
        for _ in range(400):
            consts = [f"c{i}" for i in range(rng.randint(1, 5))]
            dbs = _random_bases(rng, consts)
            for _ in range(3):
                layout = tuple(Variable(f"V{i}") for i in range(rng.randint(0, 2)))
                body = _random_body(rng, layout, consts)
                plan = compile_body(body, layout)
                assert plan.grown == grown_layout(body, layout)
                for db in dbs:      # one call per fact base, as routing makes them
                    groups = _random_groups(rng, layout, consts)
                    got = solutions(plan, groups, db)
                    assert got == reference_solutions(body, layout, groups, db)
                    assert all(len(set(row)) == len(row) for row in got)
                    for tuples in groups:
                        for t in tuples:
                            want = bool(reference_solutions(body, layout, [[t]], db)[0])
                            assert satisfies(body, dict(zip(layout, t)), db) == want
                    cases += 1
                    seen |= {"negated" for l in body if l.negated}
                    seen |= {"repeat" for l in body
                             if len(set(l.atom.variables())) < len(l.atom.variables())}
                    seen |= {"class" for l in body if isinstance(l.atom.value, int)}
                    seen |= {"threshold" for l in body if isinstance(l.atom.value, Cmp)}
                    seen |= {"missing" for l in body if l.atom.pred.name == "flag"}
                    seen |= {"extension" for _ in dbs[1:]}
                    seen |= {"several" for tuples in groups if len(tuples) > 1}
                    kinds += any(row for row in got)
        assert cases >= 1000 and kinds >= 200
        assert seen == {"negated", "repeat", "class", "threshold", "missing",
                        "extension", "several"}

    def test_empty_body_returns_every_binding(self):
        db = FactBase(SCHEMA)
        groups = [[("a",), ("b",)], []]
        assert solutions(compile_body((), (Variable("V0"),)), groups, db) == groups

    def test_unbound_negated_variable_is_a_value_error(self):
        body = (Literal(Atom(SCHEMA.get("flag"), (Variable("V1"),)), negated=True),)
        with pytest.raises(ValueError,
                           match=r"unbound variable V1 in negated literal !flag\(V1\)"):
            compile_body(body, (Variable("V0"),))
