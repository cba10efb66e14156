"""Shared synthetic domains for the test suite."""

from __future__ import annotations

import builtins
import math
import random

import pytest

from relboost.logic import (
    Atom,
    Constant,
    ExampleSet,
    FactBase,
    parse_facts,
    parse_modes,
    parse_schema,
)


_builtin_sum = builtins.sum


def compensated_sum(iterable, start=0):
    """`sum` as Python 3.12 and later compute it: a float total carries a
    Neumaier compensation term, added in at the end when it is finite and
    non-zero.  Totals without floats are summed as before.  Tests swap it
    in for `builtins.sum` so that a float total which depends on how `sum`
    adds fails on every Python version."""
    items = list(iterable)
    if not (type(start) in (int, float) and all(type(x) in (int, float) for x in items)
            and any(type(x) is float for x in items)):
        return _builtin_sum(items, start)
    total, compensation = float(start), 0.0
    for x in map(float, items):
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


FAMILY_SCHEMA_TEXT = """
predicate: familyMember/2 boolean.
predicate: diabetes/2 boolean temporal.
"""

FAMILY_FACTS_TEXT = """
familyMember(ann,mary).
familyMember(eve,mary).
familyMember(ian,tom).
familyMember(jack,bob).
familyMember(bob,mary).
familyMember(tom,mary).
diabetes(ann,t2).
diabetes(tom,t3).
diabetes(john,t4).
"""


@pytest.fixture(scope="session")
def family_schema():
    return parse_schema(FAMILY_SCHEMA_TEXT)


@pytest.fixture(scope="session")
def family_db(family_schema):
    return parse_facts(FAMILY_FACTS_TEXT, family_schema)


# a small linked-entities domain: the target is true when the entity knows
# a flagged friend, with optional label noise for the imbalanced variants
LINKED_SCHEMA_TEXT = """
predicate: target/1 boolean.
predicate: knows/2 boolean.
predicate: flag/1 boolean.
predicate: shade/1 boolean.
"""

LINKED_MODES_TEXT = """
mode: knows(+,-).
mode: flag(+).
mode: shade(+).
"""


def build_linked_domain(n_pos: int, n_neg: int, seed: int,
                        feature_rate_pos: float = 1.0,
                        feature_rate_neg: float = 0.0):
    """Entities e0.., each knowing one friend; the friend's flag is the
    signal carried at the given per-class rates.  `shade` is noise."""
    schema = parse_schema(LINKED_SCHEMA_TEXT)
    modes = parse_modes(LINKED_MODES_TEXT, schema)
    rng = random.Random(seed)
    target = schema.get("target")
    lines, entries = [], []
    labels = [1] * n_pos + [0] * n_neg
    for i, label in enumerate(labels):
        e, f = f"e{i:04d}", f"f{i:04d}"
        lines.append(f"knows({e},{f}).")
        rate = feature_rate_pos if label else feature_rate_neg
        if rng.random() < rate:
            lines.append(f"flag({f}).")
        if rng.random() < 0.5:
            lines.append(f"shade({e}).")
        entries.append((Atom(target, (Constant(e),)), label))
    db = parse_facts("\n".join(lines), schema)
    return schema, db, modes, ExampleSet(target, entries)


@pytest.fixture(scope="session")
def linked_domain():
    return build_linked_domain(12, 24, seed=5)


# entities whose count, continuous and class targets depend on their own
# and a friend's sickness and, linearly, on two continuous parents
HYBRID_SCHEMA_TEXT = """
predicate: sick/1 boolean.
predicate: knows/2 boolean.
predicate: dose/1 continuous.
predicate: age/1 continuous.
predicate: visits/1 count.
predicate: weight/1 continuous.
predicate: grade/1 multiclass(3).
"""

HYBRID_MODES_TEXT = """
mode: sick(+).
mode: knows(+,-).
"""


def build_hybrid_domain():
    """(schema, db, modes, {target name: ExampleSet}) of 120 entities, each
    knowing one friend, with the visits, weight and grade targets."""
    schema = parse_schema(HYBRID_SCHEMA_TEXT)
    modes = parse_modes(HYBRID_MODES_TEXT, schema)
    rng = random.Random(77)
    n = 120
    sick = [rng.random() < 0.4 for _ in range(n)]
    facts, values = [], {"visits": [], "weight": [], "grade": []}
    for i in range(n):
        e = Constant(f"e{i:03d}")
        friend = (i * 7 + 3) % n
        facts.append(Atom(schema.get("knows"), (e, Constant(f"e{friend:03d}")), True))
        if sick[i]:
            facts.append(Atom(schema.get("sick"), (e,), True))
        dose, age = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        facts.append(Atom(schema.get("dose"), (e,), dose))
        facts.append(Atom(schema.get("age"), (e,), age))
        level = sick[i] + 0.5 * sick[friend] + dose - 0.5 * age
        values["visits"].append(max(0, round(2.0 * level + rng.gauss(1.0, 1.0))))
        values["weight"].append(3.0 * level + rng.gauss(0.0, 1.0))
        values["grade"].append(min(2, max(0, round(level + rng.gauss(0.0, 0.6)))))
    db = FactBase(schema, facts)
    dataset = {name: ExampleSet(schema.get(name),
                                [(Atom(schema.get(name), (Constant(f"e{i:03d}"),)), v)
                                 for i, v in enumerate(vals)])
               for name, vals in values.items()}
    return schema, db, modes, dataset
